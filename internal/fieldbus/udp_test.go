package fieldbus

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestUDPServerReceivesFrames(t *testing.T) {
	var mu sync.Mutex
	var received []*Frame
	srv, err := NewUDPServer("127.0.0.1:0", func(f *Frame) {
		mu.Lock()
		received = append(received, f.Clone()) // the handler frame is scratch
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	cli, err := DialUDP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	const n = 20
	for i := 0; i < n; i++ {
		if err := cli.Send(&Frame{
			Type: FrameSensor, Unit: 3, Seq: uint64(i), Values: []float64{float64(i), -1},
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond) // loopback pacing
	}
	waitFor(t, "all datagrams", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(received) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, f := range received {
		if f.Seq != uint64(i) || f.Values[0] != float64(i) || f.Unit != 3 {
			t.Errorf("frame %d arrived as %+v", i, f)
		}
	}
	if st := srv.Stats(); st.Datagrams != n || st.Corrupt != 0 || (st.Datagrams-st.Corrupt) != n {
		t.Errorf("stats = %+v, want %d clean datagrams", st, n)
	}
}

// TestUDPServerDropsCorruptDatagrams: a corrupt datagram is counted and
// dropped — unlike the TCP path there is no connection to kill, and the
// healthy stream behind it keeps flowing.
func TestUDPServerDropsCorruptDatagrams(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	srv, err := NewUDPServer("127.0.0.1:0", func(f *Frame) {
		mu.Lock()
		got = append(got, f.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	raw, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()

	valid, err := (&Frame{Type: FrameSensor, Seq: 1, Values: []float64{4}}).MarshalTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage, a truncated frame, a CRC flip — then a healthy frame.
	if _, err := raw.Write([]byte("not a frame")); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(valid[:7]); err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)-1] ^= 0xFF
	if _, err := raw.Write(flip); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(valid); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "the valid frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	waitFor(t, "corrupt accounting", func() bool { return srv.Stats().Corrupt == 3 })
	st := srv.Stats()
	if st.Datagrams != 4 || (st.Datagrams-st.Corrupt) != 1 {
		t.Errorf("stats = %+v, want 4 datagrams / 1 frame", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 1 {
		t.Errorf("delivered seq %d, want 1", got[0])
	}
}

func TestUDPServerCloseIdempotent(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", func(*Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestUDPServerRejectsNilHandler(t *testing.T) {
	if _, err := NewUDPServer("127.0.0.1:0", nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("want ErrBadFrame, got %v", err)
	}
}

func TestUDPClientSendValidation(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", func(*Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cli, err := DialUDP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if err := cli.Send(&Frame{Type: FrameSensor}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty frame: want ErrBadFrame, got %v", err)
	}
}
