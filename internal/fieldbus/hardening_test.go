package fieldbus

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// --- Tap output validation -------------------------------------------------

// TestLinkTapViolationRejected: a tap that empties or overgrows the frame's
// Values must surface as a typed error from the send, not deliver an
// invalid block to the victim side.
func TestLinkTapViolationRejected(t *testing.T) {
	cases := map[string]Tap{
		"emptied":  func(f *Frame) { f.Values = f.Values[:0] },
		"nil":      func(f *Frame) { f.Values = nil },
		"overgrow": func(f *Frame) { f.Values = make([]float64, MaxValues+1) },
		"type":     func(f *Frame) { f.Type = 77 },
	}
	for name, tap := range cases {
		l := NewLink()
		l.SetSensorTap(tap)
		if _, err := l.SendSensorsInto([]float64{1, 2}, nil); !errors.Is(err, ErrTapViolation) {
			t.Errorf("%s: want ErrTapViolation, got %v", name, err)
		}
		// The link itself stays usable once the tap is cleared.
		l.SetSensorTap(nil)
		if _, err := l.SendSensorsInto([]float64{1, 2}, nil); err != nil {
			t.Errorf("%s: link unusable after violation: %v", name, err)
		}
		// The untapped direction is unaffected throughout.
		l.SetSensorTap(tap)
		if _, err := l.SendActuatorsInto([]float64{3}, nil); err != nil {
			t.Errorf("%s: actuator direction affected: %v", name, err)
		}
	}
}

// TestMitMProxyTapViolationDropsFrameNotConnection: a tap that breaks one
// frame used to kill the whole proxied connection silently (re-marshal
// rejected it); now the frame is dropped with accounting and the stream
// keeps flowing.
func TestMitMProxyTapViolationDropsFrameNotConnection(t *testing.T) {
	got := make(chan uint64, 16)
	srv, err := NewServer("127.0.0.1:0", func(f *Frame) { got <- f.Seq })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	// The tap destroys every odd-sequence frame and rewrites the rest.
	proxy, err := NewMitMProxy("127.0.0.1:0", srv.Addr(), func(f *Frame) {
		if f.Seq%2 == 1 {
			f.Values = f.Values[:0]
			return
		}
		f.Values[0] = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	cli, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	for seq := uint64(0); seq < 6; seq++ {
		if err := cli.Send(&Frame{Type: FrameSensor, Seq: seq, Values: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	deadline := time.After(5 * time.Second)
	for len(seqs) < 3 {
		select {
		case s := <-got:
			seqs = append(seqs, s)
		case <-deadline:
			t.Fatalf("received %v before timeout — connection died on the violation", seqs)
		}
	}
	for _, s := range seqs {
		if s%2 == 1 {
			t.Errorf("destroyed frame %d was forwarded", s)
		}
	}
	// Seq 5's violation is counted by the proxy goroutine after seq 4 was
	// already delivered; poll instead of asserting a racy instant.
	waitFor(t, "violation accounting", func() bool {
		proxy.mu.Lock()
		defer proxy.mu.Unlock()
		return proxy.violations == 3
	})
}

// --- Receive-path allocation discipline ------------------------------------

// loopReader replays one byte sequence forever — an infinite frame stream
// without per-iteration reader state.
type loopReader struct {
	data []byte
	pos  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.pos == len(r.data) {
		r.pos = 0
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// TestReadFrameIntoSteadyStateAllocs pins the fix for the TCP receive hot
// path allocating a fresh Frame + payload per frame: with a long-lived
// frame and scratch buffer, steady-state reads allocate nothing.
func TestReadFrameIntoSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Frame{Type: FrameSensor, Unit: 2, Seq: 9, Values: make([]float64, 53)}); err != nil {
		t.Fatal(err)
	}
	r := &loopReader{data: buf.Bytes()}
	var f Frame
	var scratch []byte
	var err error
	for i := 0; i < 4; i++ { // warm the scratch
		if scratch, err = ReadFrameInto(r, &f, scratch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if scratch, err = ReadFrameInto(r, &f, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFrameInto allocates %.1f/op in steady state, want 0", allocs)
	}
	if f.Seq != 9 || len(f.Values) != 53 {
		t.Errorf("decoded frame corrupted: %+v", f)
	}
}

// --- MitMProxy edge paths --------------------------------------------------

// TestMitMProxyCloseWithLiveConns: Close while downstream connections are
// live and mid-traffic must terminate every proxy goroutine (no leak, no
// hang) and leave the upstream server running.
func TestMitMProxyCloseWithLiveConns(t *testing.T) {
	var n atomic.Uint64
	srv, err := NewServer("127.0.0.1:0", func(*Frame) { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	proxy, err := NewMitMProxy("127.0.0.1:0", srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var clients []*Client
	for i := 0; i < 3; i++ {
		cli, err := Dial(proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = cli.Close() }()
		clients = append(clients, cli)
		if err := cli.Send(&Frame{Type: FrameSensor, Seq: uint64(i), Values: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "frames through live conns", func() bool { return n.Load() == 3 })

	done := make(chan error, 1)
	go func() { done <- proxy.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with live downstream connections")
	}
	// The severed clients now fail (possibly after a buffered write or
	// two); the upstream server is untouched.
	for _, cli := range clients {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := cli.Send(&Frame{Type: FrameSensor, Seq: 99, Values: []float64{1}}); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("send through closed proxy never failed")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	direct, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = direct.Close() }()
	if err := direct.Send(&Frame{Type: FrameSensor, Seq: 100, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "upstream still serving", func() bool { return n.Load() == 4 })
}

// TestMitMProxyUpstreamDialFailure: a proxy whose upstream is unreachable
// must shed the downstream connection cleanly — no goroutine leak, no
// panic, and Close still works.
func TestMitMProxyUpstreamDialFailure(t *testing.T) {
	// Reserve an address with nothing listening on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	proxy, err := NewMitMProxy("127.0.0.1:0", dead, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	// The proxy drops the connection once the upstream dial fails; the
	// client sees it as a write error shortly after.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cli.Send(&Frame{Type: FrameSensor, Seq: 1, Values: []float64{1}}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("send kept succeeding with an unreachable upstream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := proxy.Close(); err != nil {
		t.Fatalf("Close after upstream failure: %v", err)
	}
}
