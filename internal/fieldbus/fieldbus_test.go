package fieldbus

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// unmarshal decodes data into a fresh frame.
func unmarshal(data []byte) (*Frame, error) {
	f := &Frame{}
	if err := f.UnmarshalInto(data); err != nil {
		return nil, err
	}
	return f, nil
}

// writeFrame writes one length-prefixed frame through a fresh scratch.
func writeFrame(w io.Writer, f *Frame) error {
	_, err := WriteFrameBuf(w, f, nil)
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Type: FrameSensor, Unit: 7, Seq: 42, Values: []float64{1.5, -2.25, 0, math.Pi}}
	data, err := f.MarshalTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Unit != f.Unit || got.Seq != f.Seq {
		t.Errorf("header mismatch: %+v vs %+v", got, f)
	}
	if len(got.Values) != len(f.Values) {
		t.Fatalf("values len %d vs %d", len(got.Values), len(f.Values))
	}
	for i := range f.Values {
		if got.Values[i] != f.Values[i] {
			t.Errorf("value %d: %g vs %g", i, got.Values[i], f.Values[i])
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(61))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(MaxValues)
		f := &Frame{
			Type: FrameType(1 + rng.Intn(2)),
			Unit: uint8(rng.Intn(256)),
			Seq:  rng.Uint64(),
		}
		f.Values = make([]float64, n)
		for i := range f.Values {
			f.Values[i] = rng.NormFloat64() * 1e6
		}
		data, err := f.MarshalTo(nil)
		if err != nil {
			return false
		}
		if len(data) != EncodedSize(n) {
			return false
		}
		got, err := unmarshal(data)
		if err != nil {
			return false
		}
		for i := range f.Values {
			if got.Values[i] != f.Values[i] {
				return false
			}
		}
		return got.Type == f.Type && got.Unit == f.Unit && got.Seq == f.Seq
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestMarshalRejectsBadFrames(t *testing.T) {
	if _, err := (&Frame{Type: 9, Values: []float64{1}}).MarshalTo(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad type: want ErrBadFrame, got %v", err)
	}
	if _, err := (&Frame{Type: FrameSensor}).MarshalTo(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty values: want ErrBadFrame, got %v", err)
	}
	if _, err := (&Frame{Type: FrameSensor, Values: make([]float64, MaxValues+1)}).MarshalTo(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("too many values: want ErrBadFrame, got %v", err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f := &Frame{Type: FrameActuator, Values: []float64{1, 2, 3}}
	data, err := f.MarshalTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshal(data[:5]); !errors.Is(err, ErrFrameTooShort) {
		t.Errorf("short: want ErrFrameTooShort, got %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := unmarshal(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: want ErrBadMagic, got %v", err)
	}
	flip := append([]byte(nil), data...)
	flip[20] ^= 0x01 // corrupt a payload byte
	if _, err := unmarshal(flip); !errors.Is(err, ErrBadCRC) {
		t.Errorf("crc: want ErrBadCRC, got %v", err)
	}
}

func TestLinkPassThrough(t *testing.T) {
	l := NewLink()
	out, err := l.SendSensorsInto([]float64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if out[i] != want {
			t.Errorf("value %d = %g, want %g", i, out[i], want)
		}
	}
}

func TestLinkTapsRewriteTraffic(t *testing.T) {
	l := NewLink()
	l.SetSensorTap(func(f *Frame) { f.Values[0] = 0 })
	l.SetActuatorTap(func(f *Frame) { f.Values[1] = 99 })
	s, err := l.SendSensorsInto([]float64{5, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 0 || s[1] != 6 {
		t.Errorf("sensor tap result %v", s)
	}
	a, err := l.SendActuatorsInto([]float64{7, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 7 || a[1] != 99 {
		t.Errorf("actuator tap result %v", a)
	}
	// Clearing the tap restores pass-through.
	l.SetSensorTap(nil)
	s, err = l.SendSensorsInto([]float64{5, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 5 {
		t.Errorf("tap not cleared: %v", s)
	}
}

func TestLinkSendValidation(t *testing.T) {
	l := NewLink()
	if _, err := l.SendSensorsInto(nil, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("want ErrBadFrame, got %v", err)
	}
}

func TestLinkReturnsIndependentCopies(t *testing.T) {
	l := NewLink()
	in := []float64{1, 2}
	out, err := l.SendSensorsInto(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = 99
	if got := l.recvFrame.Values; got[0] != 1 {
		t.Error("returned slice aliases internal state")
	}
	in[1] = 99
	if got := l.sendFrame.Values; got[1] != 2 {
		t.Error("input slice aliased")
	}
}

func TestWriteReadFrameStream(t *testing.T) {
	var buf bytes.Buffer
	frames := []*Frame{
		{Type: FrameSensor, Seq: 1, Values: []float64{1}},
		{Type: FrameActuator, Seq: 2, Values: []float64{2, 3}},
	}
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		var got Frame
		if _, err := ReadFrameInto(&buf, &got, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || len(got.Values) != len(want.Values) {
			t.Errorf("frame %d mismatch", i)
		}
	}
}

func TestTCPServerReceivesFrames(t *testing.T) {
	var mu sync.Mutex
	var received []*Frame
	srv, err := NewServer("127.0.0.1:0", func(f *Frame) {
		mu.Lock()
		received = append(received, f.Clone()) // the handler frame is scratch
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	for i := 0; i < 5; i++ {
		if err := cli.Send(&Frame{Type: FrameSensor, Seq: uint64(i), Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/5 frames before timeout", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if received[4].Values[0] != 4 {
		t.Errorf("last frame value = %g, want 4", received[4].Values[0])
	}
}

func TestMitMProxyRewritesInTransit(t *testing.T) {
	got := make(chan *Frame, 10)
	srv, err := NewServer("127.0.0.1:0", func(f *Frame) { got <- f.Clone() })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	// The attacker forges channel 0 of actuator frames to zero.
	proxy, err := NewMitMProxy("127.0.0.1:0", srv.Addr(), func(f *Frame) {
		if f.Type == FrameActuator && len(f.Values) > 0 {
			f.Values[0] = 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()

	cli, err := Dial(proxy.Addr()) // victim dials the proxy unknowingly
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if err := cli.Send(&Frame{Type: FrameActuator, Seq: 9, Values: []float64{24.6, 50}}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if f.Values[0] != 0 {
			t.Errorf("MitM did not rewrite: %v", f.Values)
		}
		if f.Values[1] != 50 {
			t.Errorf("untargeted channel changed: %v", f.Values)
		}
		if f.Seq != 9 {
			t.Errorf("seq changed: %d", f.Seq)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("frame never arrived through proxy")
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameSensor.String() != "sensor" || FrameActuator.String() != "actuator" {
		t.Error("FrameType.String mismatch")
	}
	if FrameType(9).String() == "" {
		t.Error("unknown type should render")
	}
}
