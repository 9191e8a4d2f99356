package fieldbus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

// buildCapture encodes the given frames at 10ms spacing and returns the
// capture bytes.
func buildCapture(t *testing.T, frames []*Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if err := cw.WriteAt(f, time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCaptureRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: FrameSensor, Unit: 1, Seq: 0, Values: []float64{1, 2, 3}},
		{Type: FrameActuator, Unit: 1, Seq: 0, Values: []float64{-4, math.Pi}},
		{Type: FrameSensor, Unit: 9, Seq: ^uint64(0), Values: []float64{math.NaN()}},
	}
	data := buildCapture(t, frames)
	cr, err := NewCaptureReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range frames {
		ts, got, err := cr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if ts != time.Duration(i)*10*time.Millisecond {
			t.Errorf("record %d ts = %v", i, ts)
		}
		if got.Type != want.Type || got.Unit != want.Unit || got.Seq != want.Seq ||
			len(got.Values) != len(want.Values) {
			t.Errorf("record %d header mismatch: %+v vs %+v", i, got, want)
		}
		for j := range want.Values {
			if math.Float64bits(got.Values[j]) != math.Float64bits(want.Values[j]) {
				t.Errorf("record %d value %d changed bits", i, j)
			}
		}
	}
	if _, _, err := cr.Next(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

// TestCaptureWriterClampsBackwardTimestamps: the capture records arrival
// order; a stamp racing backwards (concurrent taps) is clamped, keeping
// the file's nondecreasing invariant.
func TestCaptureWriterClampsBackwardTimestamps(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := &Frame{Type: FrameSensor, Seq: 1, Values: []float64{1}}
	if err := cw.WriteAt(f, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteAt(f, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if cw.last != 50*time.Millisecond {
		t.Errorf("Span = %v, want clamp at 50ms", cw.last)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewCaptureReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); err != nil {
		t.Fatal(err)
	}
	ts, _, err := cr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 50*time.Millisecond {
		t.Errorf("clamped record ts = %v, want 50ms", ts)
	}
}

func TestCaptureReaderTypedErrors(t *testing.T) {
	frames := []*Frame{
		{Type: FrameSensor, Seq: 1, Values: []float64{1, 2}},
		{Type: FrameActuator, Seq: 1, Values: []float64{3}},
	}
	data := buildCapture(t, frames)

	// Not a capture at all / truncated header.
	if _, err := NewCaptureReader(bytes.NewReader([]byte("junkjunk"))); !errors.Is(err, ErrBadCapture) {
		t.Errorf("bad magic: want ErrBadCapture, got %v", err)
	}
	if _, err := NewCaptureReader(bytes.NewReader(data[:4])); !errors.Is(err, ErrBadCapture) {
		t.Errorf("short header: want ErrBadCapture, got %v", err)
	}

	// Truncations inside the first record: mid-record-header and mid-frame.
	for _, cut := range []int{len(captureMagic) + 5, len(captureMagic) + captureRecHeader + 3} {
		cr, err := NewCaptureReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cr.Next(); !errors.Is(err, ErrBadCapture) {
			t.Errorf("cut at %d: want ErrBadCapture, got %v", cut, err)
		}
	}

	// Implausible frame length.
	bad := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(bad[len(captureMagic)+8:], uint32(EncodedSize(MaxValues))+1)
	cr, err := NewCaptureReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); !errors.Is(err, ErrBadCapture) {
		t.Errorf("oversized length: want ErrBadCapture, got %v", err)
	}

	// Zero frame length.
	zero := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(zero[len(captureMagic)+8:], 0)
	if cr, err = NewCaptureReader(bytes.NewReader(zero)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); !errors.Is(err, ErrBadCapture) {
		t.Errorf("zero length: want ErrBadCapture, got %v", err)
	}

	// A decreasing timestamp in the second record.
	back := append([]byte(nil), data...)
	rec2 := len(captureMagic) + captureRecHeader + EncodedSize(2)
	binary.BigEndian.PutUint64(back[rec2:], 0) // first record is at 0 too; make first later
	binary.BigEndian.PutUint64(back[len(captureMagic):], uint64(time.Second))
	if cr, err = NewCaptureReader(bytes.NewReader(back)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); !errors.Is(err, ErrBadCapture) {
		t.Errorf("backward timestamp: want ErrBadCapture, got %v", err)
	}

	// Frame-level corruption surfaces the codec's own typed error.
	crc := append([]byte(nil), data...)
	crc[len(crc)-1] ^= 0x01
	if cr, err = NewCaptureReader(bytes.NewReader(crc)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); !errors.Is(err, ErrBadCRC) {
		t.Errorf("corrupt frame: want ErrBadCRC, got %v", err)
	}
}

// TestCaptureReaderSteadyStateAllocs: with same-width frames the reader's
// scratch stabilizes and Next allocates nothing — captures replay at
// transport speed without GC pressure.
func TestCaptureReaderSteadyStateAllocs(t *testing.T) {
	frames := make([]*Frame, 240)
	for i := range frames {
		frames[i] = &Frame{Type: FrameSensor, Unit: 1, Seq: uint64(i), Values: make([]float64, 53)}
	}
	cr, err := NewCaptureReader(bytes.NewReader(buildCapture(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // warm the scratch
		if _, _, err := cr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := cr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CaptureReader.Next allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestCaptureWriterSteadyStateAllocs: WriteAt reuses the marshal
// scratch, so live recording does not allocate per frame.
func TestCaptureWriterSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	cw, err := NewCaptureWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := &Frame{Type: FrameSensor, Unit: 1, Values: make([]float64, 53)}
	for i := 0; i < 10; i++ {
		f.Seq++
		if err := cw.WriteAt(f, time.Duration(f.Seq)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.Seq++
		if err := cw.WriteAt(f, time.Duration(f.Seq)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CaptureWriter.WriteAt allocates %.1f/op in steady state, want 0", allocs)
	}
}
