package fieldbus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"
	"time"
)

// next reads cr's next record into a fresh frame.
func next(cr *CaptureReader) (time.Duration, *Frame, error) {
	f := new(Frame)
	ts, err := cr.NextInto(f)
	if err != nil {
		return 0, nil, err
	}
	return ts, f, nil
}

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
		ts, got, err := next(cr)
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
	if _, _, err := next(cr); err != io.EOF {
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
	if _, _, err := next(cr); err != nil {
		t.Fatal(err)
	}
	ts, _, err := next(cr)
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
		if _, _, err := next(cr); !errors.Is(err, ErrBadCapture) {
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
	if _, _, err := next(cr); !errors.Is(err, ErrBadCapture) {
		t.Errorf("oversized length: want ErrBadCapture, got %v", err)
	}

	// Zero frame length.
	zero := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(zero[len(captureMagic)+8:], 0)
	if cr, err = NewCaptureReader(bytes.NewReader(zero)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := next(cr); !errors.Is(err, ErrBadCapture) {
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
	if _, _, err := next(cr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := next(cr); !errors.Is(err, ErrBadCapture) {
		t.Errorf("backward timestamp: want ErrBadCapture, got %v", err)
	}

	// Frame-level corruption surfaces the codec's own typed error.
	crc := append([]byte(nil), data...)
	crc[len(crc)-1] ^= 0x01
	if cr, err = NewCaptureReader(bytes.NewReader(crc)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := next(cr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := next(cr); !errors.Is(err, ErrBadCRC) {
		t.Errorf("corrupt frame: want ErrBadCRC, got %v", err)
	}
}

// TestCaptureReaderSteadyStateAllocs: with same-width frames decoded into
// one frame, NextInto allocates nothing — captures replay at transport
// speed without GC pressure.
func TestCaptureReaderSteadyStateAllocs(t *testing.T) {
	frames := make([]*Frame, 240)
	for i := range frames {
		frames[i] = &Frame{Type: FrameSensor, Unit: 1, Seq: uint64(i), Values: make([]float64, 53)}
	}
	cr, err := NewCaptureReader(bytes.NewReader(buildCapture(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	for i := 0; i < 10; i++ { // warm the frame
		if _, err := cr.NextInto(&f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cr.NextInto(&f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CaptureReader.NextInto allocates %.1f/op in steady state, want 0", allocs)
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

// refCaptureReader is the capture reader as it was before it decoded in
// place: io.ReadFull of the record header, then of the frame into a
// scratch buffer, then the decode. The in-place reader must deliver the
// same frames and fail with the same errors.
type refCaptureReader struct {
	r     io.Reader
	frame Frame
	data  []byte
	hdr   [captureRecHeader]byte
	last  time.Duration
}

func (cr *refCaptureReader) next() (time.Duration, *Frame, error) {
	if _, err := io.ReadFull(cr.r, cr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("fieldbus: record header: %v: %w", err, ErrTruncatedTail)
	}
	at := binary.BigEndian.Uint64(cr.hdr[0:])
	n := binary.BigEndian.Uint32(cr.hdr[8:])
	if at > uint64(1<<63-1) {
		return 0, nil, fmt.Errorf("fieldbus: capture timestamp overflow: %w", ErrBadCapture)
	}
	ts := time.Duration(at)
	if ts < cr.last {
		return 0, nil, fmt.Errorf("fieldbus: capture timestamp moved backwards (%v after %v): %w",
			ts, cr.last, ErrBadCapture)
	}
	if n == 0 || n > uint32(EncodedSize(MaxValues)) {
		return 0, nil, fmt.Errorf("fieldbus: capture frame length %d: %w", n, ErrBadCapture)
	}
	cr.data = make([]byte, n)
	if _, err := io.ReadFull(cr.r, cr.data); err != nil {
		return 0, nil, fmt.Errorf("fieldbus: record frame body: %v: %w", err, ErrTruncatedTail)
	}
	if err := cr.frame.UnmarshalInto(cr.data); err != nil {
		return 0, nil, err
	}
	cr.last = ts
	return ts, &cr.frame, nil
}

// readAll reads records until the first error and returns the stamps, the
// frames (cloned) and that error.
func readAll(next func() (time.Duration, *Frame, error)) ([]time.Duration, []*Frame, error) {
	var stamps []time.Duration
	var frames []*Frame
	for {
		ts, f, err := next()
		if err != nil {
			return stamps, frames, err
		}
		stamps = append(stamps, ts)
		frames = append(frames, f.Clone())
	}
}

// TestCaptureReaderInPlaceMatchesReference damages a capture in each way
// the reader must refuse — a truncated record header, a truncated frame
// body, a zero or oversized length, a timestamp that moves backwards, a
// flipped CRC — and reads it through the in-place reader behind several
// source readers: a bytes.Reader (wrapped once), a *bufio.Reader too small
// for the longest record (wrapped), one large enough (read directly) and
// readers that return one byte or half the request per call. Every one
// must deliver the reference reader's frames and stop with its error: the
// same sentinel and the same message.
func TestCaptureReaderInPlaceMatchesReference(t *testing.T) {
	frames := []*Frame{
		{Type: FrameSensor, Unit: 1, Seq: 1, Values: []float64{1, 2, math.NaN(), math.Inf(-1), 5}},
		{Type: FrameActuator, Unit: 1, Seq: 1, Values: []float64{3, math.Copysign(0, -1)}},
		{Type: FrameSensor, Unit: 2, Seq: 2, Values: make([]float64, 53)},
		{Type: FrameActuator, Unit: 2, Seq: 2, Values: make([]float64, MaxValues)},
	}
	for i := range frames[2].Values {
		frames[2].Values[i] = float64(i) / 7
	}
	data := buildCapture(t, frames)
	recAt := func(i int) int { // byte offset of record i
		off := len(captureMagic)
		for _, f := range frames[:i] {
			off += captureRecHeader + EncodedSize(len(f.Values))
		}
		return off
	}
	damage := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), data...)) }
	cases := map[string][]byte{
		"clean":            data,
		"header only":      data[:len(captureMagic)],
		"truncated header": data[:recAt(2)+5],
		"header, no body":  data[:recAt(2)+captureRecHeader],
		"truncated body":   data[:recAt(3)+captureRecHeader+100],
		"zero length": damage(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[recAt(1)+8:], 0)
			return b
		}),
		"bad length": damage(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[recAt(2)+8:], uint32(EncodedSize(MaxValues))+1)
			return b
		}),
		"timestamp overflow": damage(func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[recAt(1):], 1<<63)
			return b
		}),
		"backwards timestamp": damage(func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[recAt(1):], uint64(time.Second))
			return b
		}),
		"bad CRC": damage(func(b []byte) []byte {
			b[recAt(3)-1] ^= 0x01
			return b
		}),
	}
	sources := map[string]func([]byte) io.Reader{
		"bytes":        func(b []byte) io.Reader { return bytes.NewReader(b) },
		"small bufio":  func(b []byte) io.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 16) },
		"64KiB bufio":  func(b []byte) io.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 1<<16) },
		"one byte":     func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":         func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data+EOF err": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	}
	for name, input := range cases {
		ref := &refCaptureReader{r: bytes.NewReader(input[len(captureMagic):])}
		wantTS, wantFrames, wantErr := readAll(ref.next)
		if wantErr == io.EOF && name != "clean" && name != "header only" {
			t.Fatalf("%s: the reference reader read the damage cleanly", name)
		}
		for sname, src := range sources {
			cr, err := NewCaptureReader(src(input))
			if err != nil {
				t.Fatalf("%s via %s: %v", name, sname, err)
			}
			gotTS, gotFrames, gotErr := readAll(func() (time.Duration, *Frame, error) { return next(cr) })
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%s via %s: error %q, reference %q", name, sname, gotErr, wantErr)
			}
			for _, sentinel := range []error{io.EOF, ErrBadCapture, ErrTruncatedTail, ErrBadCRC} {
				if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
					t.Errorf("%s via %s: errors.Is(%v, %v) differs from the reference", name, sname, gotErr, sentinel)
				}
			}
			if !reflect.DeepEqual(gotTS, wantTS) || len(gotFrames) != len(wantFrames) {
				t.Fatalf("%s via %s: %d records at %v, reference %d at %v",
					name, sname, len(gotFrames), gotTS, len(wantFrames), wantTS)
			}
			for i := range gotFrames {
				g, w := gotFrames[i], wantFrames[i]
				if g.Type != w.Type || g.Unit != w.Unit || g.Seq != w.Seq || !equalBits(g.Values, w.Values) {
					t.Fatalf("%s via %s: frame %d = %+v, reference %+v", name, sname, i, g, w)
				}
			}
		}
	}
}

// captureBoundaryStream returns a capture in which record k starts off
// bytes before the first 64 KiB boundary of the stream, so with off in
// (0, record size) that record straddles the first refill of a 64 KiB
// reader. Records are numbered by Seq; record k carries 53 values, the
// fillers before it whatever width makes the offset come out exact, and
// four more 53-value records follow it.
func captureBoundaryStream(t *testing.T, off int) (stream []byte, frames []*Frame, k int) {
	t.Helper()
	const boundary = 1 << 16
	fill := boundary - off - len(captureMagic)
	// A record of n values takes captureRecHeader+EncodedSize(n) = 30+8n
	// bytes; find the fewest fillers that sum to fill with n in
	// [1, MaxValues].
	rec0 := captureRecHeader + EncodedSize(0)
	for k = 1; ; k++ {
		rest := fill - k*rec0
		if rest < 8*k {
			t.Fatalf("no filler reaches offset %d", off)
		}
		if rest%8 == 0 && rest/8 <= k*MaxValues {
			break
		}
	}
	values := (fill - k*rec0) / 8
	add := func(n int) {
		f := &Frame{Type: FrameSensor, Unit: 3, Seq: uint64(len(frames)), Values: make([]float64, n)}
		for j := range f.Values {
			f.Values[j] = float64(len(frames)) + float64(j)/1024
		}
		frames = append(frames, f)
	}
	for i := 0; i < k; i++ {
		n := values / k
		if i < values%k {
			n++
		}
		add(n)
	}
	for i := 0; i < 5; i++ {
		add(53)
	}
	stream = buildCapture(t, frames)
	if got := len(captureMagic) + fill; got+off != boundary {
		t.Fatalf("fillers end at %d, want %d", got, boundary-off)
	}
	return stream, frames, k
}

// TestCaptureReaderRecordsStraddleBoundary: through a 64 KiB reader (the
// chain's segment reader), a record whose header, frame header, values or
// CRC straddles the first refill decodes intact, and so does every record
// after it. A bytes.Reader fills the buffer completely, so the refill
// falls exactly at 64 KiB; record sizes are even, so even offsets cover
// every split of a 53-value record.
func TestCaptureReaderRecordsStraddleBoundary(t *testing.T) {
	for off := 2; off < captureRecHeader+EncodedSize(53); off += 2 {
		stream, frames, k := captureBoundaryStream(t, off)
		cr, err := NewCaptureReader(bufio.NewReaderSize(bytes.NewReader(stream), 1<<16))
		if err != nil {
			t.Fatal(err)
		}
		var got Frame
		for i, want := range frames {
			ts, err := cr.NextInto(&got)
			if err != nil {
				t.Fatalf("offset %d: record %d (straddler %d): %v", off, i, k, err)
			}
			if ts != time.Duration(i)*10*time.Millisecond || got.Seq != want.Seq || !equalBits(got.Values, want.Values) {
				t.Fatalf("offset %d: record %d decoded as seq %d at %v with %d values, want seq %d with %d",
					off, i, got.Seq, ts, len(got.Values), want.Seq, len(want.Values))
			}
		}
		if _, err := cr.NextInto(&got); err != io.EOF {
			t.Fatalf("offset %d: after the last record: %v, want EOF", off, err)
		}
	}
}
