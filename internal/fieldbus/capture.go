package fieldbus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Capture file format — the pcap-style record of fieldbus traffic that the
// replay path plays back through the pairing ingest. The format is
// deliberately minimal and self-describing:
//
//	header:  8 bytes magic "PCSCAP1\n"
//	record:  8 bytes big-endian uint64 — monotonic timestamp, nanoseconds
//	         since the capture's first frame (nondecreasing)
//	         4 bytes big-endian uint32 — frame length in bytes
//	         frame bytes — the MarshalTo encoding, CRC-32 trailer included
//
// Timestamps are monotonic offsets, not wall-clock times: a capture is a
// relative timeline, so replay maps it onto any clock at any speed-up and
// two captures of the same traffic are byte-comparable. Frame integrity is
// carried by each frame's own CRC; a record whose frame does not decode,
// whose length field is implausible, or that ends mid-record is a typed
// error, never a panic (FuzzCaptureReader).

// ErrBadCapture is returned for capture files that are truncated,
// corrupted, or not captures at all.
var ErrBadCapture = errors.New("fieldbus: malformed capture")

// ErrTruncatedTail marks a capture that ends mid-record — the signature of
// a recorder killed mid-run (SIGKILL, power loss) rather than structural
// corruption. It wraps ErrBadCapture, so existing errors.Is(ErrBadCapture)
// checks keep matching, while replay paths can single it out and score the
// readable prefix with a warning instead of refusing the file.
var ErrTruncatedTail = fmt.Errorf("capture truncated mid-record: %w", ErrBadCapture)

var captureMagic = [8]byte{'P', 'C', 'S', 'C', 'A', 'P', '1', '\n'}

const captureRecHeader = 8 + 4 // timestamp + frame length

// recordFrameLen bounds an encoded frame length before it is committed to
// a capture record header — the writer-side mirror of the reader's
// EncodedSize(MaxValues) check, plus the uint32 length-field overflow edge
// (the record header carries the length as a uint32; a longer encoding
// would silently wrap and desynchronize every later record).
func recordFrameLen(n int) error {
	if n <= 0 || n > EncodedSize(MaxValues) || uint64(n) > uint64(^uint32(0)) {
		return fmt.Errorf("fieldbus: capture frame length %d: %w", n, ErrBadCapture)
	}
	return nil
}

// CaptureWriter appends timestamped frames to a capture stream. Not safe
// for concurrent use; live recorders serialize (one recorder per tap
// point, like one pcap per interface).
type CaptureWriter struct {
	bw      *bufio.Writer
	scratch []byte
	hdr     [captureRecHeader]byte
	last    time.Duration
}

// NewCaptureWriter writes the capture header to w and returns the writer.
// Call Flush before closing the underlying file.
func NewCaptureWriter(w io.Writer) (*CaptureWriter, error) {
	cw := &CaptureWriter{bw: bufio.NewWriter(w)}
	if _, err := cw.bw.Write(captureMagic[:]); err != nil {
		return nil, fmt.Errorf("fieldbus: write capture header: %w", err)
	}
	return cw, nil
}

// WriteAt appends one frame at the given capture-relative timestamp.
// Timestamps must be nondecreasing; an earlier stamp (reordered arrival,
// concurrent taps racing the recorder) is clamped up to the previous one —
// the capture records arrival order, which is what replay must reproduce.
//
//pcslint:hotpath
func (cw *CaptureWriter) WriteAt(f *Frame, at time.Duration) error {
	if at < cw.last {
		at = cw.last
	}
	cw.last = at
	data, err := f.MarshalTo(cw.scratch)
	if err != nil {
		return err
	}
	if err := recordFrameLen(len(data)); err != nil {
		// Mirrors the reader's bound: a frame the codec would encode but
		// the capture reader would reject must fail here, at write time,
		// not poison the file for its own reader mid-replay.
		return err
	}
	cw.scratch = data
	binary.BigEndian.PutUint64(cw.hdr[0:], uint64(at))
	binary.BigEndian.PutUint32(cw.hdr[8:], uint32(len(data)))
	if _, err := cw.bw.Write(cw.hdr[:]); err != nil {
		return fmt.Errorf("fieldbus: write capture record: %w", err)
	}
	if _, err := cw.bw.Write(data); err != nil {
		return fmt.Errorf("fieldbus: write capture record: %w", err)
	}
	return nil
}

// Flush writes buffered records through to the underlying writer.
func (cw *CaptureWriter) Flush() error {
	if err := cw.bw.Flush(); err != nil {
		return fmt.Errorf("fieldbus: flush capture: %w", err)
	}
	return nil
}

// CaptureReader iterates a capture stream. The frame returned by Next is
// the reader's scratch, reused on the next call — Clone what must outlive
// it. Malformed input yields typed errors (ErrBadCapture for structural
// damage, the codec's own errors for frame-level corruption); a clean end
// of file yields io.EOF.
type CaptureReader struct {
	r     io.Reader
	frame Frame
	data  []byte
	hdr   [captureRecHeader]byte
	last  time.Duration
}

// NewCaptureReader validates the capture header of r. Pass a buffered
// reader for file streams; the reader issues small reads.
func NewCaptureReader(r io.Reader) (*CaptureReader, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("fieldbus: capture header: %v: %w", err, ErrBadCapture)
	}
	if magic != captureMagic {
		return nil, fmt.Errorf("fieldbus: capture magic %q: %w", magic[:], ErrBadCapture)
	}
	return &CaptureReader{r: r}, nil
}

// Next returns the next record's timestamp and frame. The frame is scratch
// (see the type comment). At a clean end of capture it returns io.EOF; a
// stream ending mid-record is ErrTruncatedTail (an uncleanly stopped
// recorder — still ErrBadCapture, but distinguishable so replay can score
// the readable prefix); an implausible length, a decreasing timestamp or a
// frame that fails to decode is a typed error.
func (cr *CaptureReader) Next() (time.Duration, *Frame, error) {
	if _, err := io.ReadFull(cr.r, cr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean boundary between records
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
	if uint32(cap(cr.data)) < n {
		cr.data = make([]byte, n)
	}
	cr.data = cr.data[:n]
	if _, err := io.ReadFull(cr.r, cr.data); err != nil {
		return 0, nil, fmt.Errorf("fieldbus: record frame body: %v: %w", err, ErrTruncatedTail)
	}
	if err := cr.frame.UnmarshalInto(cr.data); err != nil {
		return 0, nil, err // the codec's typed corruption errors
	}
	cr.last = ts
	return ts, &cr.frame, nil
}
