package fieldbus

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// storeFrame builds the i-th deterministic test frame: unit cycles 0..units,
// seq counts up per unit, values are distinctive bit patterns.
func storeFrame(i, units, vals int) *Frame {
	f := &Frame{Type: FrameSensor, Unit: uint8(i % units), Seq: uint64(i / units), Values: make([]float64, vals)}
	if i%2 == 1 {
		f.Type = FrameActuator
	}
	for j := range f.Values {
		f.Values[j] = float64(i)*100 + float64(j) + 0.25
	}
	return f
}

// writeStore records n frames at 10ms spacing through a store at base.
func writeStore(t *testing.T, base string, opts StoreOptions, n, units, vals int) *CaptureStore {
	t.Helper()
	st, err := OpenCaptureStore(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.WriteAt(storeFrame(i, units, vals), time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// readChain drains a chain, returning cloned frames and timestamps.
func readChain(t *testing.T, base string, opts ChainOptions) (*ChainReader, []*Frame, []time.Duration) {
	t.Helper()
	cr, err := OpenCaptureChain(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*Frame
	var stamps []time.Duration
	for {
		ts, f, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f.Clone())
		stamps = append(stamps, ts)
	}
	return cr, frames, stamps
}

// TestCaptureStoreRotationBitIdentical: a rotated chain carries exactly the
// records a single-file capture of the same traffic would — same frames,
// same bits, same timeline — split across sealed, indexed segments.
func TestCaptureStoreRotationBitIdentical(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "flight")
	const n = 120
	// ~3 records per segment: EncodedSize(5)+captureRecHeader = 66 bytes.
	st := writeStore(t, base, StoreOptions{SegmentBytes: 220}, n, 3, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Segments() < 10 {
		t.Fatalf("only %d segments after %d frames with a 220-byte budget", st.Segments(), n)
	}

	// The reference: the same frames through a plain CaptureWriter.
	var ref bytes.Buffer
	cw, err := NewCaptureWriter(&ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cw.WriteAt(storeFrame(i, 3, 5), time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	refRd, err := NewCaptureReader(bytes.NewReader(ref.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	cr, frames, stamps := readChain(t, base, ChainOptions{})
	if len(frames) != n {
		t.Fatalf("chain replayed %d records, want %d", len(frames), n)
	}
	for i := range frames {
		ts, want, err := refRd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if stamps[i] != ts {
			t.Fatalf("record %d: chain ts %v, single-file ts %v", i, stamps[i], ts)
		}
		got := frames[i]
		if got.Type != want.Type || got.Unit != want.Unit || got.Seq != want.Seq ||
			len(got.Values) != len(want.Values) {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, got, want)
		}
		for j := range want.Values {
			if math.Float64bits(got.Values[j]) != math.Float64bits(want.Values[j]) {
				t.Fatalf("record %d value %d changed bits", i, j)
			}
		}
	}
	if err := cr.Truncated(); err != nil {
		t.Errorf("clean chain reported truncation: %v", err)
	}
	if cr.SegmentsSkipped() != 0 {
		t.Errorf("unwindowed replay skipped %d segments", cr.SegmentsSkipped())
	}

	// Every segment, the final one included (Close seals), has a sidecar.
	segs, err := findSegments(base)
	if err != nil || len(segs) != st.Segments() {
		t.Fatalf("findSegments = %v, %v; want %d", segs, err, st.Segments())
	}
	var idxFrames uint64
	for _, p := range segs {
		data, err := os.ReadFile(indexPath(p))
		if err != nil {
			t.Fatalf("segment %s has no index sidecar: %v", p, err)
		}
		ix, err := UnmarshalIndex(data)
		if err != nil {
			t.Fatalf("segment %s sidecar: %v", p, err)
		}
		idxFrames += ix.Frames
	}
	if idxFrames != n {
		t.Errorf("index frame counts sum to %d, want %d", idxFrames, n)
	}
}

// TestCaptureStoreRotatesBySpan: time-budget rotation seals a segment once
// it covers SegmentSpan of capture time, regardless of size.
func TestCaptureStoreRotatesBySpan(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "span")
	// 10 ms spacing, 100 ms span budget -> 10 records per segment.
	st := writeStore(t, base, StoreOptions{SegmentSpan: 100 * time.Millisecond}, 40, 1, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Segments(); got != 4 {
		t.Errorf("Segments() = %d, want 4 (40 records / 10 per 100ms span)", got)
	}
	if _, frames, _ := readChain(t, base, ChainOptions{}); len(frames) != 40 {
		t.Errorf("chain replayed %d records, want 40", len(frames))
	}
}

// TestCaptureStoreRetention: the three retention limits prune the oldest
// sealed segments (files and sidecars both) while the rest of the chain
// stays readable.
func TestCaptureStoreRetention(t *testing.T) {
	t.Run("segments", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "keep")
		st := writeStore(t, base, StoreOptions{SegmentBytes: 220, KeepSegments: 3}, 120, 3, 5)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := findSegments(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 3 {
			t.Fatalf("%d segments on disk, want 3 (KeepSegments)", len(segs))
		}
		stats := st.Stats()
		if stats.Pruned == 0 || stats.PrunedFrames == 0 {
			t.Errorf("no pruning accounted: %+v", stats)
		}
		if stats.Frames != 120 {
			t.Errorf("lifetime Frames = %d, want 120", stats.Frames)
		}
		// The pruned prefix is gone; what remains replays cleanly and is
		// the newest tail of the timeline.
		_, frames, stamps := readChain(t, base, ChainOptions{})
		if len(frames) == 0 || uint64(len(frames)) != 120-stats.PrunedFrames {
			t.Fatalf("replayed %d records, want %d", len(frames), 120-stats.PrunedFrames)
		}
		if last := stamps[len(stamps)-1]; last != 119*10*time.Millisecond {
			t.Errorf("newest record at %v, want 1.19s", last)
		}
		if _, err := os.Stat(indexPath(segmentPath(base, 1))); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("pruned segment 1 sidecar still present: %v", err)
		}
	})
	t.Run("bytes", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "keep")
		st := writeStore(t, base, StoreOptions{SegmentBytes: 220, KeepBytes: 900}, 120, 3, 5)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		stats := st.Stats()
		if stats.Pruned == 0 {
			t.Fatalf("byte budget never pruned: %+v", stats)
		}
		// One sealed segment + sidecar of slack: prune runs post-rotation,
		// and Close seals the final segment without another prune pass.
		if stats.Bytes > 900+400 {
			t.Errorf("chain holds %d bytes, budget 900", stats.Bytes)
		}
		if _, frames, _ := readChain(t, base, ChainOptions{}); len(frames) == 0 {
			t.Error("nothing left to replay")
		}
	})
	t.Run("age", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "keep")
		// 120 records at 10ms = 1.19s of capture time; keep 300ms.
		st := writeStore(t, base, StoreOptions{SegmentBytes: 220, KeepAge: 300 * time.Millisecond}, 120, 3, 5)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Stats().Pruned == 0 {
			t.Fatalf("age budget never pruned: %+v", st.Stats())
		}
		_, frames, stamps := readChain(t, base, ChainOptions{})
		if len(frames) == 0 {
			t.Fatal("nothing left to replay")
		}
		// Everything older than ~300ms+one segment behind the newest record
		// is gone.
		if first := stamps[0]; first < 1190*time.Millisecond-300*time.Millisecond-100*time.Millisecond {
			t.Errorf("oldest surviving record at %v — age retention did not prune", first)
		}
	})
}

// TestCaptureStoreRefusesExistingChain: a recorder must never splice a new
// timeline into an old chain.
func TestCaptureStoreRefusesExistingChain(t *testing.T) {
	base := filepath.Join(t.TempDir(), "flight")
	st := writeStore(t, base, StoreOptions{}, 5, 1, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCaptureStore(base, StoreOptions{}); !errors.Is(err, ErrStoreExists) {
		t.Fatalf("reopening an existing chain: want ErrStoreExists, got %v", err)
	}
}

// TestCaptureStoreAbandon: the startup-failure path removes everything the
// store created, including already-sealed segments.
func TestCaptureStoreAbandon(t *testing.T) {
	base := filepath.Join(t.TempDir(), "flight")
	st := writeStore(t, base, StoreOptions{SegmentBytes: 220}, 20, 3, 5)
	if st.Segments() < 2 {
		t.Fatalf("want multiple segments before abandon, got %d", st.Segments())
	}
	st.Abandon()
	segs, err := findSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Errorf("abandoned store left segments behind: %v", segs)
	}
}

// TestCaptureStoreCrashRecovery is the crash-safety acceptance: a store
// whose process dies without Close/seal (simulated by abandoning the
// in-memory writer after a cadence flush) leaves a chain whose sealed
// segments plus the flushed prefix of the unsealed active segment replay
// with a typed truncated-tail warning at worst — not ErrBadCapture.
func TestCaptureStoreCrashRecovery(t *testing.T) {
	base := filepath.Join(t.TempDir(), "crash")
	st := writeStore(t, base, StoreOptions{SegmentBytes: 220, FlushEvery: -1}, 50, 3, 5)
	// The cadence flush lands mid-segment; everything after it is lost
	// with the process.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := st.frames
	// SIGKILL: the store is never sealed, never closed — the *os.File is
	// simply dropped. Data already flushed to the OS survives, like a dead
	// process's page cache.
	_, frames, _ := readChain(t, base, ChainOptions{})
	if uint64(len(frames)) != flushed {
		t.Fatalf("recovered %d records, want the %d flushed before the crash", len(frames), flushed)
	}

	// Now the harsher variant: the active segment also has a *partial*
	// record (buffered bytes cut mid-write). Appending garbage-prefix bytes
	// models the torn tail a real crash leaves.
	segs, err := findSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cr, frames2, _ := readChain(t, base, ChainOptions{})
	if uint64(len(frames2)) != flushed {
		t.Fatalf("torn tail: recovered %d records, want %d", len(frames2), flushed)
	}
	terr := cr.Truncated()
	if terr == nil {
		t.Fatal("torn tail not reported")
	}
	if !errors.Is(terr, ErrTruncatedTail) || !errors.Is(terr, ErrBadCapture) {
		t.Errorf("truncation warning not typed: %v", terr)
	}
}

// TestChainTruncatedTailMidChainIsError: the truncated-tail tolerance is
// only for the final unsealed segment; the same damage in a sealed segment
// mid-chain is corruption and must fail.
func TestChainTruncatedTailMidChainIsError(t *testing.T) {
	base := filepath.Join(t.TempDir(), "mid")
	st := writeStore(t, base, StoreOptions{SegmentBytes: 220}, 30, 3, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := findSegments(base)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	cr, err := OpenCaptureChain(base, ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, err = cr.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF || !errors.Is(err, ErrBadCapture) {
		t.Errorf("mid-chain truncation: want ErrBadCapture, got %v", err)
	}
}

// TestChainWindowSeek: -from/-to over a rotated chain must land on exactly
// the in-window records while segments wholly outside the window are never
// opened — the index seek, proven by the read-record counter.
func TestChainWindowSeek(t *testing.T) {
	base := filepath.Join(t.TempDir(), "seek")
	// 40 records per segment by span: 10ms spacing, 400ms budget, 200
	// records -> 5 segments of 40.
	st := writeStore(t, base, StoreOptions{SegmentSpan: 400 * time.Millisecond}, 200, 2, 4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Segments() != 5 {
		t.Fatalf("segments = %d, want 5", st.Segments())
	}
	// Window: [850ms, 1.04s] — records 85..104, living in segments 3
	// (800-1190ms covers 80..119) only... records 85..104 span segments 3
	// (80..119). All inside segment 3: 20 records.
	cr, frames, stamps := readChain(t, base, ChainOptions{From: 850 * time.Millisecond, To: 1040 * time.Millisecond})
	if len(frames) != 20 {
		t.Fatalf("window replayed %d records, want 20", len(frames))
	}
	if stamps[0] != 850*time.Millisecond || stamps[len(stamps)-1] != 1040*time.Millisecond {
		t.Errorf("window edges [%v, %v], want [850ms, 1.04s]", stamps[0], stamps[len(stamps)-1])
	}
	// Segments 1, 2 skipped via index; 4, 5 never reached (early stop).
	// Only segment 3's 40 records (plus the first out-of-window one of
	// segment 3 is in-segment) are decoded: RecordsRead must stay far
	// below the chain total, and only segment 3 may be opened.
	if cr.RecordsRead() > 41 {
		t.Errorf("window seek decoded %d records of 200 — the index was not used", cr.RecordsRead())
	}
	if cr.SegmentsSkipped() != 4 {
		t.Errorf("segments skipped = %d, want 4", cr.SegmentsSkipped())
	}
	// Delivered counts only the in-window records handed back; the records
	// scanned inside segment 3 up to From stay in RecordsRead alone.
	if cr.Delivered() != 20 {
		t.Errorf("delivered = %d, want 20", cr.Delivered())
	}
	if cr.Delivered() > cr.RecordsRead() {
		t.Errorf("delivered %d > decoded %d", cr.Delivered(), cr.RecordsRead())
	}
	// Unbounded-above window: skip the first 4 segments, read the last.
	cr2, frames2, _ := readChain(t, base, ChainOptions{From: 1600 * time.Millisecond})
	if len(frames2) != 40 {
		t.Errorf("tail window replayed %d records, want 40", len(frames2))
	}
	if cr2.SegmentsSkipped() != 4 {
		t.Errorf("tail window skipped %d segments, want 4", cr2.SegmentsSkipped())
	}
	if cr2.Delivered() != 40 {
		t.Errorf("tail window delivered %d records, want 40", cr2.Delivered())
	}
}

// TestChainUnitSeek: ChainOptions.Units delivers only the requested units'
// records, and sealed segments whose index shows none of those units in
// the window are skipped without decoding a record.
func TestChainUnitSeek(t *testing.T) {
	base := filepath.Join(t.TempDir(), "unitseek")
	st, err := OpenCaptureStore(base, StoreOptions{SegmentSpan: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Unit-disjoint phases on one timeline, 10ms spacing: unit 0 owns
	// records 0..99, unit 7 records 100..199. Span rotation cuts 5
	// segments of 40 — 1 and 2 pure unit 0, 3 mixed, 4 and 5 pure unit 7.
	for i := 0; i < 200; i++ {
		f := storeFrame(i, 1, 3)
		if i >= 100 {
			f.Unit = 7
		}
		if err := st.WriteAt(f, time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Segments() != 5 {
		t.Fatalf("segments = %d, want 5", st.Segments())
	}

	cr, frames, stamps := readChain(t, base, ChainOptions{Units: []uint8{7}})
	if len(frames) != 100 {
		t.Fatalf("unit seek replayed %d records, want 100", len(frames))
	}
	for _, f := range frames {
		if f.Unit != 7 {
			t.Fatalf("unit %d leaked through the filter", f.Unit)
		}
	}
	if stamps[0] != 1000*time.Millisecond {
		t.Errorf("first unit-7 record at %v, want 1s", stamps[0])
	}
	// Segments 1 and 2 are skipped via their per-unit index ranges; the
	// mixed segment 3 is scanned, 4 and 5 read through: at most 120 of
	// the chain's 200 records are decoded.
	if cr.SegmentsSkipped() != 2 {
		t.Errorf("segments skipped = %d, want 2", cr.SegmentsSkipped())
	}
	if cr.RecordsRead() > 120 {
		t.Errorf("unit seek decoded %d records of 200 — the index was not used", cr.RecordsRead())
	}
	if cr.Delivered() != 100 {
		t.Errorf("delivered = %d, want 100", cr.Delivered())
	}

	// Units composes with the window: unit 0's last record sits at 990ms,
	// so a window from 1s on leaves nothing — every segment is skipped
	// (1, 2 by the window, 3 by unit range, 4, 5 by unit) and no record
	// is ever decoded.
	cr2, frames2, _ := readChain(t, base, ChainOptions{Units: []uint8{0}, From: 1000 * time.Millisecond})
	if len(frames2) != 0 {
		t.Errorf("out-of-window unit replayed %d records, want 0", len(frames2))
	}
	if cr2.RecordsRead() != 0 {
		t.Errorf("out-of-window unit decoded %d records, want 0", cr2.RecordsRead())
	}
	if cr2.SegmentsSkipped() != 5 {
		t.Errorf("out-of-window unit skipped %d segments, want 5", cr2.SegmentsSkipped())
	}
}

// TestChainSingleFile: OpenCaptureChain accepts a plain single capture
// file — the pre-store format — including its truncated-tail tolerance.
func TestChainSingleFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plain.pcscap")
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cw.WriteAt(storeFrame(i, 2, 3), time.Duration(i)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, frames, _ := readChain(t, path, ChainOptions{}); len(frames) != 10 {
		t.Errorf("single file replayed %d records, want 10", len(frames))
	}
	// Window filtering works without an index (a scan, but correct).
	if _, frames, _ := readChain(t, path, ChainOptions{From: 3 * time.Millisecond, To: 5 * time.Millisecond}); len(frames) != 3 {
		t.Errorf("single-file window replayed %d records, want 3", len(frames))
	}
	// Truncate mid-record: typed warning, prefix replayed.
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-9], 0o644); err != nil {
		t.Fatal(err)
	}
	cr, frames, _ := readChain(t, path, ChainOptions{})
	if len(frames) != 9 {
		t.Errorf("truncated single file replayed %d records, want 9", len(frames))
	}
	if !errors.Is(cr.Truncated(), ErrTruncatedTail) {
		t.Errorf("truncation warning = %v, want ErrTruncatedTail", cr.Truncated())
	}
	// A missing path is a typed not-exist error.
	if _, err := OpenCaptureChain(filepath.Join(dir, "absent"), ChainOptions{}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("absent chain: want fs.ErrNotExist, got %v", err)
	}
}

// TestChainWindowValidation: a backwards window is rejected up front.
func TestChainWindowValidation(t *testing.T) {
	if _, err := OpenCaptureChain("x", ChainOptions{From: 2, To: 1}); !errors.Is(err, ErrBadCapture) {
		t.Errorf("backwards window: want ErrBadCapture, got %v", err)
	}
	if _, err := OpenCaptureChain("x", ChainOptions{From: -1}); !errors.Is(err, ErrBadCapture) {
		t.Errorf("negative From: want ErrBadCapture, got %v", err)
	}
}

// TestSegmentIndexRoundTrip: the sidecar codec is canonical and typed.
func TestSegmentIndexRoundTrip(t *testing.T) {
	ix := &SegmentIndex{
		Frames: 7,
		First:  10 * time.Millisecond,
		Last:   60 * time.Millisecond,
		Units: []UnitRange{
			{Unit: 1, MinSeq: 5, MaxSeq: 9, First: 10 * time.Millisecond, Last: 50 * time.Millisecond, Frames: 4},
			{Unit: 9, MinSeq: 0, MaxSeq: 2, First: 20 * time.Millisecond, Last: 60 * time.Millisecond, Frames: 3},
		},
	}
	data, err := MarshalIndex(ix)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Frames != ix.Frames || back.First != ix.First || back.Last != ix.Last ||
		len(back.Units) != len(ix.Units) {
		t.Fatalf("round trip changed index: %+v vs %+v", back, ix)
	}
	for i := range ix.Units {
		if back.Units[i] != ix.Units[i] {
			t.Errorf("unit entry %d changed: %+v vs %+v", i, back.Units[i], ix.Units[i])
		}
	}

	// Typed failures: short, bad magic, CRC damage, truncation, frame-sum
	// mismatch.
	for name, mutate := range map[string]func([]byte) []byte{
		"short":     func(d []byte) []byte { return d[:8] },
		"magic":     func(d []byte) []byte { d[0] ^= 0xFF; return d },
		"crc":       func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d },
		"truncated": func(d []byte) []byte { return d[:len(d)-5] },
	} {
		bad := mutate(append([]byte(nil), data...))
		if _, err := UnmarshalIndex(bad); !errors.Is(err, ErrBadIndex) {
			t.Errorf("%s: want ErrBadIndex, got %v", name, err)
		}
	}
}

// TestCaptureWriterLengthGuard (write-side mirror of the reader's bound):
// a frame the capture reader would reject must fail at write time, and the
// guard's uint32 overflow edge holds.
func TestCaptureWriterLengthGuard(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	oversized := &Frame{Type: FrameSensor, Values: make([]float64, MaxValues+1)}
	if err := cw.WriteAt(oversized, 0); err == nil {
		t.Fatal("oversized frame accepted at write time")
	}
	_ = cw.Flush()
	if buf.Len() != before {
		t.Error("rejected frame still wrote record bytes")
	}
	// The biggest legal frame passes both writer and reader.
	biggest := &Frame{Type: FrameSensor, Values: make([]float64, MaxValues)}
	if err := cw.WriteAt(biggest, 0); err != nil {
		t.Fatalf("MaxValues frame rejected: %v", err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewCaptureReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); err != nil {
		t.Fatalf("MaxValues record unreadable: %v", err)
	}

	// The guard itself: oversize, zero/negative, and the uint32 wrap edge
	// a future codec change could reintroduce.
	for _, n := range []int{0, -1, EncodedSize(MaxValues) + 1, int(^uint32(0)) + 1} {
		if err := recordFrameLen(n); !errors.Is(err, ErrBadCapture) {
			t.Errorf("recordFrameLen(%d): want ErrBadCapture, got %v", n, err)
		}
	}
	for _, n := range []int{1, EncodedSize(1), EncodedSize(MaxValues)} {
		if err := recordFrameLen(n); err != nil {
			t.Errorf("recordFrameLen(%d): %v", n, err)
		}
	}
}

// TestCaptureReaderTruncationTyped (reader error fidelity): mid-record and
// mid-frame truncation carry the underlying I/O error text and both
// ErrTruncatedTail and ErrBadCapture; structural damage stays plain
// ErrBadCapture, NOT truncated-tail.
func TestCaptureReaderTruncationTyped(t *testing.T) {
	frames := []*Frame{
		{Type: FrameSensor, Seq: 1, Values: []float64{1, 2}},
		{Type: FrameActuator, Seq: 1, Values: []float64{3}},
	}
	data := buildCapture(t, frames)

	for name, cut := range map[string]int{
		"mid-record-header": len(captureMagic) + 5,
		"mid-frame":         len(captureMagic) + captureRecHeader + 3,
	} {
		cr, err := NewCaptureReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = cr.Next()
		if !errors.Is(err, ErrTruncatedTail) || !errors.Is(err, ErrBadCapture) {
			t.Errorf("%s: want ErrTruncatedTail wrapping ErrBadCapture, got %v", name, err)
		}
		if err == nil || !containsIOErr(err) {
			t.Errorf("%s: underlying I/O error dropped from %v", name, err)
		}
	}

	// An implausible length is corruption, not a truncated tail.
	bad := append([]byte(nil), data...)
	bad[len(captureMagic)+8] = 0xFF
	cr, err := NewCaptureReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cr.Next(); errors.Is(err, ErrTruncatedTail) || !errors.Is(err, ErrBadCapture) {
		t.Errorf("bad length: want plain ErrBadCapture, got %v", err)
	}
}

func containsIOErr(err error) bool {
	s := err.Error()
	return bytes.Contains([]byte(s), []byte("EOF"))
}

// TestFrameDedup: redundant-collector copies are suppressed within the
// window; same-identity-different-content frames (a MitM rewriting one
// tap's copy) are NOT; the window slides.
func TestFrameDedup(t *testing.T) {
	d, err := NewFrameDedup(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFrameDedup(0); err == nil {
		t.Error("zero window accepted")
	}
	a := &Frame{Type: FrameSensor, Unit: 1, Seq: 1, Values: []float64{1, 2}}
	if d.Redundant(a) {
		t.Error("first sight reported redundant")
	}
	if !d.Redundant(a.Clone()) {
		t.Error("identical copy not reported redundant")
	}
	forged := a.Clone()
	forged.Values[1] = 99 // same (type, unit, seq), different content
	if d.Redundant(forged) {
		t.Error("content-differing frame suppressed — a forged copy must reach the correlator")
	}
	mate := &Frame{Type: FrameActuator, Unit: 1, Seq: 1, Values: []float64{1, 2}}
	if d.Redundant(mate) {
		t.Error("other-view frame of the same observation suppressed")
	}
	// Slide a's hash out of the 4-frame window...
	for i := 0; i < 4; i++ {
		d.Redundant(&Frame{Type: FrameSensor, Unit: 2, Seq: uint64(10 + i), Values: []float64{0}})
	}
	if d.Redundant(a) {
		t.Error("hash survived past the window")
	}
	if d.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", d.Dropped())
	}
}

// TestCaptureStoreSteadyStateAllocs: the hot record path — rotation checks,
// index accumulation, cadence probe included — allocates nothing per
// frame. (Rotation itself allocates; it is amortized over a whole segment
// and excluded here by a large segment budget.)
func TestCaptureStoreSteadyStateAllocs(t *testing.T) {
	base := filepath.Join(t.TempDir(), "allocs")
	st, err := OpenCaptureStore(base, StoreOptions{SegmentBytes: 1 << 30, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	f := &Frame{Type: FrameSensor, Unit: 1, Values: make([]float64, 53)}
	for i := 0; i < 10; i++ {
		f.Seq++
		if err := st.Record(f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.Seq++
		if err := st.Record(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CaptureStore.Record allocates %.1f/op in steady state, want 0", allocs)
	}
}
