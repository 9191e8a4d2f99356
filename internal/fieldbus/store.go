package fieldbus

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Durable capture store — the fleet's flight recorder. A CaptureStore
// writes one logical capture as a chain of segment files
//
//	<base>.00001.pcscap, <base>.00002.pcscap, ...
//
// each a self-contained capture in the CaptureWriter format, sharing one
// global capture-relative timeline (segment N+1's first timestamp continues
// where segment N stopped, so concatenating the chain's records reproduces
// the single-file capture bit for bit). The active segment rotates when it
// exceeds a size or time budget; rotation *seals* the finished segment by
// writing its index sidecar `<segment>.pcsidx` (see index.go) and syncing
// both to disk. Retention limits — by segment count, total bytes, or
// capture-time age — prune the oldest sealed segments so a recorder can run
// forever in bounded space.
//
// Crash safety is the design driver: the active segment is flushed on a
// cadence, so a SIGKILL loses at most the records buffered since the last
// flush; everything sealed is immutable and indexed. A chain whose final
// segment has no sidecar is recognized by the reader as unsealed and its
// truncated tail (if any) surfaces as a typed warning, not ErrBadCapture.

// ErrStoreExists is returned when opening a capture store over a base path
// that already has segment files — a recorder never silently clobbers or
// splices into an existing chain.
var ErrStoreExists = errors.New("fieldbus: capture chain already exists")

const (
	segmentExt = ".pcscap"
	indexExt   = ".pcsidx"
	// segmentPad is the zero-padded width of segment numbers in file names.
	segmentPad = 5
	// defaultSegmentBytes rotates the active segment at 64 MiB.
	defaultSegmentBytes = 64 << 20
	// defaultStoreFlush is the crash-safety flush cadence.
	defaultStoreFlush = time.Second
)

// segmentPath returns the path of segment n of a chain.
func segmentPath(base string, n int) string {
	return fmt.Sprintf("%s.%0*d%s", base, segmentPad, n, segmentExt)
}

// indexPath returns the sidecar path of a segment file.
func indexPath(segPath string) string {
	return strings.TrimSuffix(segPath, segmentExt) + indexExt
}

// parseSegmentPath extracts the segment number from a chain file name,
// reporting whether the name belongs to the chain at base.
func parseSegmentPath(base, path string) (int, bool) {
	rest, ok := strings.CutPrefix(filepath.Base(path), filepath.Base(base)+".")
	if !ok {
		return 0, false
	}
	numStr, ok := strings.CutSuffix(rest, segmentExt)
	if !ok || len(numStr) != segmentPad {
		return 0, false
	}
	n, err := strconv.Atoi(numStr)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// findSegments lists a chain's segment files in segment order.
func findSegments(base string) ([]string, error) {
	dir := filepath.Dir(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type seg struct {
		n    int
		path string
	}
	var segs []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSegmentPath(base, e.Name()); ok {
			segs = append(segs, seg{n, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.path
	}
	return paths, nil
}

// StoreOptions parameterize a CaptureStore. The zero value records 64 MiB
// segments with a 1 s flush cadence and unlimited retention.
type StoreOptions struct {
	// SegmentBytes rotates the active segment when appending the next
	// record would push it past this many bytes (0 = 64 MiB).
	SegmentBytes int64
	// SegmentSpan rotates the active segment when it covers this much
	// capture time (0 = no time-based rotation).
	SegmentSpan time.Duration
	// KeepSegments bounds the chain to this many segments, active
	// included; older sealed segments are deleted (0 = unlimited).
	KeepSegments int
	// KeepBytes bounds the chain's total size in bytes, sidecars and the
	// active segment included (0 = unlimited). The newest segments always
	// survive: pruning stops once only the active segment remains.
	KeepBytes int64
	// KeepAge prunes sealed segments whose newest record is more than this
	// much *capture time* behind the newest record written — "keep the
	// last N hours of plant time", robust to any replay speed (0 =
	// unlimited).
	KeepAge time.Duration
	// FlushEvery is the crash-safety cadence: a record arriving this long
	// after the last flush pushes the buffered tail to the OS first
	// (0 = 1 s, < 0 = flush only on rotation and Close). Callers with
	// their own timer can also call Flush directly; idle streams only
	// flush when prodded, so a periodic Flush from the recording loop
	// keeps the tail bounded during traffic lulls too.
	FlushEvery time.Duration
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = defaultStoreFlush
	}
	return o
}

func (o StoreOptions) validate() error {
	switch {
	case o.SegmentBytes < 0:
		return fmt.Errorf("fieldbus: store segment bytes %d: %w", o.SegmentBytes, ErrBadCapture)
	case o.SegmentSpan < 0:
		return fmt.Errorf("fieldbus: store segment span %v: %w", o.SegmentSpan, ErrBadCapture)
	case o.KeepSegments < 0:
		return fmt.Errorf("fieldbus: store keep segments %d: %w", o.KeepSegments, ErrBadCapture)
	case o.KeepBytes < 0:
		return fmt.Errorf("fieldbus: store keep bytes %d: %w", o.KeepBytes, ErrBadCapture)
	case o.KeepAge < 0:
		return fmt.Errorf("fieldbus: store keep age %v: %w", o.KeepAge, ErrBadCapture)
	}
	return nil
}

// SegmentInfo describes one sealed segment still on disk.
type SegmentInfo struct {
	Path  string
	Bytes int64
	// Frames and the time range come from the segment's index.
	Frames      uint64
	First, Last time.Duration
}

// StoreStats is a point-in-time snapshot of a store's accounting.
type StoreStats struct {
	// Frames and Span cover the whole recording, pruned segments included.
	Frames uint64
	Span   time.Duration
	// Segments is the number of segment files currently on disk (active
	// included); Bytes their total size including sidecars.
	Segments int
	Bytes    int64
	// Rotations counts sealed segments; Pruned counts segments deleted by
	// retention; PrunedFrames the records that went with them.
	Rotations    uint64
	Pruned       uint64
	PrunedFrames uint64
	// Flushes counts cadence/explicit flushes of the active segment.
	Flushes uint64
}

// CaptureStore records frames into a rotated, retention-bounded segment
// chain. Not safe for concurrent use — like CaptureWriter, one recorder
// per tap point; callers serialize.
type CaptureStore struct {
	base string
	opts StoreOptions

	// Active segment.
	f        *os.File
	cw       *CaptureWriter
	ix       indexBuilder
	segNum   int
	segBytes int64 // bytes written to the active segment, header included

	sealed []SegmentInfo

	started   bool
	start     time.Time
	last      time.Duration
	frames    uint64
	lastFlush time.Time
	stats     StoreStats
}

// OpenCaptureStore creates the chain's first segment and returns the
// store. The base path is extended to `<base>.00001.pcscap`; a chain that
// already exists at base is refused with ErrStoreExists (a flight recorder
// must never splice a fresh timeline into an old chain — replay the old
// chain or choose a new base).
func OpenCaptureStore(base string, opts StoreOptions) (*CaptureStore, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if base == "" {
		return nil, fmt.Errorf("fieldbus: empty store base path: %w", ErrBadCapture)
	}
	existing, err := findSegments(base)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("fieldbus: open capture store: %w", err)
	}
	if len(existing) > 0 {
		return nil, fmt.Errorf("fieldbus: %s has %d segments: %w", base, len(existing), ErrStoreExists)
	}
	st := &CaptureStore{base: base, opts: opts.withDefaults(), lastFlush: time.Now()}
	if err := st.openSegment(1); err != nil {
		st.removeAll()
		return nil, err
	}
	return st, nil
}

// openSegment creates segment n and makes it the active one. The capture
// header is flushed through immediately so even a recorder killed before
// its first cadence leaves a well-formed (empty) segment.
func (st *CaptureStore) openSegment(n int) error {
	path := segmentPath(st.base, n)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("fieldbus: open segment: %w", err)
	}
	cw, err := NewCaptureWriter(f)
	if err == nil {
		err = cw.Flush()
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	st.f, st.cw, st.segNum = f, cw, n
	st.segBytes = int64(len(captureMagic))
	st.ix.reset()
	return nil
}

// WriteAt appends one frame at the given capture-relative timestamp (see
// CaptureWriter.WriteAt for the clamping contract), rotating, sealing and
// pruning as budgets dictate.
//
//pcslint:hotpath
func (st *CaptureStore) WriteAt(f *Frame, at time.Duration) error {
	if st.cw == nil {
		return fmt.Errorf("fieldbus: capture store closed: %w", ErrBadCapture)
	}
	if at < st.last {
		at = st.last // the chain's global nondecreasing timeline
	}
	wire := EncodedSize(len(f.Values))
	if err := recordFrameLen(wire); err != nil {
		return err
	}
	rec := int64(captureRecHeader + wire)
	//pcslint:ignore hotpath -- rotation seals at most once per segment (size/age gated); the per-frame append path stays allocation-free
	if err := st.maybeRotate(rec, at); err != nil {
		return err
	}
	if err := st.cw.WriteAt(f, at); err != nil {
		return err
	}
	st.ix.add(f.Unit, f.Seq, at)
	st.segBytes += rec
	st.last = at
	st.frames++
	if st.opts.FlushEvery > 0 && time.Since(st.lastFlush) >= st.opts.FlushEvery {
		if err := st.flushActive(); err != nil {
			return err
		}
	}
	return nil
}

// Record appends one frame stamped with the monotonic time elapsed since
// the first Record call — the live recording entry point.
func (st *CaptureStore) Record(f *Frame) error {
	if !st.started {
		st.start = time.Now()
		st.started = true
	}
	return st.WriteAt(f, time.Since(st.start))
}

// maybeRotate seals the active segment first when appending rec more bytes
// (at timestamp at) would burst a budget. A segment always takes at least
// one record, however large, so an oversized budget cannot wedge the store.
func (st *CaptureStore) maybeRotate(rec int64, at time.Duration) error {
	if st.ix.frames == 0 {
		return nil
	}
	if st.segBytes+rec <= st.opts.SegmentBytes &&
		(st.opts.SegmentSpan <= 0 || at-st.ix.first < st.opts.SegmentSpan) {
		return nil
	}
	return st.rotate()
}

// rotate seals the active segment — flush, sidecar, sync, close — opens
// the next one, and applies retention.
func (st *CaptureStore) rotate() error {
	if err := st.seal(); err != nil {
		return err
	}
	if err := st.openSegment(st.segNum + 1); err != nil {
		return err
	}
	return st.prune()
}

// seal finishes the active segment: flush it, write its index sidecar (via
// a temp file + rename, so a sidecar is only ever observed whole), and
// record it as sealed.
func (st *CaptureStore) seal() error {
	if err := st.cw.Flush(); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("fieldbus: sync segment: %w", err)
	}
	if err := st.f.Close(); err != nil {
		return fmt.Errorf("fieldbus: close segment: %w", err)
	}
	ix := st.ix.build()
	data, err := MarshalIndex(ix)
	if err != nil {
		return err
	}
	segPath := segmentPath(st.base, st.segNum)
	idxPath := indexPath(segPath)
	tmp := idxPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("fieldbus: write segment index: %w", err)
	}
	if err := os.Rename(tmp, idxPath); err != nil {
		return fmt.Errorf("fieldbus: write segment index: %w", err)
	}
	st.sealed = append(st.sealed, SegmentInfo{
		Path:  segPath,
		Bytes: st.segBytes + int64(len(data)),
		// An empty sealed segment (Close right after rotation) has a zero
		// time range; Frames 0 marks it for readers.
		Frames: ix.Frames,
		First:  ix.First,
		Last:   ix.Last,
	})
	st.stats.Rotations++
	st.f, st.cw = nil, nil
	return nil
}

// prune applies the retention limits, deleting the oldest sealed segments
// (and their sidecars) first. The active segment is never pruned.
func (st *CaptureStore) prune() error {
	drop := 0
	remaining := len(st.sealed)
	bytes := st.segBytes
	for _, s := range st.sealed {
		bytes += s.Bytes
	}
	for drop < len(st.sealed) {
		s := st.sealed[drop]
		over := false
		if st.opts.KeepSegments > 0 && remaining+1 > st.opts.KeepSegments {
			over = true
		}
		if st.opts.KeepBytes > 0 && bytes > st.opts.KeepBytes {
			over = true
		}
		if st.opts.KeepAge > 0 && s.Frames > 0 && st.last-s.Last > st.opts.KeepAge {
			over = true
		}
		if !over {
			break
		}
		if err := os.Remove(s.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("fieldbus: prune segment: %w", err)
		}
		if err := os.Remove(indexPath(s.Path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("fieldbus: prune segment index: %w", err)
		}
		st.stats.Pruned++
		st.stats.PrunedFrames += s.Frames
		bytes -= s.Bytes
		remaining--
		drop++
	}
	if drop > 0 {
		st.sealed = append(st.sealed[:0], st.sealed[drop:]...)
	}
	return nil
}

// flushActive pushes the active segment's buffered tail to the OS.
func (st *CaptureStore) flushActive() error {
	if err := st.cw.Flush(); err != nil {
		return err
	}
	st.lastFlush = time.Now()
	st.stats.Flushes++
	return nil
}

// Flush pushes the buffered tail of the active segment to the OS — the
// crash-safety cadence entry point for callers running their own timer.
func (st *CaptureStore) Flush() error {
	if st.cw == nil {
		return nil
	}
	return st.flushActive()
}

// Close seals the active segment and ends the recording. The store cannot
// be reused.
func (st *CaptureStore) Close() error {
	if st.cw == nil {
		return nil
	}
	return st.seal()
}

// removeAll deletes every file the store has created — the abandon path
// for callers whose startup fails after the store opened.
func (st *CaptureStore) removeAll() {
	if st.f != nil {
		_ = st.f.Close()
		st.f, st.cw = nil, nil
	}
	for _, s := range st.sealed {
		_ = os.Remove(s.Path)
		_ = os.Remove(indexPath(s.Path))
	}
	_ = os.Remove(segmentPath(st.base, st.segNum))
}

// Abandon discards the recording entirely, deleting every segment created
// so far — for startup failures where a half-made chain would only
// mislead. A closed store is left alone.
func (st *CaptureStore) Abandon() {
	if st.cw == nil {
		return
	}
	st.removeAll()
}

// Segments returns the number of segment files currently on disk, active
// included.
func (st *CaptureStore) Segments() int {
	if st.cw == nil {
		return len(st.sealed)
	}
	return len(st.sealed) + 1
}

// Stats snapshots the store's accounting.
func (st *CaptureStore) Stats() StoreStats {
	s := st.stats
	s.Frames = st.frames
	s.Span = st.last
	s.Segments = st.Segments()
	s.Bytes = 0
	for _, seg := range st.sealed {
		s.Bytes += seg.Bytes
	}
	if st.cw != nil {
		s.Bytes += st.segBytes
	}
	return s
}
