package fieldbus

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"
)

// ChainOptions parameterize a chain replay.
type ChainOptions struct {
	// From and To bound the capture-relative time window replayed: records
	// stamped before From are skipped, and reading stops at the first
	// record past To (To <= 0 = unbounded). Sealed segments wholly outside
	// the window are skipped via their index without reading a record.
	From, To time.Duration
	// Units restricts the replay to these units' frames (nil = every
	// unit). Sealed segments whose index shows none of the units inside
	// the window are skipped without reading a record — the per-unit
	// (seq, time) ranges of the sidecar answer that without a scan.
	Units []uint8
}

func (o ChainOptions) validate() error {
	if o.From < 0 || (o.To > 0 && o.To < o.From) {
		return fmt.Errorf("fieldbus: chain window [%v, %v]: %w", o.From, o.To, ErrBadCapture)
	}
	return nil
}

// chainSegment is one file of the chain being replayed.
type chainSegment struct {
	path string
	ix   *SegmentIndex // nil: unsealed (no sidecar) — must be scanned
}

// ChainReader replays a capture chain — the rotated segment files of a
// CaptureStore, or a single plain capture file — as one stream, in the
// same Next contract as CaptureReader. Two behaviors distinguish it from
// looping NewCaptureReader by hand:
//
//   - Window seek: with ChainOptions.From/To set, sealed segments whose
//     index shows no overlap are skipped without reading a single record
//     (RecordsRead counts what was actually decoded).
//   - Truncated-tail tolerance: a chain whose *final* segment is unsealed
//     (no index sidecar — the recorder is gone mid-run) may end mid-record;
//     the damage is reported through Truncated() after Next returns io.EOF
//     instead of failing the replay. The same damage anywhere else in the
//     chain is real corruption and fails with the typed error.
type ChainReader struct {
	segs []chainSegment
	opts ChainOptions

	cur       int // index into segs of the open segment; len(segs) = done
	cr        *CaptureReader
	f         *os.File
	last      time.Duration // newest timestamp delivered or indexed
	records   uint64        // records decoded (the full-scan detector)
	delivered uint64        // records returned to the caller (in-window)
	first     time.Duration // stamp of the first record delivered
	end       time.Duration // stamp of the newest record delivered
	skipped   int           // segments never opened thanks to their index
	trunc     error         // typed truncated-tail warning, set at EOF

	filtered bool // Units filter active
	unitSet  [256]bool
}

// OpenCaptureChain opens a capture chain for replay. base may be either a
// chain base path (segments at `<base>.NNNNN.pcscap`) or the path of a
// single capture file, which replays as a one-segment unsealed chain — the
// CLI accepts both spellings with no flag.
func OpenCaptureChain(base string, opts ChainOptions) (*ChainReader, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var paths []string
	if fi, err := os.Stat(base); err == nil && fi.Mode().IsRegular() {
		paths = []string{base}
	} else {
		found, err := findSegments(base)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("fieldbus: open capture chain: %w", err)
		}
		if len(found) == 0 {
			return nil, fmt.Errorf("fieldbus: %s: no capture file or segment chain: %w", base, fs.ErrNotExist)
		}
		paths = found
	}
	cr := &ChainReader{opts: opts}
	for _, u := range opts.Units {
		cr.filtered = true
		cr.unitSet[u] = true
	}
	for _, p := range paths {
		seg := chainSegment{path: p}
		data, err := os.ReadFile(indexPath(p))
		switch {
		case err == nil:
			ix, err := UnmarshalIndex(data)
			if err != nil {
				return nil, fmt.Errorf("fieldbus: %s: %w", indexPath(p), err)
			}
			seg.ix = ix
		case !errors.Is(err, fs.ErrNotExist):
			return nil, fmt.Errorf("fieldbus: read segment index: %w", err)
		}
		// A single plain capture file has no sidecar by construction; only
		// chains distinguish sealed from unsealed.
		cr.segs = append(cr.segs, seg)
	}
	return cr, nil
}

// Next returns the next in-window record's timestamp and frame, advancing
// across segment boundaries transparently. The frame is the open segment
// reader's scratch — Clone what must outlive the call. io.EOF means the
// chain (or the window) is exhausted; check Truncated afterwards.
func (c *ChainReader) Next() (time.Duration, *Frame, error) {
	for {
		if c.cr == nil {
			//pcslint:ignore hotpath -- opens a segment file once per segment; the per-record read below stays allocation-free
			if err := c.openNext(); err != nil {
				return 0, nil, err
			}
		}
		ts, f, err := c.cr.Next()
		if err == io.EOF {
			c.closeSegment()
			continue
		}
		if err != nil {
			if errors.Is(err, ErrTruncatedTail) && c.segs[c.cur].ix == nil && c.cur == len(c.segs)-1 {
				// The unsealed tail of a crashed recording: the readable
				// prefix is the recording. Surface the damage as a warning,
				// not a refusal.
				c.trunc = err
				c.closeSegment()
				continue
			}
			return 0, nil, fmt.Errorf("%s: %w", c.segs[c.cur].path, err)
		}
		if ts < c.last {
			return 0, nil, fmt.Errorf("fieldbus: %s: timestamp %v moved backwards across chain (after %v): %w",
				c.segs[c.cur].path, ts, c.last, ErrBadCapture)
		}
		c.last = ts
		c.records++
		if ts < c.opts.From {
			continue
		}
		if c.opts.To > 0 && ts > c.opts.To {
			// The chain timeline is nondecreasing: nothing later can be in
			// the window. Stop reading entirely.
			c.skipped += len(c.segs) - c.cur - 1
			c.closeSegment()
			c.cur = len(c.segs)
			return 0, nil, io.EOF
		}
		if c.filtered && !c.unitSet[f.Unit] {
			continue
		}
		if c.delivered == 0 {
			c.first = ts
		}
		c.delivered++
		c.end = ts
		return ts, f, nil
	}
}

// openNext opens the next segment that can hold in-window records,
// skipping sealed segments whose index proves they cannot. Returns io.EOF
// when the chain is exhausted.
func (c *ChainReader) openNext() error {
	for c.cur < len(c.segs) {
		seg := c.segs[c.cur]
		if seg.ix != nil {
			// Index timestamps also guard chain-wide monotonicity for
			// segments we skip without reading.
			if seg.ix.Frames > 0 && seg.ix.First < c.last {
				return fmt.Errorf("fieldbus: %s: segment starts at %v, chain already at %v: %w",
					seg.path, seg.ix.First, c.last, ErrBadCapture)
			}
			if !seg.ix.Covers(c.opts.From, c.opts.To) {
				if c.opts.To > 0 && seg.ix.First > c.opts.To {
					// Everything later is later still.
					c.skipped += len(c.segs) - c.cur
					c.cur = len(c.segs)
					return io.EOF
				}
				if seg.ix.Frames > 0 {
					c.last = seg.ix.Last
				}
				c.skipped++
				c.cur++
				continue
			}
			if c.filtered && !c.indexHasUnit(seg.ix) {
				// The sidecar proves none of the requested units have a
				// frame inside the window here — skip unopened.
				if seg.ix.Frames > 0 {
					c.last = seg.ix.Last
				}
				c.skipped++
				c.cur++
				continue
			}
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("fieldbus: open segment: %w", err)
		}
		cr, err := NewCaptureReader(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("%s: %w", seg.path, err)
		}
		c.f, c.cr = f, cr
		return nil
	}
	return io.EOF
}

// indexHasUnit reports whether any requested unit has frames inside the
// replay window according to the segment's per-unit time ranges.
func (c *ChainReader) indexHasUnit(ix *SegmentIndex) bool {
	for _, u := range ix.Units {
		if !c.unitSet[u.Unit] {
			continue
		}
		if u.Last >= c.opts.From && (c.opts.To <= 0 || u.First <= c.opts.To) {
			return true
		}
	}
	return false
}

// closeSegment closes the open segment and steps to the next.
func (c *ChainReader) closeSegment() {
	if c.f != nil {
		_ = c.f.Close()
	}
	c.f, c.cr = nil, nil
	c.cur++
}

// Close releases the open segment file, if any. The reader is done.
func (c *ChainReader) Close() error {
	if c.f != nil {
		err := c.f.Close()
		c.f, c.cr = nil, nil
		c.cur = len(c.segs)
		return err
	}
	return nil
}

// Truncated returns the typed truncated-tail warning when the chain's
// unsealed final segment ended mid-record (a recorder killed mid-run), nil
// for a cleanly ended chain. Meaningful once Next has returned io.EOF.
func (c *ChainReader) Truncated() error { return c.trunc }

// RecordsRead returns the number of records actually decoded — window
// seeks that skip segments via the index leave this well below the chain's
// total record count, which is exactly what the seek tests assert.
func (c *ChainReader) RecordsRead() uint64 { return c.records }

// Delivered returns the number of records returned to the caller. It
// trails RecordsRead when a window skips records decoded while scanning a
// partially-overlapping segment up to From.
func (c *ChainReader) Delivered() uint64 { return c.delivered }

// Span returns the capture time between the first and the newest
// record delivered.
func (c *ChainReader) Span() time.Duration { return c.end - c.first }

// Segments returns the total number of segments in the chain.
func (c *ChainReader) Segments() int { return len(c.segs) }

// SegmentsSkipped returns how many segments were skipped without opening,
// thanks to their index.
func (c *ChainReader) SegmentsSkipped() int { return c.skipped }
