package fieldbus

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
)

// FrameDedup suppresses content-identical frames arriving more than once —
// the redundant-collector case: two taps on the same view of the same wire
// both forward every frame, and without dedup the second copy of each is
// counted as a Duplicate by the pairing layer, polluting the loss/dup
// statistics of a perfectly healthy feed.
//
// Deduplication is by content hash (hash/maphash over type, unit, sequence
// number and the raw IEEE-754 value bits) over a sliding window of the
// last N ingested frames, so two taps may race arbitrarily within the
// window while a *genuine* retransmission — same (unit, seq, type) but
// different values, e.g. a MitM rewriting one copy — still reaches the
// correlator, where the cross-view analysis can see it. A 64-bit hash over
// a bounded window makes accidental collisions vanishingly rare
// (~N·2^-64); a colliding frame would be dropped as redundant. The hash
// seed is random per deduper, so an on-path attacker cannot work out in
// advance a forged frame that collides with a genuine one and gets the
// genuine copy dropped.
//
// Not safe for concurrent use — callers serialize (the pairing ingest
// holds its own lock).
type FrameDedup struct {
	seed    maphash.Seed
	scratch []byte         // the hashed bytes of the frame being checked
	ring    []uint64       // insertion order of the last len(ring) hashes
	seen    map[uint64]int // hash -> occurrences currently in the ring
	n       int            // frames ingested (ring cursor = n % len(ring))
	dropped uint64
}

// NewFrameDedup builds a deduper remembering the last window frames.
func NewFrameDedup(window int) (*FrameDedup, error) {
	if window <= 0 {
		return nil, fmt.Errorf("fieldbus: dedup window %d: %w", window, ErrBadFrame)
	}
	return &FrameDedup{
		seed:    maphash.MakeSeed(),
		scratch: make([]byte, 0, EncodedSize(64)),
		ring:    make([]uint64, window),
		seen:    make(map[uint64]int, window),
	}, nil
}

// hash folds the frame's identity and content into one 64-bit hash.
func (d *FrameDedup) hash(f *Frame) uint64 {
	b := append(d.scratch[:0], byte(f.Type), f.Unit)
	b = binary.LittleEndian.AppendUint64(b, f.Seq)
	for _, v := range f.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	d.scratch = b
	return maphash.Bytes(d.seed, b)
}

// Redundant reports whether f's content hash was seen within the window,
// counting and recording it either way. A redundant frame does not refresh
// its hash's position in the window — a tap replaying one frame forever
// ages out like any other traffic.
func (d *FrameDedup) Redundant(f *Frame) bool {
	h := d.hash(f)
	dup := d.seen[h] > 0
	if dup {
		d.dropped++
	}
	// Slide the window: the oldest hash leaves, h enters.
	cur := d.n % len(d.ring)
	if d.n >= len(d.ring) {
		old := d.ring[cur]
		if c := d.seen[old]; c <= 1 {
			delete(d.seen, old)
		} else {
			d.seen[old] = c - 1
		}
	}
	d.ring[cur] = h
	d.seen[h]++
	d.n++
	return dup
}

// Dropped returns the number of frames reported redundant so far.
func (d *FrameDedup) Dropped() uint64 { return d.dropped }
