package fieldbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"
)

// Segment index sidecar — the seek structure of the durable capture store.
// Sealing a segment writes `<segment>.pcsidx` next to it; the sidecar's
// existence is the seal. The format is fixed-width and CRC-protected:
//
//	header:  8 bytes magic "PCSIDX1\n"
//	         8 bytes big-endian uint64 — record count of the segment
//	         8 bytes big-endian uint64 — first record timestamp [ns]
//	         8 bytes big-endian uint64 — last record timestamp [ns]
//	         2 bytes big-endian uint16 — unit entry count
//	entry:   1 byte unit id
//	         8+8 bytes big-endian uint64 — min/max sequence number seen
//	         8+8 bytes big-endian uint64 — first/last timestamp [ns]
//	         8 bytes big-endian uint64 — frames of this unit
//	trailer: 4 bytes big-endian uint32 — CRC-32 (IEEE) of everything above
//
// A chain replay uses the per-segment [first, last] timestamp range to skip
// whole segments outside a -from/-to window without reading a single record
// of them, and the per-unit (seq, time) ranges to answer "which segments
// hold unit N's observations around time T" without a scan.

// ErrBadIndex is returned for segment index sidecars that are truncated,
// corrupted, or not indexes at all.
var ErrBadIndex = errors.New("fieldbus: malformed segment index")

var indexMagic = [8]byte{'P', 'C', 'S', 'I', 'D', 'X', '1', '\n'}

const (
	indexHeaderBytes = 8 + 8 + 8 + 8 + 2
	indexEntryBytes  = 1 + 8 + 8 + 8 + 8 + 8
	indexCRCBytes    = 4
)

// UnitRange is one unit's footprint inside a sealed segment: the sequence
// numbers and capture-relative timestamps its frames cover.
type UnitRange struct {
	Unit           uint8
	MinSeq, MaxSeq uint64
	First, Last    time.Duration
	Frames         uint64
}

// SegmentIndex summarizes one sealed segment: its record count, the
// capture-relative time range it covers, and the per-unit (seq, time)
// ranges inside it. Units are sorted by id.
type SegmentIndex struct {
	Frames      uint64
	First, Last time.Duration
	Units       []UnitRange
}

// Covers reports whether the segment's time range intersects the window
// [from, to]; to <= 0 means unbounded above.
func (ix *SegmentIndex) Covers(from, to time.Duration) bool {
	if ix.Frames == 0 {
		return false
	}
	if to > 0 && ix.First > to {
		return false
	}
	return ix.Last >= from
}

// indexEncodedSize returns the sidecar's byte size for n unit entries.
func indexEncodedSize(n int) int {
	return len(indexMagic) + indexHeaderBytes + n*indexEntryBytes + indexCRCBytes
}

// MarshalIndex encodes the index sidecar, CRC trailer included.
func MarshalIndex(ix *SegmentIndex) ([]byte, error) {
	if len(ix.Units) > 256 {
		return nil, fmt.Errorf("fieldbus: index has %d unit entries: %w", len(ix.Units), ErrBadIndex)
	}
	if !sort.SliceIsSorted(ix.Units, func(i, j int) bool { return ix.Units[i].Unit < ix.Units[j].Unit }) {
		return nil, fmt.Errorf("fieldbus: index units not sorted: %w", ErrBadIndex)
	}
	buf := make([]byte, indexEncodedSize(len(ix.Units)))
	copy(buf, indexMagic[:])
	off := len(indexMagic)
	binary.BigEndian.PutUint64(buf[off:], ix.Frames)
	binary.BigEndian.PutUint64(buf[off+8:], uint64(ix.First))
	binary.BigEndian.PutUint64(buf[off+16:], uint64(ix.Last))
	binary.BigEndian.PutUint16(buf[off+24:], uint16(len(ix.Units)))
	off += indexHeaderBytes
	for _, u := range ix.Units {
		buf[off] = u.Unit
		binary.BigEndian.PutUint64(buf[off+1:], u.MinSeq)
		binary.BigEndian.PutUint64(buf[off+9:], u.MaxSeq)
		binary.BigEndian.PutUint64(buf[off+17:], uint64(u.First))
		binary.BigEndian.PutUint64(buf[off+25:], uint64(u.Last))
		binary.BigEndian.PutUint64(buf[off+33:], u.Frames)
		off += indexEntryBytes
	}
	binary.BigEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf, nil
}

// UnmarshalIndex decodes an index sidecar, verifying magic, structure and
// CRC. Malformed input yields ErrBadIndex, never a panic (FuzzSegmentIndex).
func UnmarshalIndex(data []byte) (*SegmentIndex, error) {
	if len(data) < indexEncodedSize(0) {
		return nil, fmt.Errorf("fieldbus: index has %d bytes: %w", len(data), ErrBadIndex)
	}
	if [8]byte(data[:8]) != indexMagic {
		return nil, fmt.Errorf("fieldbus: index magic %q: %w", data[:8], ErrBadIndex)
	}
	off := len(indexMagic)
	ix := &SegmentIndex{
		Frames: binary.BigEndian.Uint64(data[off:]),
		First:  time.Duration(binary.BigEndian.Uint64(data[off+8:])),
		Last:   time.Duration(binary.BigEndian.Uint64(data[off+16:])),
	}
	n := int(binary.BigEndian.Uint16(data[off+24:]))
	want := indexEncodedSize(n)
	if n > 256 || len(data) != want {
		return nil, fmt.Errorf("fieldbus: index with %d units needs %d bytes, has %d: %w",
			n, want, len(data), ErrBadIndex)
	}
	body := data[:want-indexCRCBytes]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[want-indexCRCBytes:]) {
		return nil, fmt.Errorf("fieldbus: index CRC mismatch: %w", ErrBadIndex)
	}
	if ix.First < 0 || ix.Last < ix.First {
		return nil, fmt.Errorf("fieldbus: index time range [%v, %v]: %w", ix.First, ix.Last, ErrBadIndex)
	}
	off += indexHeaderBytes
	var unitFrames uint64
	for i := 0; i < n; i++ {
		u := UnitRange{
			Unit:   body[off],
			MinSeq: binary.BigEndian.Uint64(body[off+1:]),
			MaxSeq: binary.BigEndian.Uint64(body[off+9:]),
			First:  time.Duration(binary.BigEndian.Uint64(body[off+17:])),
			Last:   time.Duration(binary.BigEndian.Uint64(body[off+25:])),
			Frames: binary.BigEndian.Uint64(body[off+33:]),
		}
		switch {
		case i > 0 && u.Unit <= ix.Units[i-1].Unit:
			return nil, fmt.Errorf("fieldbus: index units out of order: %w", ErrBadIndex)
		case u.MaxSeq < u.MinSeq || u.Last < u.First || u.First < ix.First || u.Last > ix.Last:
			return nil, fmt.Errorf("fieldbus: index unit %d ranges inconsistent: %w", u.Unit, ErrBadIndex)
		case u.Frames == 0 || u.Frames > ix.Frames:
			return nil, fmt.Errorf("fieldbus: index unit %d frame count %d: %w", u.Unit, u.Frames, ErrBadIndex)
		}
		unitFrames += u.Frames
		ix.Units = append(ix.Units, u)
		off += indexEntryBytes
	}
	if unitFrames != ix.Frames {
		return nil, fmt.Errorf("fieldbus: index unit frames sum %d, segment has %d: %w",
			unitFrames, ix.Frames, ErrBadIndex)
	}
	return ix, nil
}

// indexBuilder accumulates per-unit ranges while a segment is being
// written — a fixed array so the hot record path never allocates.
type indexBuilder struct {
	frames      uint64
	first, last time.Duration
	units       [256]UnitRange
	seen        [256]bool
	nUnits      int
}

func (b *indexBuilder) reset() {
	b.frames, b.nUnits = 0, 0
	b.first, b.last = 0, 0
	for i := range b.seen {
		b.seen[i] = false
	}
}

func (b *indexBuilder) add(unit uint8, seq uint64, at time.Duration) {
	if b.frames == 0 {
		b.first = at
	}
	b.last = at
	b.frames++
	u := &b.units[unit]
	if !b.seen[unit] {
		b.seen[unit] = true
		b.nUnits++
		*u = UnitRange{Unit: unit, MinSeq: seq, MaxSeq: seq, First: at, Last: at, Frames: 1}
		return
	}
	if seq < u.MinSeq {
		u.MinSeq = seq
	}
	if seq > u.MaxSeq {
		u.MaxSeq = seq
	}
	u.Last = at
	u.Frames++
}

// build snapshots the accumulated ranges into a SegmentIndex.
func (b *indexBuilder) build() *SegmentIndex {
	ix := &SegmentIndex{Frames: b.frames, First: b.first, Last: b.last}
	if b.nUnits > 0 {
		ix.Units = make([]UnitRange, 0, b.nUnits)
		for id := 0; id < len(b.units); id++ {
			if b.seen[id] {
				ix.Units = append(ix.Units, b.units[id])
			}
		}
	}
	return ix
}
