// Package pairing correlates live fieldbus frames into the paired two-view
// observations the paper's diagnosis needs. The monitor's central claim is
// that *disagreement between the controller view and the process view* is
// what separates intrusions from disturbances — so a live feed is only as
// good as its pairing: a sensor frame (the controller-view row, captured at
// the controller end of the wire) and an actuator frame (the process-view
// row, captured at the plant end) of the same (Unit, Seq) must be joined
// into one observation before the two-view analysis can run.
//
// A Correlator performs that join under real-network conditions: frames
// arrive out of order, duplicated, interleaved across units, late, or not
// at all. Per unit it keeps a bounded reorder window (configurable depth
// and age horizon) of pending sequence slots and emits outcomes strictly in
// sequence order:
//
//   - Paired: both views arrived — the full cross-view observation.
//   - OrphanSensor / OrphanActuator: one view's frame never showed up
//     inside the window. The missing row is synthesized by hold-last-value
//     from the unit's most recent delivery of that view, which is exactly
//     the signature the core analyzer's frozen/diverged channel machinery
//     classifies as a DoS — frame loss itself becomes evidence instead of
//     silently downgraded monitoring. Before the first delivery of the
//     missing view the present row is mirrored (plain single-view feed).
//   - GapDetected: a sequence range skipped entirely (neither frame).
//   - Duplicate / Stale: redundant or beyond-horizon frames, dropped with
//     accounting.
//   - ViewStalled: one view has produced only hold-last orphans for
//     StallAfter consecutive observations — the systematic one-view
//     blackout of the paper's DoS scenario, surfaced as a typed event.
//
// Offer is O(1) amortized per frame and allocation-free: slot row buffers
// come from a free list and are recycled through the hold-last state by
// pointer swap, never by copy-and-allocate. Tick, which a replay calls
// after every frame, is O(1) until the age horizon reaches the oldest
// pending slot; that Tick walks each unit's window at most once,
// O(units · Window).
//
// A Correlator is safe for concurrent use; the sink is invoked under the
// correlator's lock, so outcomes of one unit are delivered in order.
package pairing

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pcsmon/internal/fieldbus"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid correlator parameters.
	ErrBadConfig = errors.New("pairing: invalid configuration")
	// ErrBadFrame is returned for frames the correlator cannot ingest.
	ErrBadFrame = errors.New("pairing: invalid frame")
	// ErrClosed is returned when offering to a closed correlator.
	ErrClosed = errors.New("pairing: correlator closed")
)

// Outcome classifies what the correlator concluded about one sequence slot
// (or, for Duplicate/Stale/ViewStalled, about one frame or view).
type Outcome uint8

// Outcomes.
const (
	// Paired: both views arrived; Ctrl and Proc are the genuine rows.
	Paired Outcome = iota + 1
	// OrphanSensor: the sensor (controller-view) frame arrived but its
	// actuator mate did not; Proc is synthesized.
	OrphanSensor
	// OrphanActuator: the actuator (process-view) frame arrived but its
	// sensor mate did not; Ctrl is synthesized.
	OrphanActuator
	// GapDetected: Span consecutive sequence numbers from Seq on were
	// skipped entirely — nothing to score, evidence of total frame loss.
	GapDetected
	// Duplicate: a frame for an already-filled slot half; dropped.
	Duplicate
	// Stale: a frame below the emission horizon (too late, or replayed);
	// dropped.
	Stale
	// Outlier: a frame whose sequence number jumped implausibly far from
	// the horizon (more than jumpFactor windows, in either direction);
	// quarantined so a single corrupted or forged frame cannot blind the
	// unit. epochFrames consecutive outliers in one window-sized region
	// are adopted as a genuine new sequence epoch instead.
	Outlier
	// EpochReset: the unit's sequence numbering restarted below the old
	// horizon (a collector restart) and the window re-anchored at
	// Event.Seq. Subsequent observations of the unit carry sequence
	// numbers from the new epoch.
	EpochReset
	// ViewStalled: the view named in Event.View has produced only
	// hold-last orphans for StallAfter consecutive observations.
	ViewStalled
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Paired:
		return "paired"
	case OrphanSensor:
		return "orphan-sensor"
	case OrphanActuator:
		return "orphan-actuator"
	case GapDetected:
		return "gap"
	case Duplicate:
		return "duplicate"
	case Stale:
		return "stale"
	case Outlier:
		return "seq-outlier"
	case EpochReset:
		return "epoch-reset"
	case ViewStalled:
		return "view-stalled"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Event is one correlation outcome. For Paired and the orphan outcomes,
// Ctrl and Proc carry the controller-view and process-view rows to score;
// they reference correlator-owned buffers that are reused after the sink
// returns — copy what must outlive the call (fleet.Stream.Push copies).
type Event struct {
	Unit uint8
	// Seq is the observation's sequence number (for GapDetected, the first
	// missing one).
	Seq     uint64
	Outcome Outcome
	// Ctrl is the controller-view row, Proc the process-view row. Nil for
	// non-scoreable outcomes (GapDetected, Duplicate, Stale, ViewStalled).
	Ctrl, Proc []float64
	// Held reports that the missing view's row was synthesized by
	// hold-last-value (false for mirrored rows before that view's first
	// delivery — a plain single-view feed).
	Held bool
	// View names the missing view of an orphan or the stalled view of a
	// ViewStalled event (zero otherwise).
	View fieldbus.FrameType
	// Span is the number of consecutive missing sequence numbers of a
	// GapDetected event (zero otherwise).
	Span uint64
}

// Sink consumes correlation outcomes. It is called under the correlator's
// lock: outcomes arrive in per-unit sequence order and must not re-enter
// the correlator. A sink error aborts the triggering operation and
// propagates to its caller.
type Sink func(Event) error

// Config parameterizes a Correlator.
type Config struct {
	// Cols is the expected row width of both views (required).
	Cols int
	// Window is the reorder depth in sequence numbers per unit (0 = 64).
	// A frame more than Window sequences ahead of the oldest pending slot
	// forces the oldest slots out as orphans/gaps.
	Window int
	// MaxAge is the age horizon: a Tick flushes slots whose first frame
	// arrived more than MaxAge ago (0 = no horizon; only window overflow,
	// Flush and Close evict).
	MaxAge time.Duration
	// StallAfter is the number of consecutive hold-last orphans of one
	// view before a ViewStalled event is emitted (0 = 8, < 0 disables).
	StallAfter int
	// Clock overrides the arrival timestamp source (tests). Nil uses
	// time.Now; it is only consulted when MaxAge > 0.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.StallAfter == 0 {
		c.StallAfter = 8
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Cols < 1 || c.Cols > fieldbus.MaxValues:
		return fmt.Errorf("pairing: cols %d: %w", c.Cols, ErrBadConfig)
	case c.Window < 0:
		return fmt.Errorf("pairing: window %d: %w", c.Window, ErrBadConfig)
	case c.MaxAge < 0:
		return fmt.Errorf("pairing: max age %v: %w", c.MaxAge, ErrBadConfig)
	}
	return nil
}

// Stats is a point-in-time snapshot of the correlator's accounting. The
// frame conservation invariant (checked by the fuzz harness) is
//
//	Frames == 2·Paired + OrphanSensors + OrphanActuators
//	          + Duplicates + Stale + Outliers + PendingFrames
//
// — every accepted frame is eventually part of exactly one outcome or
// still pending in a window.
type Stats struct {
	// Frames counts frames accepted by Offer (valid type and width).
	Frames uint64
	// Steps counts distinct (unit, seq) slots opened.
	Steps uint64
	// Paired counts fully paired observations (two frames each).
	Paired uint64
	// OrphanSensors/OrphanActuators count one-frame observations.
	OrphanSensors   uint64
	OrphanActuators uint64
	// GapEvents counts GapDetected emissions; GapSeqs the missing
	// sequence numbers they cover.
	GapEvents uint64
	GapSeqs   uint64
	// Duplicates, Stale and Outliers count dropped frames (Outliers:
	// quarantined implausible sequence jumps).
	Duplicates uint64
	Stale      uint64
	Outliers   uint64
	// PendingFrames/PendingSteps count frames and slots currently held in
	// reorder windows.
	PendingFrames uint64
	PendingSteps  uint64
	// Stalls counts ViewStalled events.
	Stalls uint64
	// Units counts units seen.
	Units int
	// ExpectedFrames counts the wire frames finalized observations *should*
	// have carried, judged per unit by which views have ever been delivered:
	// a unit whose actuator view has never been seen is a plain single-view
	// feed, so its observations expect one frame, not two. MissingFrames
	// counts the expected frames that never arrived — a held orphan's mate,
	// a gap's skipped frames. Maintained at emission time (pending slots
	// excluded; their mates may still show up).
	ExpectedFrames uint64
	MissingFrames  uint64
}

// LossRate reports the fraction of expected wire frames missing from
// finalized observations. Crucially, "expected" is per-unit view-aware: a
// healthy sensor-only feed — a unit whose second view has never existed —
// expects one frame per observation and therefore scores 0 loss, not the
// 50% the naive two-frames-per-seq arithmetic would report. Loss only
// accrues for frames there was concrete evidence to expect: the mate of a
// hold-last orphan (that view HAS delivered before), or a sequence gap
// (counted per view the unit has shown). Returns 0 before anything has
// been emitted.
//
// This is the per-transport loss figure a lossy feed (UDP, a flaky
// collector link) is judged by: duplicates and stale frames are redundant
// traffic, not loss, so they do not enter the ratio.
func (s Stats) LossRate() float64 {
	if s.ExpectedFrames == 0 {
		return 0
	}
	return float64(s.MissingFrames) / float64(s.ExpectedFrames)
}

// slot is one pending sequence number: up to one frame per view. A nil row
// means that view has not arrived.
type slot struct {
	sens, act []float64 // sensor = controller view, actuator = process view
	at        int64     // first-arrival timestamp (UnixNano), 0 when empty
}

func (s *slot) empty() bool { return s.sens == nil && s.act == nil }

// unitState is one unit's reorder window plus its hold-last-value memory.
type unitState struct {
	started bool
	emitted bool   // horizon has advanced; seqs below next are final
	next    uint64 // lowest unemitted sequence number
	base    int    // ring index of next
	ring    []slot
	pending int // frames currently buffered in the ring

	lastSens, lastAct []float64 // most recent delivered rows (hold-last)
	seenSens, seenAct bool

	heldSensRun, heldActRun int // consecutive hold-last orphans per view
	stalledSens, stalledAct bool

	// Epoch-jump quarantine: candidate region of implausibly-far-ahead
	// sequence numbers and how many consecutive frames landed in it.
	jumpLow, jumpHigh uint64
	jumpRun           int
}

// viewsKnown returns how many wire frames one sequence number of this unit
// is expected to carry: one per view that has ever been delivered. Before
// any delivery (a gap emitted ahead of the unit's first emission) it
// assumes the full two-view feed.
func (u *unitState) viewsKnown() uint64 {
	n := uint64(0)
	if u.seenSens {
		n++
	}
	if u.seenAct {
		n++
	}
	if n == 0 {
		return 2
	}
	return n
}

// Correlator joins sensor and actuator frames into paired two-view
// observations. Create with NewCorrelator.
type Correlator struct {
	cfg  Config
	sink Sink

	mu     sync.Mutex
	units  [256]*unitState
	nUnits int
	free   [][]float64 // row buffer free list (len = Cols each)
	closed bool

	// oldest is a lower bound on the first-arrival stamp of every pending
	// slot (math.MaxInt64 when none is known): Tick does nothing while the
	// age horizon is below it.
	oldest int64

	stats Stats
	steps atomic.Uint64 // mirrors stats.Steps for lock-free readers
}

// NewCorrelator builds a correlator delivering outcomes to sink.
func NewCorrelator(cfg Config, sink Sink) (*Correlator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("pairing: nil sink: %w", ErrBadConfig)
	}
	return &Correlator{cfg: cfg.withDefaults(), sink: sink, oldest: math.MaxInt64}, nil
}

// Offer ingests one frame: typ selects the view (FrameSensor carries the
// controller-view row, FrameActuator the process-view row), and the row is
// copied before Offer returns. Outcomes that become decidable — the slot
// pairing up, older slots forced out of the window — are delivered to the
// sink before Offer returns.
//
//pcslint:hotpath
func (c *Correlator) Offer(typ fieldbus.FrameType, unit uint8, seq uint64, row []float64) error {
	if typ != fieldbus.FrameSensor && typ != fieldbus.FrameActuator {
		return fmt.Errorf("pairing: frame type %d: %w", int(typ), ErrBadFrame)
	}
	if len(row) != c.cfg.Cols {
		return fmt.Errorf("pairing: row has %d values, want %d: %w", len(row), c.cfg.Cols, ErrBadFrame)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	u := c.unit(unit)
	if !u.started {
		u.started = true
		u.next = seq
	}
	c.stats.Frames++
	w := uint64(c.cfg.Window)
	// An implausibly far sequence jump — in either direction — is
	// quarantined rather than trusted: the sequence number is
	// attacker-observable wire data, and moving the horizon on a single
	// corrupted or forged frame would make every subsequent genuine frame
	// read as stale, one frame permanently blinding the unit. Only a
	// confirmed run of frames in one window-sized region moves the horizon
	// that far: forward (long outage) as a coalesced gap, backward (a
	// collector restarting its counter) as an epoch reset. The same
	// machinery recovers the stream if a forged run ever does win an
	// adoption: the genuine frames themselves form the next confirmed
	// region.
	switch {
	case seq < u.next && u.next-seq > w*jumpFactor:
		if adopted, err := c.quarantine(u, unit, typ, seq); !adopted || err != nil {
			return err
		}
	case seq < u.next:
		if !c.rebaseDown(u, seq) {
			// Near-horizon traffic, even when dropped: the genuine stream
			// is alive, so any quarantine candidate is noise.
			u.jumpRun = 0
			c.stats.Stale++
			//pcslint:ignore callback-under-lock -- the sink contract is serial in-order delivery under the correlator lock; sinks must not re-enter the Correlator (package doc)
			return c.sink(Event{Unit: unit, Seq: seq, Outcome: Stale, View: typ})
		}
	case seq-u.next >= w:
		if room := seq - u.next; room-w+1 > w*jumpFactor {
			if adopted, err := c.quarantine(u, unit, typ, seq); !adopted || err != nil {
				return err
			}
		} else if err := c.advanceTo(u, unit, u.next+(room-w+1)); err != nil {
			// The window must slide: evict all older than seq-Window+1.
			return err
		}
	}
	s := &u.ring[(u.base+int(seq-u.next))%c.cfg.Window]
	if s.empty() {
		c.stats.Steps++
		c.steps.Add(1)
		c.stats.PendingSteps++
		if c.cfg.MaxAge > 0 {
			//pcslint:ignore callback-under-lock -- the injected clock is a pure reading (time.Now or a replay cursor) and cannot re-enter the correlator
			s.at = c.cfg.Clock().UnixNano()
			// min, not the latest stamp: a clock stepping backwards must
			// not raise the bound above an older pending slot.
			c.oldest = min(c.oldest, s.at)
		}
	}
	dst := &s.sens
	if typ == fieldbus.FrameActuator {
		dst = &s.act
	}
	if *dst != nil {
		u.jumpRun = 0 // in-window traffic, even redundant, clears the candidate
		c.stats.Duplicates++
		//pcslint:ignore callback-under-lock -- the sink contract is serial in-order delivery under the correlator lock; sinks must not re-enter the Correlator (package doc)
		return c.sink(Event{Unit: unit, Seq: seq, Outcome: Duplicate, View: typ})
	}
	buf := c.getRow()
	copy(buf, row)
	*dst = buf
	u.pending++
	c.stats.PendingFrames++
	// Every non-outlier frame clears the quarantine candidate (placed
	// here, duplicates and stale drops at their returns above), so epoch
	// adoption requires epochFrames outliers with NO other traffic in
	// between — "consecutive" means consecutive in the whole frame
	// stream, whichever path (in-window, window slide, rebase, dup,
	// stale) the genuine frames take.
	u.jumpRun = 0
	return c.drain(u, unit)
}

// OfferFrame ingests a decoded fieldbus frame.
func (c *Correlator) OfferFrame(f *fieldbus.Frame) error {
	if f == nil {
		return fmt.Errorf("pairing: nil frame: %w", ErrBadFrame)
	}
	return c.Offer(f.Type, f.Unit, f.Seq, f.Values)
}

// Tick applies the age horizon: every slot whose first frame is older than
// MaxAge (and every gap blocking one) is flushed. A zero MaxAge makes Tick
// a no-op.
//
// A Tick with nothing due costs O(1): it compares the horizon with a lower
// bound on every pending slot's first arrival. Only a Tick that reaches
// the bound walks the units, flushing as above, and recomputes the bound
// over every slot still pending: O(units · Window).
func (c *Correlator) Tick(now time.Time) error {
	if c.cfg.MaxAge <= 0 {
		return nil
	}
	horizon := now.Add(-c.cfg.MaxAge).UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if horizon < c.oldest {
		return nil
	}
	// On an error return the old bound stays: flushing only removes slots,
	// so it still bounds every slot left pending.
	oldest := int64(math.MaxInt64)
	for id := 0; id < len(c.units); id++ {
		u := c.units[id]
		if u == nil {
			continue
		}
		for u.pending > 0 && c.headArrival(u) <= horizon {
			if err := c.flushHead(u, uint8(id)); err != nil {
				return err
			}
			if err := c.drain(u, uint8(id)); err != nil {
				return err
			}
		}
		oldest = min(oldest, c.oldestArrival(u))
	}
	c.oldest = oldest
	return nil
}

// Flush drains every pending slot of every unit (in unit order) as if its
// missing frames will never arrive. The correlator stays usable.
func (c *Correlator) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.flushAll()
}

// Close flushes all pending slots and rejects further operations.
func (c *Correlator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	err := c.flushAll()
	c.closed = true
	return err
}

// Stats snapshots the accounting counters.
func (c *Correlator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StepCount returns the number of distinct (unit, seq) observations seen,
// without taking the correlator lock — the cheap per-frame progress probe
// for ingestion caps.
func (c *Correlator) StepCount() uint64 { return c.steps.Load() }

func (c *Correlator) flushAll() error {
	for id := 0; id < len(c.units); id++ {
		u := c.units[id]
		if u == nil {
			continue
		}
		for u.pending > 0 {
			if err := c.flushHead(u, uint8(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// unit returns (lazily creating) the per-unit state.
func (c *Correlator) unit(id uint8) *unitState {
	u := c.units[id]
	if u == nil {
		//pcslint:ignore hotpath -- per-unit state is built once, on the first frame a unit ever sends
		u = &unitState{ring: make([]slot, c.cfg.Window)}
		c.units[id] = u
		c.nUnits++
		c.stats.Units = c.nUnits
	}
	return u
}

// drain emits completed head slots — the in-order fast path.
//
// Before the unit's first emission the drain is held back: the window
// anchor was set by whichever frame happened to arrive first, so a
// completed head might still be overtaken by reordered earlier sequence
// numbers (which rebaseDown can only honour while nothing has been
// emitted). The first emission is therefore always forced — by window
// overflow, the age horizon or a flush — after which the head is provably
// the lowest outstanding sequence number and completion drains instantly.
func (c *Correlator) drain(u *unitState, unit uint8) error {
	if !u.emitted {
		return nil
	}
	for {
		s := &u.ring[u.base]
		if s.sens == nil || s.act == nil {
			return nil
		}
		if err := c.emitHead(u, unit, s); err != nil {
			return err
		}
	}
}

// flushHead evicts the head slot: a present pair or half emits as
// Paired/orphan, a missing head coalesces with the following run of
// missing sequence numbers into one GapDetected.
func (c *Correlator) flushHead(u *unitState, unit uint8) error {
	s := &u.ring[u.base]
	if !s.empty() {
		return c.emitHead(u, unit, s)
	}
	// Coalesce the run of missing seqs up to the next occupied slot.
	w := c.cfg.Window
	span := 1
	for span < w && u.ring[(u.base+span)%w].empty() {
		span++
	}
	if span == w {
		// Nothing pending at all — callers guard on u.pending > 0.
		return nil
	}
	u.next += uint64(span)
	u.base = (u.base + span) % w
	u.emitted = true
	c.stats.GapEvents++
	c.stats.GapSeqs += uint64(span)
	c.stats.ExpectedFrames += uint64(span) * u.viewsKnown()
	c.stats.MissingFrames += uint64(span) * u.viewsKnown()
	return c.sink(Event{Unit: unit, Seq: u.next - uint64(span), Outcome: GapDetected, Span: uint64(span)})
}

// Epoch-jump quarantine tuning: a jump of more than jumpFactor windows
// past the horizon is an outlier; epochFrames consecutive outliers inside
// one window-sized region confirm a genuine new epoch.
const (
	jumpFactor  = 16
	epochFrames = 3
)

// quarantine handles a frame whose sequence number jumped implausibly far
// from the horizon (either direction). It reports whether the frame was
// adopted (a confirmed epoch: the window has been moved and the caller
// should place the frame); a non-adopted frame has been dropped and
// accounted as an Outlier.
func (c *Correlator) quarantine(u *unitState, unit uint8, typ fieldbus.FrameType, seq uint64) (bool, error) {
	w := uint64(c.cfg.Window)
	inRegion := u.jumpRun > 0 &&
		seq+w > u.jumpLow && seq < u.jumpLow+w &&
		max(u.jumpHigh, seq)-min(u.jumpLow, seq) < w
	if !inRegion {
		u.jumpLow, u.jumpHigh, u.jumpRun = seq, seq, 1
	} else {
		u.jumpLow = min(u.jumpLow, seq)
		u.jumpHigh = max(u.jumpHigh, seq)
		u.jumpRun++
	}
	if u.jumpRun < epochFrames {
		c.stats.Outliers++
		return false, c.sink(Event{Unit: unit, Seq: seq, Outcome: Outlier, View: typ})
	}
	// Confirmed epoch: drain the old window and re-anchor at the region's
	// lowest sequence number — recording the skipped range as one gap when
	// the epoch moved forward, or an epoch reset when the numbering
	// restarted below the old horizon.
	for u.pending > 0 {
		if err := c.flushHead(u, unit); err != nil {
			return false, err
		}
	}
	from := u.next
	u.next = u.jumpLow
	u.emitted = true
	u.jumpRun = 0
	if u.jumpLow >= from {
		span := u.jumpLow - from
		c.stats.GapEvents++
		c.stats.GapSeqs += span
		c.stats.ExpectedFrames += span * u.viewsKnown()
		c.stats.MissingFrames += span * u.viewsKnown()
		return true, c.sink(Event{Unit: unit, Seq: from, Outcome: GapDetected, Span: span})
	}
	return true, c.sink(Event{Unit: unit, Seq: u.jumpLow, Outcome: EpochReset})
}

// rebaseDown slides the window start down to seq — legal only before the
// unit's first emission (the anchor was set by whichever frame happened to
// arrive first; reordered earlier frames must not read as stale) and only
// while every pending slot still fits the window.
func (c *Correlator) rebaseDown(u *unitState, seq uint64) bool {
	if u.emitted {
		return false
	}
	shift := u.next - seq
	if shift >= uint64(c.cfg.Window) {
		return false
	}
	w := c.cfg.Window
	highest := 0
	for i := w - 1; i >= 0; i-- {
		if !u.ring[(u.base+i)%w].empty() {
			highest = i
			break
		}
	}
	if highest+int(shift) >= w {
		return false
	}
	u.base = (u.base - int(shift)%w + w) % w
	u.next = seq
	return true
}

// advanceTo forces the head past every sequence number below target,
// emitting pairs, orphans and coalesced gaps.
func (c *Correlator) advanceTo(u *unitState, unit uint8, target uint64) error {
	w := c.cfg.Window
	for u.next < target {
		s := &u.ring[u.base]
		if !s.empty() {
			if err := c.emitHead(u, unit, s); err != nil {
				return err
			}
			continue
		}
		// Coalesce missing seqs: up to the next occupied slot, but never
		// past target.
		span := uint64(1)
		for span < uint64(w) && u.next+span < target && u.ring[(u.base+int(span))%w].empty() {
			span++
		}
		if span == uint64(w) && target-u.next > span {
			// The whole window is empty; everything below target is missing.
			span = target - u.next
		}
		u.next += span
		u.base = (u.base + int(span%uint64(w))) % w
		u.emitted = true
		c.stats.GapEvents++
		c.stats.GapSeqs += span
		c.stats.ExpectedFrames += span * u.viewsKnown()
		c.stats.MissingFrames += span * u.viewsKnown()
		if err := c.sink(Event{Unit: unit, Seq: u.next - span, Outcome: GapDetected, Span: span}); err != nil {
			return err
		}
	}
	return nil
}

// emitHead classifies and emits the (non-empty) head slot, updates the
// hold-last state by buffer swap, advances the window, and runs the stall
// detector. Buffers are recycled only after the sink has returned.
//
//pcslint:hotpath
func (c *Correlator) emitHead(u *unitState, unit uint8, s *slot) error {
	seq := u.next
	ev := Event{Unit: unit, Seq: seq, Ctrl: s.sens, Proc: s.act}
	frames := 0
	switch {
	case s.sens != nil && s.act != nil:
		ev.Outcome = Paired
		frames = 2
		c.stats.Paired++
		c.stats.ExpectedFrames += 2
	case s.sens != nil:
		ev.Outcome = OrphanSensor
		ev.View = fieldbus.FrameActuator
		frames = 1
		c.stats.OrphanSensors++
		if u.seenAct {
			// The actuator view HAS delivered before: its frame was
			// expected and is genuinely missing.
			ev.Proc = u.lastAct
			ev.Held = true
			c.stats.ExpectedFrames += 2
			c.stats.MissingFrames++
		} else {
			// Mirror: plain single-view feed — one frame expected, none lost.
			ev.Proc = s.sens
			c.stats.ExpectedFrames++
		}
	default:
		ev.Outcome = OrphanActuator
		ev.View = fieldbus.FrameSensor
		frames = 1
		c.stats.OrphanActuators++
		if u.seenSens {
			ev.Ctrl = u.lastSens
			ev.Held = true
			c.stats.ExpectedFrames += 2
			c.stats.MissingFrames++
		} else {
			ev.Ctrl = s.act // mirror: plain single-view feed
			c.stats.ExpectedFrames++
		}
	}
	sens, act := s.sens, s.act
	s.sens, s.act, s.at = nil, nil, 0
	u.pending -= frames
	u.next++
	u.base = (u.base + 1) % c.cfg.Window
	u.emitted = true
	c.stats.PendingFrames -= uint64(frames)
	c.stats.PendingSteps--
	if err := c.sink(ev); err != nil {
		c.putRow(sens)
		c.putRow(act)
		return err
	}
	// Hold-last update by pointer swap: the just-delivered row becomes the
	// view's memory, the old memory buffer returns to the free list.
	if sens != nil {
		c.putRow(u.lastSens)
		u.lastSens, u.seenSens = sens, true
	}
	if act != nil {
		c.putRow(u.lastAct)
		u.lastAct, u.seenAct = act, true
	}
	return c.stall(u, unit, seq, ev)
}

// stall updates the consecutive hold-last counters and emits ViewStalled
// when a view crosses the threshold. A delivered frame of a view resets
// its counter and re-arms the detector (stalls are episodic).
func (c *Correlator) stall(u *unitState, unit uint8, seq uint64, ev Event) error {
	// A view whose frame was delivered in this observation is healthy:
	// reset its counter and re-arm its detector.
	if ev.Outcome == Paired || ev.Outcome == OrphanSensor {
		u.heldSensRun, u.stalledSens = 0, false
	}
	if ev.Outcome == Paired || ev.Outcome == OrphanActuator {
		u.heldActRun, u.stalledAct = 0, false
	}
	if !ev.Held || c.cfg.StallAfter < 0 {
		return nil
	}
	switch ev.Outcome {
	case OrphanSensor:
		u.heldActRun++
		if u.heldActRun >= c.cfg.StallAfter && !u.stalledAct {
			u.stalledAct = true
			c.stats.Stalls++
			return c.sink(Event{Unit: unit, Seq: seq, Outcome: ViewStalled, View: fieldbus.FrameActuator})
		}
	case OrphanActuator:
		u.heldSensRun++
		if u.heldSensRun >= c.cfg.StallAfter && !u.stalledSens {
			u.stalledSens = true
			c.stats.Stalls++
			return c.sink(Event{Unit: unit, Seq: seq, Outcome: ViewStalled, View: fieldbus.FrameSensor})
		}
	}
	return nil
}

// headArrival returns the first-arrival stamp of the slot a flushHead
// would emit — the first occupied slot from the head. Gating the age
// horizon on this slot (not the ring-wide oldest) keeps a fresh head from
// being force-orphaned just because a newer-sequence slot behind it has
// expired: the expired slot simply waits its in-order turn. Callers guard
// on u.pending > 0.
func (c *Correlator) headArrival(u *unitState) int64 {
	w := c.cfg.Window
	for i := 0; i < w; i++ {
		s := &u.ring[(u.base+i)%w]
		if !s.empty() {
			return s.at
		}
	}
	return 1<<63 - 1
}

// oldestArrival returns the earliest first-arrival stamp over all of the
// unit's pending slots (math.MaxInt64 when none is pending). Not just the
// head's: a reordered slot behind the head can be older than the head.
func (c *Correlator) oldestArrival(u *unitState) int64 {
	oldest := int64(math.MaxInt64)
	w := c.cfg.Window
	for i, frames := 0, 0; i < w && frames < u.pending; i++ {
		s := &u.ring[(u.base+i)%w]
		if s.empty() {
			continue
		}
		oldest = min(oldest, s.at)
		if s.sens != nil {
			frames++
		}
		if s.act != nil {
			frames++
		}
	}
	return oldest
}

// getRow takes a Cols-sized row buffer from the free list.
func (c *Correlator) getRow() []float64 {
	if n := len(c.free); n > 0 {
		buf := c.free[n-1]
		c.free = c.free[:n-1]
		return buf
	}
	//pcslint:ignore hotpath -- free-list miss: row buffers are allocated only until the pool covers the in-flight window, then recycled
	return make([]float64, c.cfg.Cols)
}

// putRow returns a row buffer to the free list.
func (c *Correlator) putRow(buf []float64) {
	if buf == nil {
		return
	}
	//pcslint:ignore hotpath -- free-list growth is bounded by the pairing window; after warm-up every push reuses the spare capacity
	c.free = append(c.free, buf)
}
