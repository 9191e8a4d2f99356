package control

import (
	"encoding/json"
	"errors"
	"fmt"

	"pcsmon/internal/core"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/fleet"
	"pcsmon/internal/historian"
	"pcsmon/internal/obs"
	"pcsmon/internal/pairing"
)

// The live two-view ingest: sensor frames (controller-view rows) and
// actuator frames (process-view rows) are correlated by (unit, sequence
// number) and every paired observation is pushed into the scoring pool,
// so socket feeds get the full cross-view diagnosis. Units attach on first
// sight as plant fleet.PlantID(unit).

// pairDropped is the "pair-dropped" event payload: live pairing lost
// data — an observation scored with one view synthesized by hold-last
// value, a sequence-number gap, or a discarded duplicate/stale frame.
// Plain single-view operation (a unit whose second view has never been
// seen) is not reported; only genuinely missing data is.
type pairDropped struct {
	// Unit is the fieldbus unit id; Seq the affected sequence number (for
	// gaps, the first missing one).
	Unit uint8
	Seq  uint64
	// Kind is "orphan-sensor", "orphan-actuator", "gap", "duplicate",
	// "stale", "seq-outlier" (a quarantined implausible sequence jump) or
	// "epoch-reset" (the unit's sequence numbering restarted — a collector
	// restart; Seq is the new epoch's first sequence number).
	Kind string
	// Span is the number of consecutive missing observations of a gap.
	Span uint64
	// Held reports that the observation was still scored, with the missing
	// view's row held at its last delivered value.
	Held bool
}

// viewStalled is the "view-stalled" event payload: one view of one unit
// has produced only hold-last orphans for pairing.stall_after consecutive
// observations — the systematic one-view blackout that is DoS-consistent
// evidence. The stream keeps being scored with held rows, so the
// analyzer turns the blackout into a dos-attack verdict instead of
// silently downgrading to single-view monitoring.
type viewStalled struct {
	Unit uint8
	// Seq is the observation at which the stall threshold was crossed.
	Seq uint64
	// View is "sensor" (controller-view frames missing) or "actuator"
	// (process-view frames missing).
	View string
}

// offer is the shared frame path of every source: record first (the
// flight recorder sees everything), then pair and score. It reports
// whether f reached the correlator: frames of other widths or types,
// frames of a drained unit and redundant copies inside the dedup window
// stop at the door.
func (p *Plane) offer(f *fieldbus.Frame) (bool, error) {
	if p.draining.Load() {
		p.rejected.Add(1)
		return false, nil
	}
	if p.rec != nil {
		p.recMu.Lock()
		err := p.rec.Record(f)
		p.recMu.Unlock()
		if err != nil {
			fmt.Fprintf(p.out, "record error: %v\n", err)
		}
	}
	if len(f.Values) != historian.NumVars ||
		(f.Type != fieldbus.FrameSensor && f.Type != fieldbus.FrameActuator) {
		return false, nil
	}
	if p.quiesced[f.Unit].Load() {
		p.quiescedDrops.Add(1)
		return false, nil
	}
	if p.redundant(f) {
		return false, nil
	}
	if err := p.cor.Offer(f.Type, f.Unit, f.Seq, f.Values); err != nil {
		return true, err
	}
	p.accepted.Add(1)
	p.lastSeen.Store(p.clock().UnixNano())
	return true, nil
}

// redundant applies the dedup window. A suppressed frame never reaches
// the correlator, so a redundant collector's second copy cannot inflate
// the duplicate count or refresh the liveness stamp.
func (p *Plane) redundant(f *fieldbus.Frame) bool {
	if p.dedup == nil {
		return false
	}
	p.dedupMu.Lock()
	defer p.dedupMu.Unlock()
	return p.dedup.Redundant(f)
}

// deduped returns the number of frames the dedup window suppressed.
func (p *Plane) deduped() uint64 {
	if p.dedup == nil {
		return 0
	}
	p.dedupMu.Lock()
	defer p.dedupMu.Unlock()
	return p.dedup.Dropped()
}

// route is the correlator's sink: scoreable outcomes attach their unit on
// first sight and are pushed into the pool; loss outcomes are counted on
// the unit's health, logged and published. It runs under the
// correlator's lock, so per-unit order holds.
func (p *Plane) route(ev pairing.Event) error {
	if p.quiesced[ev.Unit].Load() {
		// Residual outcome of a drained unit (the frame was already inside
		// the correlator when the drain landed): drop, don't resurrect.
		p.quiescedDrops.Add(1)
		return nil
	}
	id := fleet.PlantID(ev.Unit)
	switch ev.Outcome {
	case pairing.Paired, pairing.OrphanSensor, pairing.OrphanActuator:
		if ev.Held {
			if h := p.health(id); h != nil {
				h.AddHeld(1)
			}
			p.bus.publish(Event{Type: "pair-dropped", Unit: id, Data: pairDropped{
				Unit: ev.Unit, Seq: ev.Seq, Kind: ev.Outcome.String(), Held: true,
			}}, json.Marshal)
		}
		return p.push(ev)
	case pairing.GapDetected, pairing.Duplicate, pairing.Stale, pairing.Outlier, pairing.EpochReset:
		if h := p.health(id); h != nil {
			h.AddDropped(max(ev.Span, 1))
		}
		p.bus.publish(Event{Type: "pair-dropped", Unit: id, Data: pairDropped{
			Unit: ev.Unit, Seq: ev.Seq, Kind: ev.Outcome.String(), Span: ev.Span,
		}}, json.Marshal)
	case pairing.ViewStalled:
		fmt.Fprintf(p.out, "VIEW STALL [%s] %s frames missing since obs %d — scoring hold-last-value (DoS-consistent)\n",
			id, ev.View, ev.Seq)
		p.bus.publish(Event{Type: "view-stalled", Unit: id, Data: viewStalled{
			Unit: ev.Unit, Seq: ev.Seq, View: ev.View.String(),
		}}, json.Marshal)
	}
	return nil
}

// push scores one paired observation: the correlator → pool hand-off.
//
//pcslint:hotpath
func (p *Plane) push(ev pairing.Event) error {
	err := fleet.ErrUnknownPlant // no handle: the unit is not attached
	if st := p.streams[ev.Unit].Load(); st != nil {
		err = st.Push(ev.Ctrl, ev.Proc)
	}
	if err != nil && errors.Is(err, fleet.ErrUnknownPlant) {
		// Cold branch — first sight, or a detach landed since the unit's
		// last observation: attach it and push under stateMu, so no detach
		// can slip in between and refuse the retry. The push may wait on
		// the mailbox; workers never take stateMu, so that wait ends, as
		// detach's wait for the verdict does. A unit drained meanwhile
		// drops the observation.
		p.stateMu.Lock()
		st, err := p.attachLocked(ev.Unit, false)
		if st != nil {
			err = st.Push(ev.Ctrl, ev.Proc)
		} else if err == nil {
			p.quiescedDrops.Add(1)
		}
		p.stateMu.Unlock()
		return err
	}
	return err
}

// health returns a unit's health handle (nil without the ops stack or
// before the unit attached).
func (p *Plane) health(id string) *obs.UnitHealth {
	if p.healthReg == nil {
		return nil
	}
	return p.healthReg.Get(id)
}

// attachLocked attaches a unit's stream and returns its handle, nil when
// the unit stays down. On first sight (explicit false) a unit attached
// meanwhile returns its live handle and a drained one stays down; the
// API's attach (explicit true) refuses a live unit with ErrDuplicatePlant
// and lifts the drain mark. The caller holds stateMu, which serializes
// first-sight attachment with the API's attach/detach/drain; the handle
// table and the drain mark change only under it, only on success.
func (p *Plane) attachLocked(unit uint8, explicit bool) (*fleet.Stream, error) {
	id := fleet.PlantID(unit)
	if !explicit && p.quiesced[unit].Load() {
		return nil, nil
	}
	st, err := p.fl.Attach(id, p.onset(unit))
	if err != nil {
		if !explicit && errors.Is(err, fleet.ErrDuplicatePlant) {
			return p.streams[unit].Load(), nil
		}
		return nil, fmt.Errorf("control: unit %s: %w", id, err)
	}
	p.streams[unit].Store(st)
	p.quiesced[unit].Store(false)
	fmt.Fprintf(p.out, "plant %s attached\n", id)
	p.bus.publish(Event{Type: "attached", Unit: id}, json.Marshal)
	return st, nil
}

// detach finalizes a unit's stream and returns its classified report:
// POST /units/{id}/detach, or /drain with drain set. The unit re-attaches
// fresh on its next frame — unless drained, in which case its frames are
// dropped at the door until the API attaches it again. Detaching a unit
// that is not attached returns ErrUnknownPlant and changes nothing.
func (p *Plane) detach(unit uint8, drain bool) (*core.Report, error) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	st := p.streams[unit].Swap(nil)
	if st == nil {
		return nil, fmt.Errorf("control: unit %s: %w", fleet.PlantID(unit), fleet.ErrUnknownPlant)
	}
	rep, err := st.Detach()
	if err == nil && drain {
		p.quiesced[unit].Store(true)
	}
	return rep, err
}
