package pcsmon

import (
	"fmt"
	"sync"

	"pcsmon/internal/core"
	"pcsmon/internal/fleet"
)

// PlantID returns the fleet plant id of a fieldbus unit ("unit-007").
func PlantID(unit uint8) string { return fleet.PlantID(unit) }

// FleetStats is a snapshot of a fleet's aggregate counters.
type FleetStats = fleet.Stats

// FleetEvent pairs a plant ID with a facade stream event — the fan-in
// element of a fleet's event stream.
type FleetEvent struct {
	// Plant identifies the stream the event belongs to.
	Plant string
	// Event is a SampleScored, AlarmRaised or VerdictReady.
	Event StreamEvent
}

// FleetOptions tunes NewFleet: it is the scoring pool's own config. The
// zero value selects GOMAXPROCS workers, a 64-message mailbox per worker,
// batches of 16 and a 256-event buffer; Adapt enables fleet-wide adaptive
// recalibration (surfaced as ModelSwapped events).
type FleetOptions = fleet.Config

// Fleet scores many concurrent plant streams against one calibrated
// system: the library wrapper over the internal/fleet pool, translating its
// events into the StreamEvent vocabulary. Create with NewFleet. All
// methods are safe for concurrent use. (The control plane and mspctool run
// on the pool itself.)
type Fleet struct {
	pool   *fleet.Pool
	events chan FleetEvent
	done   chan struct{}

	mu      sync.Mutex // guards streams
	streams map[string]*fleet.Stream
}

// NewFleet builds a scoring pool over a calibrated system. The
// caller must consume Events() until it closes (after Close); a stalled
// consumer back-pressures producers rather than losing events.
func NewFleet(sys *System, opts FleetOptions) (*Fleet, error) {
	pool, err := fleet.NewPool(sys, opts)
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	f := &Fleet{
		pool:    pool,
		events:  make(chan FleetEvent, max(opts.EventBuffer, 1)),
		done:    make(chan struct{}),
		streams: make(map[string]*fleet.Stream),
	}
	go f.convert()
	return f, nil
}

// convert translates engine events into facade events, preserving order.
func (f *Fleet) convert() {
	defer close(f.done)
	defer close(f.events)
	for ev := range f.pool.Events() {
		fe := FleetEvent{Plant: ev.PlantID()}
		switch e := ev.(type) {
		case *fleet.Scored:
			fe.Event = core.ScoredEvent(e.Step)
		case fleet.Alarm:
			fe.Event = core.AlarmEvent(e.View, e.Detection)
		case fleet.ModelSwapped:
			fe.Event = e.Swap.Event()
		case fleet.Verdict:
			// Failed streams surface their error via Detach; the event
			// stream reports what was scored.
			fe.Event = VerdictReady{Report: e.Report, Samples: e.Samples}
		}
		f.pool.Recycle(ev) // fe copied everything it needs
		f.events <- fe
	}
}

// Events returns the fan-in event channel, closed after Close.
func (f *Fleet) Events() <-chan FleetEvent { return f.events }

// Attach registers a new plant stream. onset is the observation index at
// which an anomaly is known to begin (0 if unknown).
func (f *Fleet) Attach(plant string, onset int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, err := f.pool.Attach(plant, onset)
	if err != nil {
		return fmt.Errorf("pcsmon: %w", err)
	}
	f.streams[plant] = st
	return nil
}

// Push scores the next paired observation of a plant. The rows are copied
// before Push returns; a single-view feed passes the same slice twice.
// Push blocks when the plant's worker mailbox is full (back-pressure).
func (f *Fleet) Push(plant string, ctrl, proc []float64) error {
	f.mu.Lock()
	st := f.streams[plant]
	f.mu.Unlock()
	if st == nil {
		return fmt.Errorf("pcsmon: fleet: %q: %w", plant, fleet.ErrUnknownPlant)
	}
	if err := st.Push(ctrl, proc); err != nil {
		return fmt.Errorf("pcsmon: %w", err)
	}
	return nil
}

// Detach finalizes a plant's stream and returns its classified report.
func (f *Fleet) Detach(plant string) (*Report, error) {
	f.mu.Lock()
	st := f.streams[plant]
	delete(f.streams, plant)
	f.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("pcsmon: fleet: %q: %w", plant, fleet.ErrUnknownPlant)
	}
	rep, err := st.Detach()
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	return rep, nil
}

// Stats snapshots the fleet's aggregate counters.
func (f *Fleet) Stats() FleetStats { return f.pool.Stats() }

// Plants lists the currently attached plant ids, sorted — the drain hook
// a control plane uses to detach everything deterministically.
func (f *Fleet) Plants() []string { return f.pool.Plants() }

// Close finalizes every remaining stream, stops the workers and closes the
// event channel. Idempotent.
func (f *Fleet) Close() error {
	if err := f.pool.Close(); err != nil {
		return fmt.Errorf("pcsmon: %w", err)
	}
	<-f.done
	return nil
}
