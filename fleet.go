package pcsmon

import (
	"fmt"
	"sync"

	"pcsmon/internal/core"
	"pcsmon/internal/fleet"
	"pcsmon/internal/scenario"
)

// Fleet-related sentinel errors, re-exported from the engine.
var (
	// ErrFleetClosed is returned when operating on a closed fleet.
	ErrFleetClosed = fleet.ErrClosed
	// ErrDuplicatePlant is returned when attaching an already-attached ID.
	ErrDuplicatePlant = fleet.ErrDuplicatePlant
	// ErrUnknownPlant is returned for operations on an unattached ID.
	ErrUnknownPlant = fleet.ErrUnknownPlant
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
// events into the StreamEvent vocabulary. Create with NewFleet or drive
// whole simulated fleets with Lab.RunFleet. All methods are safe for
// concurrent use. (The control plane and mspctool run on the pool itself.)
type Fleet struct {
	pool   *fleet.Pool
	events chan FleetEvent
	done   chan struct{}
}

// NewFleet builds a sharded scoring pool over a calibrated system. The
// caller must consume Events() until it closes (after Close); a stalled
// consumer back-pressures producers rather than losing events.
func NewFleet(sys *System, opts FleetOptions) (*Fleet, error) {
	pool, err := fleet.NewPool(sys, opts)
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	f := &Fleet{
		pool:   pool,
		events: make(chan FleetEvent, max(opts.EventBuffer, 1)),
		done:   make(chan struct{}),
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
	if err := f.pool.Attach(plant, onset); err != nil {
		return fmt.Errorf("pcsmon: %w", err)
	}
	return nil
}

// Push scores the next paired observation of a plant. The rows are copied
// before Push returns; a single-view feed passes the same slice twice.
// Push blocks when the plant's worker mailbox is full (back-pressure).
func (f *Fleet) Push(plant string, ctrl, proc []float64) error {
	if err := f.pool.Push(plant, ctrl, proc); err != nil {
		return fmt.Errorf("pcsmon: %w", err)
	}
	return nil
}

// Detach finalizes a plant's stream and returns its classified report.
func (f *Fleet) Detach(plant string) (*Report, error) {
	rep, err := f.pool.Detach(plant)
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

// FleetRunOptions tunes Lab.RunFleet.
type FleetRunOptions struct {
	// FleetOptions sizes the scoring pool. Sample is derived from the
	// lab's cadence and ignored here.
	FleetOptions
	// Hours is each run's maximum simulated duration (0 = 16 h past each
	// scenario's onset).
	Hours float64
}

// FleetRunResult aggregates a RunFleet campaign.
type FleetRunResult struct {
	// Reports maps plant ID ("<scenario-key>/<run>") to the classified
	// report.
	Reports map[string]*Report
	// Outcomes maps plant ID to how its simulation ended.
	Outcomes map[string]scenario.FeedOutcome
	// Stats is the pool's counter snapshot at the end of the campaign.
	Stats FleetStats
}

// RunFleet simulates runsEach runs of every scenario concurrently — one
// plant-simulation goroutine per stream, all scored by one shared fleet
// pool against the lab's calibrated system. Run i of a scenario is the
// same seeded run RunScenario executes, so fleet verdicts are directly
// comparable to (and bit-identical with) the single-plant protocols. emit,
// if non-nil, observes the merged event stream from a single goroutine.
func (l *Lab) RunFleet(scs []Scenario, runsEach int, opts FleetRunOptions, emit func(FleetEvent)) (*FleetRunResult, error) {
	if len(scs) == 0 || runsEach < 1 {
		return nil, fmt.Errorf("pcsmon: fleet needs scenarios and runs ≥ 1: %w", ErrBadConfig)
	}
	fopts := opts.FleetOptions
	fopts.Sample = l.newExperiment(scs[0], opts.Hours).SampleInterval()
	fl, err := NewFleet(l.System, fopts)
	if err != nil {
		return nil, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range fl.Events() {
			if emit != nil {
				emit(ev)
			}
		}
	}()

	type outcome struct {
		id   string
		rep  *Report
		feed scenario.FeedOutcome
		err  error
	}
	outcomes := make([]outcome, len(scs)*runsEach)
	var wg sync.WaitGroup
	for si, sc := range scs {
		for i := 0; i < runsEach; i++ {
			wg.Add(1)
			go func(slot int, sc Scenario, i int) {
				defer wg.Done()
				out := &outcomes[slot]
				out.id = fmt.Sprintf("%s/%02d", sc.Key, i)
				exp := l.newExperiment(sc, opts.Hours)
				if err := fl.Attach(out.id, exp.OnsetIndex()); err != nil {
					out.err = err
					return
				}
				feed, err := exp.Feed(sc, exp.RunSeed(int64(i)), func(idx int, ctrl, proc []float64) error {
					return fl.Push(out.id, ctrl, proc)
				})
				if err != nil {
					// Surface the simulation error, but still detach so the
					// pool does not leak the stream.
					_, _ = fl.Detach(out.id)
					out.err = fmt.Errorf("pcsmon: %s: %w", out.id, err)
					return
				}
				out.feed = *feed
				out.rep, out.err = fl.Detach(out.id)
			}(si*runsEach+i, sc, i)
		}
	}
	wg.Wait()
	stats := fl.Stats()
	if err := fl.Close(); err != nil {
		return nil, err
	}
	<-drained

	res := &FleetRunResult{
		Reports:  make(map[string]*Report, len(outcomes)),
		Outcomes: make(map[string]scenario.FeedOutcome, len(outcomes)),
		Stats:    stats,
	}
	for _, out := range outcomes {
		if out.err != nil {
			return nil, out.err
		}
		res.Reports[out.id] = out.rep
		res.Outcomes[out.id] = out.feed
	}
	return res, nil
}
