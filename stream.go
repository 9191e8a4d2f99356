package pcsmon

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"pcsmon/internal/adapt"
	"pcsmon/internal/core"
)

// Stream events, re-exported from the engine: the streaming facade, the
// fleet and the control plane's SSE feed share one vocabulary.
type (
	// StreamEvent is a typed stream event: SampleScored, AlarmRaised,
	// ModelSwapped or VerdictReady.
	StreamEvent = core.StreamEvent
	// SampleScored reports the two charts' statistics for one scored
	// observation.
	SampleScored = core.SampleScored
	// AlarmRaised reports that one view's run rule latched a detection.
	AlarmRaised = core.AlarmRaised
	// ModelSwapped reports an adaptive model migration at a
	// diagnosis-window boundary.
	ModelSwapped = core.ModelSwapped
	// VerdictReady carries the final classified report when the stream
	// ends.
	VerdictReady = core.VerdictReady
)

// AdaptiveOptions tunes the adaptive recalibration layer (internal/adapt):
// an EWMA model tracker fed only by in-control observations, candidate
// refits on a cadence, guard checks against the incumbent, and atomic model
// swaps at diagnosis-window boundaries. The zero value is disabled — the
// paper's frozen-model behaviour, bit-identical to not configuring it.
type AdaptiveOptions = adapt.Options

// StreamOptions tunes Lab.StreamScenario.
type StreamOptions struct {
	// Seed selects the run (StreamScenario with Seed i replays run i of
	// RunScenario).
	Seed int64
	// Hours is the maximum simulated duration (0 = 16 h past onset).
	Hours float64
	// EarlyStop halts the simulation once the verdict is settled or
	// StopHorizon observations have passed since the first alarm.
	EarlyStop bool
	// StopHorizon is the early-stop horizon in observations after the
	// first alarm (0 = six diagnosis windows).
	StopHorizon int
	// EmitEvery thins SampleScored events to one in N observations
	// (0 or 1 = every observation, negative = none). Alarm and verdict
	// events are always emitted.
	EmitEvery int
	// EventBuffer decouples the emit handler from the plant loop: when
	// > 0, events are delivered from a dedicated goroutine through a
	// buffered channel of this depth, so a slow consumer (UI, network
	// sink) does not stall the simulation until the buffer fills. Events
	// are never dropped or reordered. 0 keeps the synchronous in-loop
	// delivery.
	EventBuffer int
	// Adaptive enables the adaptive recalibration layer for this stream;
	// accepted swaps surface as ModelSwapped events.
	Adaptive AdaptiveOptions
}

// StreamScenario simulates one run of a scenario and monitors it online:
// every retained observation is scored as the plant produces it and emit —
// if non-nil — receives the typed event stream (SampleScored, AlarmRaised,
// VerdictReady). With EarlyStop the simulation halts shortly after
// detection instead of running to the configured horizon. The final report
// is identical to what the batch path computes over the same observations.
func (l *Lab) StreamScenario(sc Scenario, opts StreamOptions, emit func(StreamEvent)) (*Report, error) {
	exp := l.newExperiment(sc, opts.Hours)
	exp.EarlyStop = opts.EarlyStop
	exp.StopHorizon = opts.StopHorizon
	send := emit
	if opts.EventBuffer > 0 && emit != nil {
		var flush func()
		send, flush = NewBufferedEmitter(emit, opts.EventBuffer)
		defer flush()
	}
	if opts.Adaptive.Enabled {
		ao := opts.Adaptive
		exp.Adapt = &ao
		if send != nil {
			emitSwap := send
			exp.OnSwap = func(s adapt.Swap) { emitSwap(s.Event()) }
		}
	}
	out, err := exp.Stream(sc, exp.RunSeed(opts.Seed), stepEmitter(send, opts.EmitEvery))
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	if send != nil {
		send(VerdictReady{Report: out.Report, Samples: out.Samples, Stopped: out.Stopped})
	}
	return out.Report, nil
}

// NewBufferedEmitter decouples an event consumer from its producer: send
// enqueues events into a buffered channel drained by one goroutine that
// calls emit in order. The producer only blocks once depth events are
// pending (back-pressure); nothing is dropped or reordered. flush waits
// until every sent event has been handled and stops the goroutine; it is
// idempotent, and send must not be called after it.
func NewBufferedEmitter(emit func(StreamEvent), depth int) (send func(StreamEvent), flush func()) {
	if depth < 1 {
		depth = 1
	}
	ch := make(chan StreamEvent, depth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			emit(ev)
		}
	}()
	var once sync.Once
	return func(ev StreamEvent) { ch <- ev },
		func() {
			once.Do(func() { close(ch) })
			<-done
		}
}

// StreamFeed supplies successive paired observations (engineering units,
// NumVars columns each). Returning io.EOF — or two nil rows — ends the
// stream. A single-view feed may return the same slice for both views.
type StreamFeed func() (ctrl, proc []float64, err error)

// Stream scores an arbitrary feed of paired observations against a
// calibrated system — the facade over core.OnlineAnalyzer that mspctool's
// watch mode and other external consumers use. onset is the observation
// index at which an anomaly is known to begin (0 if unknown) and sample is
// the observation interval. The final report is returned after the feed
// ends; emit — if non-nil — sees the live event stream.
func Stream(sys *System, onset int, sample time.Duration, feed StreamFeed, emit func(StreamEvent)) (*Report, error) {
	return StreamAdaptive(sys, onset, sample, AdaptiveOptions{}, feed, emit)
}

// StreamAdaptive is Stream with the adaptive recalibration layer: a fresh
// model tracker learns from this stream's in-control observations, refits
// on the configured cadence and swaps models at diagnosis-window
// boundaries, emitting ModelSwapped events. A disabled AdaptiveOptions
// makes it exactly Stream.
func StreamAdaptive(sys *System, onset int, sample time.Duration, ao AdaptiveOptions, feed StreamFeed, emit func(StreamEvent)) (*Report, error) {
	if feed == nil {
		return nil, fmt.Errorf("pcsmon: nil feed: %w", ErrBadConfig)
	}
	var onSwap func(adapt.Swap)
	if emit != nil {
		onSwap = func(s adapt.Swap) { emit(s.Event()) }
	}
	oa, err := adapt.NewScorer(sys, &ao, onset, sample, onSwap)
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	cb := stepEmitter(emit, 0)
	for {
		ctrl, proc, err := feed()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("pcsmon: feed: %w", err)
		}
		if ctrl == nil && proc == nil {
			break
		}
		res, err := oa.Push(ctrl, proc)
		if err != nil {
			return nil, fmt.Errorf("pcsmon: %w", err)
		}
		cb(res)
	}
	rep, err := oa.Finish()
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	if emit != nil {
		emit(VerdictReady{Report: rep, Samples: oa.N()})
	}
	return rep, nil
}

// stepEmitter converts per-observation scoring results into facade events.
func stepEmitter(emit func(StreamEvent), every int) func(core.StepResult) {
	if emit == nil {
		return func(core.StepResult) {}
	}
	return func(res core.StepResult) {
		if every >= 0 && (every <= 1 || res.Index%every == 0) {
			emit(core.ScoredEvent(res))
		}
		if res.CtrlAlarm != nil {
			emit(core.AlarmEvent("controller", *res.CtrlAlarm))
		}
		if res.ProcAlarm != nil {
			emit(core.AlarmEvent("process", *res.ProcAlarm))
		}
	}
}
