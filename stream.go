package pcsmon

import (
	"errors"
	"fmt"
	"io"
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

// StreamFeed supplies successive paired observations (engineering units,
// 41 XMEAS + 12 XMV columns each). Returning io.EOF — or two nil rows — ends the
// stream. A single-view feed may return the same slice for both views.
type StreamFeed func() (ctrl, proc []float64, err error)

// StreamAdaptive scores an arbitrary feed of paired observations against a
// calibrated system — the facade over core.OnlineAnalyzer that mspctool's
// watch mode uses. onset is the observation index at which an anomaly is
// known to begin (0 if unknown) and sample is the observation interval.
// With ao enabled, the adaptive recalibration layer runs on the stream: a
// fresh model tracker learns from its in-control observations, refits on
// the configured cadence and swaps models at diagnosis-window boundaries,
// emitting ModelSwapped events; the zero AdaptiveOptions keeps the paper's
// frozen model. The final report is returned after the feed ends; emit —
// if non-nil — sees the live event stream.
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
	cb := stepEmitter(emit)
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
func stepEmitter(emit func(StreamEvent)) func(core.StepResult) {
	if emit == nil {
		return func(core.StepResult) {}
	}
	return func(res core.StepResult) {
		emit(core.ScoredEvent(res))
		if res.CtrlAlarm != nil {
			emit(core.AlarmEvent("controller", *res.CtrlAlarm))
		}
		if res.ProcAlarm != nil {
			emit(core.AlarmEvent("process", *res.ProcAlarm))
		}
	}
}
