package adapt

import (
	"fmt"
	"time"

	"pcsmon/internal/core"
)

// Scorer is the common surface of a frozen core.OnlineAnalyzer and an
// adaptive Analyzer — what the facade's feed loop programs against so one
// code path serves both engines.
type Scorer interface {
	Push(ctrl, proc []float64) (core.StepResult, error)
	Finish() (*core.Report, error)
	N() int
}

// NewScorer returns the scoring engine a stream should run against sys: a
// plain frozen OnlineAnalyzer when opts is nil or disabled, otherwise a
// fresh Tracker plus adaptive Analyzer (onSwap observes accepted swaps).
func NewScorer(sys *core.System, opts *Options, onset int, sample time.Duration, onSwap func(Swap)) (Scorer, error) {
	if opts == nil || !opts.Enabled {
		oa, err := sys.NewOnlineAnalyzer(onset, sample)
		if err != nil {
			return nil, fmt.Errorf("adapt: %w", err)
		}
		return oa, nil
	}
	tracker, err := NewTracker(sys, *opts)
	if err != nil {
		return nil, err
	}
	return NewAnalyzer(tracker, onset, sample, onSwap)
}

// Analyzer couples one core.OnlineAnalyzer with a model Tracker: every
// pushed observation is scored by the current model, offered to the learn
// guard, and — at diagnosis-window boundaries — the stream migrates to any
// newer model generation the tracker has published. It is the lone-stream
// form of the swap protocol; the fleet pool implements the same protocol
// per stream across its workers against one shared Tracker.
//
// An Analyzer is confined to one goroutine, like the OnlineAnalyzer it
// wraps; the Tracker it shares may serve any number of them.
type Analyzer struct {
	tracker *Tracker
	oa      *core.OnlineAnalyzer
	window  int
	gen     uint64
	onSwap  func(Swap)
}

// NewAnalyzer starts an adaptive two-view analysis against the tracker's
// current model. onset and sample have core.NewOnlineAnalyzer semantics;
// onSwap — if non-nil — observes every accepted swap of this stream.
func NewAnalyzer(t *Tracker, onset int, sample time.Duration, onSwap func(Swap)) (*Analyzer, error) {
	if t == nil {
		return nil, fmt.Errorf("adapt: nil tracker: %w", ErrBadConfig)
	}
	sys, gen := t.System()
	oa, err := sys.NewOnlineAnalyzer(onset, sample)
	if err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	w := sys.Config().DiagnoseWindow
	if w < 1 {
		w = 1
	}
	return &Analyzer{tracker: t, oa: oa, window: w, gen: gen, onSwap: onSwap}, nil
}

// Push scores the next paired observation, feeds the learn guard, refits
// when the cadence is due and swaps at window boundaries (Tracker.Step).
// The returned StepResult has core.OnlineAnalyzer.Push semantics
// (scratch-backed points).
func (a *Analyzer) Push(ctrl, proc []float64) (core.StepResult, error) {
	res, err := a.oa.Push(ctrl, proc)
	if err != nil {
		return res, err
	}
	var swap *Swap
	a.gen, swap = a.tracker.Step(a.oa, res, ctrl, proc, a.window, a.gen)
	if swap != nil && a.onSwap != nil {
		a.onSwap(*swap)
	}
	return res, nil
}

// Finish closes the stream and returns the classified report (idempotent).
func (a *Analyzer) Finish() (*core.Report, error) { return a.oa.Finish() }

// N returns the number of observations pushed.
func (a *Analyzer) N() int { return a.oa.N() }
