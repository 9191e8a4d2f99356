package core

import "pcsmon/internal/mspc"

// StreamEvent is a typed event of one monitored stream — the vocabulary
// the scoring pool emits and the control plane publishes on its SSE feed.
// The concrete types are *SampleScored, AlarmRaised, ModelSwapped and
// VerdictReady.
type StreamEvent interface{ streamEvent() }

// SampleScored reports the two charts' statistics for one scored
// observation — what an operator's live D/Q control charts would plot.
type SampleScored struct {
	// Index is the observation index in the monitored stream.
	Index int
	// CtrlD/CtrlQ and ProcD/ProcQ are the D (Hotelling T²) and Q (SPE)
	// statistics of the controller and process views.
	CtrlD, CtrlQ float64
	ProcD, ProcQ float64
	// CtrlOver/ProcOver report whether the view exceeded a 99 % action
	// limit in either chart at this observation.
	CtrlOver, ProcOver bool
}

// AlarmRaised reports that one view's run rule latched a detection: the
// K-th consecutive out-of-control observation after onset.
type AlarmRaised struct {
	// View is "controller" or "process".
	View string
	// Index is the observation at which the run rule fired; RunStart is
	// the first observation of the out-of-control run.
	Index    int
	RunStart int
	// Charts lists which statistic(s) were out of control ("D", "Q").
	Charts []string
}

// ModelSwapped reports that the adaptive recalibration layer migrated the
// stream to a freshly refitted model at a diagnosis-window boundary.
type ModelSwapped struct {
	// Index is the observation index of the boundary the swap landed on.
	Index int
	// Generation is the model generation now scoring the stream (the
	// calibration-time model is generation 0).
	Generation uint64
	// D99 and Q99 are the new model's 99 % control limits.
	D99, Q99 float64
}

// VerdictReady carries the final classified report when the stream ends.
type VerdictReady struct {
	Report *Report
	// Samples is the number of observations scored.
	Samples int
	// Err is non-nil when the stream failed (e.g. it ended before any
	// observation); Report is nil then.
	Err error
}

// SampleScored is an event only by pointer: the scoring pool recycles it,
// and a consumer switching on the value type would miss every one.
func (*SampleScored) streamEvent() {}
func (AlarmRaised) streamEvent()   {}
func (ModelSwapped) streamEvent()  {}
func (VerdictReady) streamEvent()  {}

// ScoredEvent converts one scoring step into its chart-statistics event.
func ScoredEvent(res StepResult) SampleScored {
	ev := SampleScored{Index: res.Index}
	if res.Ctrl != nil {
		ev.CtrlD, ev.CtrlQ = res.Ctrl.Stats.D, res.Ctrl.Stats.Q
		ev.CtrlOver = res.Ctrl.Over()
	}
	if res.Proc != nil {
		ev.ProcD, ev.ProcQ = res.Proc.Stats.D, res.Proc.Stats.Q
		ev.ProcOver = res.Proc.Over()
	}
	return ev
}

// AlarmEvent converts one view's latched detection into its alarm event.
func AlarmEvent(view string, d mspc.Detection) AlarmRaised {
	out := AlarmRaised{View: view, Index: d.Index, RunStart: d.RunStart}
	for _, c := range d.Charts {
		out.Charts = append(out.Charts, c.String())
	}
	return out
}
