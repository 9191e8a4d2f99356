package core

import (
	"fmt"
	"math"
	"time"

	"pcsmon/internal/mspc"
	"pcsmon/internal/omeda"
)

// OnlineAnalyzer is the incremental form of AnalyzeViews: it scores paired
// two-view observations as the plant produces them, latches per-view run-rule
// alarms, buffers only the rolling diagnosis windows the final report needs,
// and accumulates the frozen-channel/divergence evidence sample by sample.
// Memory stays O(DiagnoseWindow) regardless of run length, and callers can
// stop feeding as soon as Settled reports that the verdict can no longer
// change — the hook the early-stop simulation mode and the batch wrapper
// share.
//
// An OnlineAnalyzer monitors a single run and is not safe for concurrent
// use; create one per stream.
type OnlineAnalyzer struct {
	sys    *System
	onset  int
	sample time.Duration
	cols   int

	ctrl viewState
	proc viewState

	n          int // paired stream position (observations pushed)
	firstAlarm int // index of the first post-onset alarm in either view, -1 until then

	win *pairWindow // frozen/diverged evidence, from the earliest RunStart

	contrib ContribScratch // reused by both views' Finish-time diagnosis

	report *Report // cached by Finish; non-nil means the stream is closed
}

// StepResult reports what one Push observed. The per-view points are nil
// when that view had no sample; the alarm fields are non-nil only on the
// exact step where that view's run rule latched a post-onset detection.
//
// The Ctrl/Proc points reference per-analyzer scratch that is overwritten
// by the next Push (like the historian tap's rows) — consumers that hand a
// StepResult to another goroutine or retain it across pushes must copy the
// pointed-to values. The alarm detections are stable.
type StepResult struct {
	Index int
	Ctrl  *mspc.Point
	Proc  *mspc.Point
	// CtrlAlarm/ProcAlarm carry the latched detection on the step it fired.
	CtrlAlarm *mspc.Detection
	ProcAlarm *mspc.Detection
}

// NewOnlineAnalyzer starts an incremental two-view analysis. onset is the
// observation index at which the anomaly is injected (used for run-length
// accounting and pre-onset false-alarm handling; pass 0 if unknown) and
// sample is the observation interval.
func (s *System) NewOnlineAnalyzer(onset int, sample time.Duration) (*OnlineAnalyzer, error) {
	if s == nil || s.monitor == nil {
		return nil, ErrNotCalibrated
	}
	k := s.cfg.RunLength
	cd, err := mspc.NewDetector(s.monitor, k)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pd, err := mspc.NewDetector(s.monitor, k)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &OnlineAnalyzer{
		sys:        s,
		onset:      onset,
		sample:     sample,
		cols:       len(s.monitor.Scaler().Means()),
		ctrl:       newViewState(cd, k),
		proc:       newViewState(pd, k),
		firstAlarm: -1,
	}, nil
}

// Push feeds the next paired observation (engineering units). A nil row
// marks that view's stream as ended; further rows for it are ignored, which
// lets views of unequal length share one pass. Push fails once Finish has
// been called.
func (a *OnlineAnalyzer) Push(ctrlRow, procRow []float64) (StepResult, error) {
	if a.report != nil {
		return StepResult{}, fmt.Errorf("core: push after Finish: %w", ErrBadInput)
	}
	if ctrlRow != nil && len(ctrlRow) != a.cols {
		return StepResult{}, fmt.Errorf("core: controller row has %d vars, want %d: %w", len(ctrlRow), a.cols, ErrBadInput)
	}
	if procRow != nil && len(procRow) != a.cols {
		return StepResult{}, fmt.Errorf("core: process row has %d vars, want %d: %w", len(procRow), a.cols, ErrBadInput)
	}
	idx := a.n
	res := StepResult{Index: idx}
	var cdet, pdet *mspc.Detection
	var err error
	res.Ctrl, cdet, err = a.ctrl.step(ctrlRow)
	if err != nil {
		return StepResult{}, fmt.Errorf("core: detection at row %d: %w", idx, err)
	}
	res.Proc, pdet, err = a.proc.step(procRow)
	if err != nil {
		return StepResult{}, fmt.Errorf("core: detection at row %d: %w", idx, err)
	}
	// Only rows where a view is out of control can be read back: a latched
	// run is over in its own view, and the pair window is seeded over an
	// alarmed run, so both views keep their row wherever either is over.
	if res.Ctrl != nil && res.Ctrl.Over() || res.Proc != nil && res.Proc.Over() {
		a.ctrl.keep(ctrlRow)
		a.proc.keep(procRow)
	}
	if res.Ctrl != nil {
		res.CtrlAlarm = a.ctrl.latch(cdet, ctrlRow, a.onset)
	}
	if res.Proc != nil {
		res.ProcAlarm = a.proc.latch(pdet, procRow, a.onset)
	}
	if a.firstAlarm < 0 && (res.CtrlAlarm != nil || res.ProcAlarm != nil) {
		a.firstAlarm = idx
	}

	// Frozen-channel/divergence evidence: a paired window opened at the
	// earliest detecting view's RunStart, exactly the window the batch
	// analysis judged.
	switch {
	case a.win == nil && (res.CtrlAlarm != nil || res.ProcAlarm != nil):
		start := idx
		if res.CtrlAlarm != nil && res.CtrlAlarm.RunStart < start {
			start = res.CtrlAlarm.RunStart
		}
		if res.ProcAlarm != nil && res.ProcAlarm.RunStart < start {
			start = res.ProcAlarm.RunStart
		}
		//pcslint:ignore hotpath -- the pair window is built once per detection, not per sample
		a.win = newPairWindow(start, a.cols)
		// Seed from the trailing rings: the run rule fired RunLength-1
		// samples after the run began, and every index of the run had a
		// view over its limit, so both views' rows are still buffered.
		for t := start; t <= idx && a.win.n < DiagnoseWindow; t++ {
			cr, pr := a.ctrl.rowAt(t), a.proc.rowAt(t)
			if cr != nil && pr != nil {
				a.win.add(cr, pr)
			}
		}
	case a.win != nil && a.win.n < DiagnoseWindow && idx < a.win.start+DiagnoseWindow &&
		ctrlRow != nil && procRow != nil && !a.ctrl.ended && !a.proc.ended:
		a.win.add(ctrlRow, procRow)
	}
	a.n++
	return res, nil
}

// N returns the number of observations pushed.
func (a *OnlineAnalyzer) N() int { return a.n }

// TrySwap atomically migrates the analyzer to a freshly calibrated system —
// the stream half of the adaptive recalibration swap protocol. The swap is
// applied only when the stream is quiescent: no alarm latched in either
// view, no out-of-control run open, and the paired evidence window not yet
// started — so no detection, diagnosis window or evidence accumulator ever
// mixes two models. Detector state (stream position, pre-onset handling,
// trailing rings) carries over unchanged; a swap to a bit-identical model is
// a no-op on all results.
//
// It returns (false, nil) when the stream is not quiescent — callers retry
// at a later window boundary — and an error only for incompatible systems
// (different dimension or run length) or a finished stream.
func (a *OnlineAnalyzer) TrySwap(sys *System) (bool, error) {
	if sys == nil || sys.monitor == nil {
		return false, ErrNotCalibrated
	}
	if a.report != nil {
		return false, fmt.Errorf("core: swap after Finish: %w", ErrBadInput)
	}
	if dim := sys.monitor.Scaler().Dim(); dim != a.cols {
		return false, fmt.Errorf("core: swap system has %d vars, want %d: %w", dim, a.cols, ErrBadInput)
	}
	if sys.cfg.RunLength != a.sys.cfg.RunLength {
		return false, fmt.Errorf("core: swap system run length %d, want %d: %w", sys.cfg.RunLength, a.sys.cfg.RunLength, ErrBadInput)
	}
	if a.firstAlarm >= 0 || a.win != nil ||
		a.ctrl.detection != nil || a.proc.detection != nil ||
		a.ctrl.det.InRun() || a.proc.det.InRun() {
		return false, nil
	}
	if err := a.ctrl.det.SwapMonitor(sys.monitor); err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	if err := a.proc.det.SwapMonitor(sys.monitor); err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	a.sys = sys
	return true, nil
}

// Detected reports whether either view has latched a post-onset alarm.
func (a *OnlineAnalyzer) Detected() bool { return a.firstAlarm >= 0 }

// Settled reports that the final report can no longer change: both views
// have latched detections and every evidence window is full. Callers may
// stop feeding (and stop simulating) once it returns true.
func (a *OnlineAnalyzer) Settled() bool {
	return a.ctrl.settled() && a.proc.settled() &&
		(a.win == nil && a.ctrl.ended && a.proc.ended || a.win != nil && a.win.n >= DiagnoseWindow)
}

// Finish closes the stream, runs diagnosis over the buffered windows and
// classifies. It is idempotent: subsequent calls return the same report.
func (a *OnlineAnalyzer) Finish() (*Report, error) {
	if a.report != nil {
		return a.report, nil
	}
	if a.n == 0 {
		return nil, fmt.Errorf("core: empty stream: %w", ErrBadInput)
	}
	cv, err := a.ctrl.analysis(a.sys, a.onset, a.sample, &a.contrib)
	if err != nil {
		return nil, err
	}
	pv, err := a.proc.analysis(a.sys, a.onset, a.sample, &a.contrib)
	if err != nil {
		return nil, err
	}
	rep := &Report{Controller: *cv, Process: *pv, AttackedVar: -1}
	a.sys.applyPairEvidence(rep, a.win)
	a.sys.classify(rep)
	a.report = rep
	return rep, nil
}

// viewState is the per-view half of the analyzer: the run-rule detector, a
// trailing ring of this view's rows at the last RunLength stream indices
// (so the start of a just-latched run can be recovered), and the
// diagnosis-window buffer. The ring holds only the rows of indices where
// either view was out of control — the only rows rowAt is asked for — so an
// in-control stream copies nothing into it.
type viewState struct {
	det       *mspc.Detector
	n         int // rows consumed; the current row's index is n-1
	ended     bool
	ring      [][]float64 // kept rows keyed by index % RunLength (reused buffers)
	ringAt    []int       // stream index of each ring slot's row, -1 if none
	diag      [][]float64 // rows [RunStart, RunStart+DiagnoseWindow)
	detection *mspc.Detection
	pt        mspc.Point // scratch for the returned step point (reused)
}

func newViewState(det *mspc.Detector, k int) viewState {
	v := viewState{det: det, ring: make([][]float64, k), ringAt: make([]int, k)}
	for i := range v.ringAt {
		v.ringAt[i] = -1
	}
	return v
}

// step scores row on the view's charts. A nil row ends the view; an ended
// view scores nothing. The point is nil when no row was scored; the
// detection is the detector's latched one, if any, for latch to handle.
func (v *viewState) step(row []float64) (*mspc.Point, *mspc.Detection, error) {
	if row == nil {
		v.ended = true
		return nil, nil, nil
	}
	if v.ended {
		return nil, nil, nil
	}
	v.n++
	pt, det, err := v.det.Step(row)
	if err != nil {
		return nil, nil, err
	}
	v.pt = pt
	return &v.pt, det, nil
}

// keep stores the row step just scored in the trailing ring. It does
// nothing when the view had no row this step.
func (v *viewState) keep(row []float64) {
	if row == nil || v.ended {
		return
	}
	t := v.n - 1
	slot := t % len(v.ring)
	if v.ring[slot] == nil {
		//pcslint:ignore hotpath -- ring slots are laid down once, at the first out-of-control indices; every later keep reuses them
		v.ring[slot] = make([]float64, len(row))
	}
	copy(v.ring[slot], row)
	v.ringAt[slot] = t
}

// latch handles the detection step returned for row: a pre-onset alarm is
// discarded, the first post-onset one is snapshotted with its run's rows
// seeding the diagnosis window, which later rows fill. It returns the
// detection on the step it latched.
func (v *viewState) latch(det *mspc.Detection, row []float64, onset int) *mspc.Detection {
	switch {
	case det != nil && v.detection == nil:
		if det.Index < onset {
			// Pre-onset alarm: note nothing, keep scanning for the real
			// event.
			v.det.Discard()
			return nil
		}
		d := *det
		//pcslint:ignore hotpath -- detection snapshot: runs once per alarm, never on the per-sample path
		d.Charts = append([]mspc.Chart(nil), det.Charts...)
		v.detection = &d
		for t := d.RunStart; t < v.n && len(v.diag) < DiagnoseWindow; t++ {
			//pcslint:ignore hotpath -- diagnosis rows are copied only while an alarm is being worked up (bounded by DiagnoseWindow)
			v.diag = append(v.diag, append([]float64(nil), v.rowAt(t)...))
		}
		return v.detection
	case v.detection != nil && len(v.diag) < DiagnoseWindow:
		//pcslint:ignore hotpath -- diagnosis rows are copied only while an alarm is being worked up (bounded by DiagnoseWindow)
		v.diag = append(v.diag, append([]float64(nil), row...))
	}
	return nil
}

// rowAt returns the kept row at stream index t, or nil when t has fallen
// out of the trailing ring, was never consumed, or had no view out of
// control.
func (v *viewState) rowAt(t int) []float64 {
	k := len(v.ring)
	if t < v.n-k || t >= v.n || t < 0 || v.ringAt[t%k] != t {
		return nil
	}
	return v.ring[t%k]
}

func (v *viewState) settled() bool {
	return v.ended || (v.detection != nil && len(v.diag) >= DiagnoseWindow)
}

// analysis freezes the per-view result: detection bookkeeping plus oMEDA
// and classical contribution diagnosis over the buffered window.
func (v *viewState) analysis(s *System, onset int, sample time.Duration, cs *ContribScratch) (*ViewAnalysis, error) {
	va := &ViewAnalysis{}
	if v.detection == nil {
		return va, nil
	}
	va.Detected = true
	va.DetectionIndex = v.detection.Index
	va.RunStart = v.detection.RunStart
	va.RunLengthSamples = v.detection.Index - onset + 1
	va.Time = time.Duration(va.RunLengthSamples) * sample
	va.Charts = append([]mspc.Chart(nil), v.detection.Charts...)
	vals, err := s.DiagnoseGroup(v.diag)
	if err != nil {
		return nil, err
	}
	va.OMEDA = vals
	va.Top, err = omeda.TopVariables(vals, topFrac)
	if err != nil {
		return nil, err
	}
	va.Dominance = omeda.DominanceRatio(vals)
	va.Contrib, err = s.ContributeInto(v.diag, cs)
	if err != nil {
		return nil, err
	}
	return va, nil
}

// pairWindow accumulates per-column first and second moments of both views
// over the diagnosis window — everything the frozen-channel and divergence
// checks need, without retaining the rows.
type pairWindow struct {
	start, n             int
	sumC, sqC, sumP, sqP []float64
}

func newPairWindow(start, cols int) *pairWindow {
	return &pairWindow{
		start: start,
		sumC:  make([]float64, cols), sqC: make([]float64, cols),
		sumP: make([]float64, cols), sqP: make([]float64, cols),
	}
}

func (w *pairWindow) add(cr, pr []float64) {
	for j := range w.sumC {
		w.sumC[j] += cr[j]
		w.sqC[j] += cr[j] * cr[j]
		w.sumP[j] += pr[j]
		w.sqP[j] += pr[j] * pr[j]
	}
	w.n++
}

// stdMean returns the window standard deviation and mean of column j for
// one view's accumulated moments.
func (w *pairWindow) stdMean(sum, sq []float64, j int) (std, mean float64) {
	n := float64(w.n)
	mean = sum[j] / n
	varr := sq[j]/n - mean*mean
	if varr < 0 {
		varr = 0
	}
	return math.Sqrt(varr), mean
}

// applyPairEvidence fills Report.FrozenProc/FrozenCtrl/Diverged from the
// accumulated paired window: channels whose variance collapsed in one view
// while the views drifted apart (the hold-last-value signature) and
// channels whose views diverged outright.
func (s *System) applyPairEvidence(rep *Report, w *pairWindow) {
	if w == nil || w.n < 4 {
		return // no detection, or too few samples to judge variance
	}
	calStds := s.monitor.Scaler().Stds()
	calMeans := s.monitor.Scaler().Means()
	const (
		frozenFrac = 0.05 // window std below this fraction of calibration std
		// divergeSigmas: the two views must have drifted apart — a channel
		// frozen *and* agreeing with its peer view is just quiet.
		divergeSigmas = 1.0
		// nearSigmas: a *held* value sits near the recent (in-distribution)
		// signal; a constant forged far from the calibration mean is an
		// integrity payload, not a hold-last-value DoS.
		nearSigmas = 4.0
	)
	for j := range w.sumC {
		if s.calCov.At(j, j) <= minUsefulStd*minUsefulStd {
			continue // channel constant already in calibration
		}
		sc, mc := w.stdMean(w.sumC, w.sqC, j)
		sp, mp := w.stdMean(w.sumP, w.sqP, j)
		diverged := math.Abs(mc-mp) > divergeSigmas*calStds[j]
		if diverged {
			rep.Diverged = append(rep.Diverged, j)
		}
		if sp < frozenFrac*calStds[j] && diverged &&
			math.Abs(mp-calMeans[j]) <= nearSigmas*calStds[j] {
			rep.FrozenProc = append(rep.FrozenProc, j)
		}
		if sc < frozenFrac*calStds[j] && diverged &&
			math.Abs(mc-calMeans[j]) <= nearSigmas*calStds[j] {
			rep.FrozenCtrl = append(rep.FrozenCtrl, j)
		}
	}
}
