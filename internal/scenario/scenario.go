// Package scenario defines the paper's experimental scenarios and the
// multi-run executor that reproduces its evaluation protocol: calibrate the
// MSPC model on NOC runs, then run each anomalous situation several times
// (the paper uses ten), measure the run length to detection (ARL), pool the
// first out-of-control observations across runs, and compute the
// controller-view and process-view oMEDA profiles (the paper's Figures 4
// and 5).
package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pcsmon/internal/attack"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
	"pcsmon/internal/mat"
	"pcsmon/internal/plant"
	"pcsmon/internal/te"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid experiment parameters.
	ErrBadConfig = errors.New("scenario: invalid configuration")
)

// DriftSpec schedules gradual NOC aging: from StartHour each listed
// observation column drifts linearly at SigmaPerHour calibration standard
// deviations per hour, identically in both recorded views (aging is not an
// attack) and invisibly to the control loop. The experiment converts the
// σ-denominated rates into engineering units using the calibrated system's
// scaler, so one spec is meaningful across plants.
type DriftSpec struct {
	// StartHour is when the aging begins.
	StartHour float64
	// SigmaPerHour is the drift rate in calibration σ per hour.
	SigmaPerHour float64
	// Channels lists the observation columns that age.
	Channels []int
}

func (d DriftSpec) active() bool { return d.SigmaPerHour != 0 && len(d.Channels) > 0 }

// Scenario is one anomalous situation.
type Scenario struct {
	// Key is a short machine-friendly identifier ("idv6", "xmv3-integrity",
	// …).
	Key string
	// Name is the human-readable description.
	Name string
	// IDVs schedules process disturbances.
	IDVs []plant.IDVEvent
	// Attacks is the adversary plan.
	Attacks []attack.Spec
	// Drift schedules gradual NOC aging (slow plant/sensor drift).
	Drift DriftSpec
	// Expected is the ground-truth verdict (for scoring the classifier).
	Expected core.Verdict
	// AttackedVar is the ground-truth forged observation column (-1 for
	// none).
	AttackedVar int
}

// PaperScenarios returns the four evaluation scenarios of §V with the
// anomaly starting at onsetHour:
//
//	(a) disturbance IDV(6)            — A feed loss
//	(b) integrity attack on XMV(3)    — attacker closes the A feed valve
//	(c) integrity attack on XMEAS(1)  — attacker reports zero A flow
//	(d) DoS on XMV(3)                 — commands to the valve are dropped
func PaperScenarios(onsetHour float64) []Scenario {
	xmv3 := te.NumXMEAS + te.XmvAFeed
	return []Scenario{
		{
			Key:         "idv6",
			Name:        "Disturbance IDV(6): A feed loss",
			IDVs:        []plant.IDVEvent{{Index: 5, StartHour: onsetHour}},
			Expected:    core.VerdictDisturbance,
			AttackedVar: -1,
		},
		{
			Key:  "xmv3-integrity",
			Name: "Integrity attack on XMV(3): valve forced closed",
			Attacks: []attack.Spec{{
				Kind:      attack.Integrity,
				Direction: attack.ActuatorLink,
				Channel:   te.XmvAFeed,
				StartHour: onsetHour,
				Value:     0,
			}},
			Expected:    core.VerdictIntegrityAttack,
			AttackedVar: xmv3,
		},
		{
			Key:  "xmeas1-integrity",
			Name: "Integrity attack on XMEAS(1): zero flow reported",
			Attacks: []attack.Spec{{
				Kind:      attack.Integrity,
				Direction: attack.SensorLink,
				Channel:   te.XmeasAFeed,
				StartHour: onsetHour,
				Value:     0,
			}},
			Expected:    core.VerdictIntegrityAttack,
			AttackedVar: te.XmeasAFeed,
		},
		{
			Key:  "xmv3-dos",
			Name: "DoS attack on XMV(3): hold last value",
			Attacks: []attack.Spec{{
				Kind:      attack.DoS,
				Direction: attack.ActuatorLink,
				Channel:   te.XmvAFeed,
				StartHour: onsetHour,
			}},
			Expected:    core.VerdictDoS,
			AttackedVar: xmv3,
		},
	}
}

// Experiment holds everything needed to execute scenarios.
type Experiment struct {
	// Template is the warmed-up plant.
	Template *plant.Template
	// System is the calibrated two-view monitor.
	System *core.System
	// Hours is the run duration (paper: 72).
	Hours float64
	// OnsetHour is when anomalies begin (paper: 10).
	OnsetHour float64
	// Decimate thins the historian (1 = paper cadence).
	Decimate int
	// SeedBase offsets run seeds so scenarios are independent.
	SeedBase int64
	// Workers bounds parallel runs (0 = GOMAXPROCS).
	Workers int
}

// validate checks the experiment parameters, wrapping ErrBadConfig.
func (e *Experiment) validate(runs int) error {
	switch {
	case e.Template == nil || e.System == nil:
		return fmt.Errorf("scenario: experiment not initialized: %w", ErrBadConfig)
	case runs < 1:
		return fmt.Errorf("scenario: runs=%d: %w", runs, ErrBadConfig)
	case e.Hours <= 0:
		return fmt.Errorf("scenario: hours=%g: %w", e.Hours, ErrBadConfig)
	case e.OnsetHour < 0:
		return fmt.Errorf("scenario: onset hour %g: %w", e.OnsetHour, ErrBadConfig)
	case e.Decimate < 0:
		return fmt.Errorf("scenario: decimate %d: %w", e.Decimate, ErrBadConfig)
	case e.Workers < 0:
		return fmt.Errorf("scenario: workers %d: %w", e.Workers, ErrBadConfig)
	}
	return nil
}

// runConfig turns a scenario into one run's plant configuration, converting
// any σ-denominated drift spec into engineering units with the calibrated
// scaler — the single place batch and feed runs share.
func (e *Experiment) runConfig(sc Scenario, seed int64, decimate int) (plant.RunConfig, error) {
	cfg := plant.RunConfig{
		Seed:     seed,
		IDVs:     sc.IDVs,
		Attacks:  sc.Attacks,
		Decimate: decimate,
	}
	if !sc.Drift.active() {
		return cfg, nil
	}
	if sc.Drift.SigmaPerHour < 0 || sc.Drift.StartHour < 0 {
		return cfg, fmt.Errorf("scenario: drift rate %g from hour %g: %w",
			sc.Drift.SigmaPerHour, sc.Drift.StartHour, ErrBadConfig)
	}
	stds := e.System.Monitor().Scaler().Stds()
	per := make([]float64, historian.NumVars)
	for _, j := range sc.Drift.Channels {
		if j < 0 || j >= historian.NumVars {
			return cfg, fmt.Errorf("scenario: drift channel %d: %w", j, ErrBadConfig)
		}
		per[j] = sc.Drift.SigmaPerHour * stds[j]
	}
	cfg.Drift = plant.DriftSpec{StartHour: sc.Drift.StartHour, PerHour: per}
	return cfg, nil
}

// geometry derives the per-observation interval and the onset index from
// the sampling and decimation settings.
func (e *Experiment) geometry() (decimate int, sample time.Duration, onsetIdx int) {
	decimate = e.Decimate
	if decimate < 1 {
		decimate = 1
	}
	step := e.Template.StepSeconds() * float64(decimate)
	sample = time.Duration(step * float64(time.Second))
	onsetIdx = int(e.OnsetHour * 3600 / step)
	return decimate, sample, onsetIdx
}

// CalibrationResult carries the calibrated system plus the statistics the
// charts need.
type CalibrationResult struct {
	System *core.System
	// Observations is the total number of calibration observations.
	Observations int
}

// Calibrate runs `runs` NOC simulations from the template and calibrates
// the monitoring system on the pooled observations. Each run folds its rows
// into its own mat.Moments as it finishes and the runs' moments are merged
// in run-index order, so the model does not depend on which run finishes
// first, and memory stays O(M²) per run regardless of scale.
func Calibrate(tmpl *plant.Template, runs int, hours float64, decimate int, seedBase int64, cfg core.Config) (*CalibrationResult, error) {
	if tmpl == nil || runs < 1 || hours <= 0 {
		return nil, fmt.Errorf("scenario: calibration needs a template, runs ≥ 1 and hours > 0: %w", ErrBadConfig)
	}
	if decimate < 0 {
		return nil, fmt.Errorf("scenario: decimate %d: %w", decimate, ErrBadConfig)
	}
	parts := make([]*mat.Moments, runs)
	if err := forEachRun(runs, 0, func(i int) error {
		run, err := tmpl.NewRun(plant.RunConfig{Seed: seedBase + int64(i), Decimate: decimate})
		if err != nil {
			return err
		}
		completed, err := run.RunHours(hours)
		if err != nil {
			return err
		}
		if !completed {
			return fmt.Errorf("scenario: NOC calibration run %d tripped (%s): %w",
				i, run.ShutdownReason(), ErrBadConfig)
		}
		acc, err := mat.NewMoments(historian.NumVars, 1)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		d := run.Views().Process.Data()
		for r := 0; r < d.Rows(); r++ {
			if err := acc.Add(d.RowView(r)); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
		}
		parts[i] = acc
		return nil
	}); err != nil {
		return nil, err
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		if err := acc.Merge(p); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	sys, err := core.CalibrateMoments(acc, cfg)
	if err != nil {
		return nil, err
	}
	return &CalibrationResult{System: sys, Observations: acc.N()}, nil
}

// RunOutcome is the result of one scenario run.
type RunOutcome struct {
	Seed         int64
	Report       *core.Report
	Shutdown     bool
	ShutdownHour float64
	// Samples is the number of retained observations the run scored.
	Samples int
	// FirstOOCCtrl/Proc are the diagnosis-window observations of each view
	// (pooled by the caller across runs for the paper's Figures 4/5).
	FirstOOCCtrl [][]float64
	FirstOOCProc [][]float64
}

// Result aggregates a scenario over its runs.
type Result struct {
	Scenario Scenario
	Runs     []RunOutcome
	// DetectionRate is the fraction of runs with a detection in either
	// view.
	DetectionRate float64
	// MeanRunLength averages the per-run detection delay (over detecting
	// runs, using the earliest-detecting view).
	MeanRunLength time.Duration
	// PooledOMEDACtrl/Proc are oMEDA profiles over the pooled
	// first-out-of-control observations of all runs — the paper's plotted
	// quantity.
	PooledOMEDACtrl []float64
	PooledOMEDAProc []float64
	// Verdicts counts classifier outcomes across runs.
	Verdicts map[core.Verdict]int
	// Correct is the fraction of runs with the expected verdict.
	Correct float64
}

// Run executes one scenario `runs` times in parallel and aggregates: each
// run is recorded in full and analyzed by the batch wrapper.
func (e *Experiment) Run(sc Scenario, runs int) (*Result, error) {
	if err := e.validate(runs); err != nil {
		return nil, err
	}
	outcomes := make([]RunOutcome, runs)
	if err := forEachRun(runs, e.Workers, func(i int) error {
		out, err := e.batchOne(sc, e.RunSeed(int64(i)))
		if err != nil {
			return err
		}
		outcomes[i] = *out
		return nil
	}); err != nil {
		return nil, err
	}
	return e.aggregate(sc, runs, outcomes)
}

// RunSeed derives the plant seed of run i — the one formula shared by Run
// and by Feed callers that want to replay a specific run.
func (e *Experiment) RunSeed(i int64) int64 { return e.SeedBase + 1000 + i }

// batchOne simulates one full run, records both views and analyzes them
// afterwards — the paper's original record-then-read protocol.
func (e *Experiment) batchOne(sc Scenario, seed int64) (*RunOutcome, error) {
	decimate, sample, onsetIdx := e.geometry()
	cfg, err := e.runConfig(sc, seed, decimate)
	if err != nil {
		return nil, err
	}
	run, err := e.Template.NewRun(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := run.RunHours(e.Hours); err != nil {
		return nil, err
	}
	ctrl := run.Views().Controller.Data()
	proc := run.Views().Process.Data()
	rep, err := e.System.AnalyzeViews(ctrl, proc, onsetIdx, sample)
	if err != nil {
		return nil, err
	}
	out := &RunOutcome{
		Seed:     seed,
		Report:   rep,
		Shutdown: run.Shutdown(),
		Samples:  ctrl.Rows(),
	}
	if run.Shutdown() {
		out.ShutdownHour = run.Hours()
	}
	out.FirstOOCCtrl = diagnosisWindow(ctrl, rep.Controller)
	out.FirstOOCProc = diagnosisWindow(proc, rep.Process)
	return out, nil
}

// OnsetIndex returns the retained-observation index at which the
// scenario's anomaly begins under the experiment's sampling geometry —
// what streaming consumers that hold their own analyzers (the fleet pool)
// pass to NewOnlineAnalyzer.
//
//pcslint:ignore dead-export -- oracle: TestClusterTwoNodeParity checks control.Config's onset index against it
func (e *Experiment) OnsetIndex() int {
	_, _, onsetIdx := e.geometry()
	return onsetIdx
}

// SampleInterval returns the retained-observation interval under the
// experiment's sampling geometry.
//
//pcslint:ignore dead-export -- oracle: TestClusterTwoNodeParity derives control.Config's sample cadence from it
func (e *Experiment) SampleInterval() time.Duration {
	_, sample, _ := e.geometry()
	return sample
}

// FeedOutcome reports how a Feed simulation ended.
type FeedOutcome struct {
	// Shutdown reports that the plant tripped before the horizon.
	Shutdown bool
	// Hours is the simulated duration actually reached.
	Hours float64
}

// Feed simulates one run of sc and delivers every retained paired
// observation to tap in order — the simulation-only counterpart of Run for
// consumers that hold their own analyzers (the fleet pool scores many Feed
// streams against one shared system). The tap's rows are reused
// buffers, valid only for the duration of the call; an error returned by
// the tap aborts the simulation and propagates.
func (e *Experiment) Feed(sc Scenario, seed int64, tap historian.Tap) (*FeedOutcome, error) {
	if err := e.validate(1); err != nil {
		return nil, err
	}
	if tap == nil {
		return nil, fmt.Errorf("scenario: nil tap: %w", ErrBadConfig)
	}
	decimate, _, _ := e.geometry()
	cfg, err := e.runConfig(sc, seed, decimate)
	if err != nil {
		return nil, err
	}
	run, err := e.Template.NewRun(cfg)
	if err != nil {
		return nil, err
	}
	views := run.Views()
	views.SetRetain(false)
	views.SetTap(tap)
	for run.Hours() < e.Hours {
		if err := run.Step(); err != nil {
			if errors.Is(err, te.ErrShutdown) {
				break
			}
			return nil, err
		}
	}
	return &FeedOutcome{Shutdown: run.Shutdown(), Hours: run.Hours()}, nil
}

// aggregate folds per-run outcomes into the scenario-level Result,
// including the pooled oMEDA profiles the paper plots.
func (e *Experiment) aggregate(sc Scenario, runs int, outcomes []RunOutcome) (*Result, error) {
	res := &Result{
		Scenario: sc,
		Runs:     outcomes,
		Verdicts: make(map[core.Verdict]int, 4),
	}
	var detRuns, correct int
	var sumRL time.Duration
	var pooledCtrl, pooledProc [][]float64
	for _, out := range outcomes {
		res.Verdicts[out.Report.Verdict]++
		if out.Report.Verdict == sc.Expected {
			correct++
		}
		cd, pd := out.Report.Controller, out.Report.Process
		if cd.Detected || pd.Detected {
			detRuns++
			rl := cd.Time
			if !cd.Detected || (pd.Detected && pd.Time < rl) {
				rl = pd.Time
			}
			sumRL += rl
		}
		pooledCtrl = append(pooledCtrl, out.FirstOOCCtrl...)
		pooledProc = append(pooledProc, out.FirstOOCProc...)
	}
	res.DetectionRate = float64(detRuns) / float64(runs)
	if detRuns > 0 {
		res.MeanRunLength = sumRL / time.Duration(detRuns)
	}
	res.Correct = float64(correct) / float64(runs)
	if len(pooledCtrl) > 0 {
		v, err := e.System.DiagnoseGroup(pooledCtrl)
		if err != nil {
			return nil, err
		}
		res.PooledOMEDACtrl = v
	}
	if len(pooledProc) > 0 {
		v, err := e.System.DiagnoseGroup(pooledProc)
		if err != nil {
			return nil, err
		}
		res.PooledOMEDAProc = v
	}
	return res, nil
}

func diagnosisWindow(view *dataset.Dataset, va core.ViewAnalysis) [][]float64 {
	if !va.Detected {
		return nil
	}
	end := va.RunStart + core.DiagnoseWindow
	if end > view.Rows() {
		end = view.Rows()
	}
	rows := make([][]float64, 0, end-va.RunStart)
	for i := va.RunStart; i < end; i++ {
		rows = append(rows, view.Row(i))
	}
	return rows
}

// forEachRun executes fn(0..n-1) on a bounded worker pool, returning the
// first error.
func forEachRun(n, workers int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	sem := make(chan struct{}, workers)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}
