// Package core implements the paper's contribution: an anomaly detection
// and diagnosis system for process control systems that distinguishes
// process disturbances from intrusions by monitoring *two views* of the
// same plant data with one MSPC model:
//
//   - the controller view (what controllers receive and send — forgeable
//     by a man-in-the-middle), and
//   - the process view (what the sensors actually measured and the
//     actuators actually received).
//
// Detection is classical PCA-based MSPC (D/T² and Q/SPE charts, 99 %
// limits, three-consecutive run rule). Diagnosis computes oMEDA bar
// profiles per view over the first out-of-control observations. The
// classifier then exploits a simple physical truth: a variable cannot be
// simultaneously above normal in one view and below normal in the other —
// a sign flip across views on an implicated variable localizes a forged
// channel. Agreement across views indicates a genuine disturbance, and a
// diffuse profile with slow detection is the DoS signature the paper
// reports.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
	"pcsmon/internal/mat"
	"pcsmon/internal/mspc"
	"pcsmon/internal/omeda"
)

// Package-level sentinel errors.
var (
	// ErrBadInput is returned for malformed inputs.
	ErrBadInput = errors.New("core: invalid input")
	// ErrNotCalibrated is returned when analysis is attempted before
	// calibration.
	ErrNotCalibrated = errors.New("core: system not calibrated")
	// ErrBadConfig is the module's configuration sentinel: the facade
	// (pcsmon.ErrBadConfig), the control plane and the commands all wrap
	// this one value, so errors.Is holds across packages.
	ErrBadConfig = errors.New("pcsmon: invalid configuration")
)

// Verdict is the classifier's conclusion about an anomaly.
type Verdict int

// Possible verdicts.
const (
	// VerdictNormal: no anomaly detected in either view.
	VerdictNormal Verdict = iota + 1
	// VerdictDisturbance: anomaly with consistent diagnosis across views —
	// a genuine process disturbance or fault.
	VerdictDisturbance
	// VerdictIntegrityAttack: the two views disagree about an implicated
	// variable's deviation direction — a forged channel.
	VerdictIntegrityAttack
	// VerdictDoS: controller-side anomaly with a silent or inconsistent
	// process side and/or a diffuse diagnosis with slow detection —
	// consistent with a hold-last-value denial of service.
	VerdictDoS
	// VerdictAnomaly: detected but not classifiable by the rules.
	VerdictAnomaly
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictNormal:
		return "normal"
	case VerdictDisturbance:
		return "disturbance"
	case VerdictIntegrityAttack:
		return "integrity-attack"
	case VerdictDoS:
		return "dos-attack"
	case VerdictAnomaly:
		return "anomaly"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Config parameterizes the system. The zero value selects the paper's
// settings.
type Config struct {
	// Components fixes the number of principal components (0 = select by
	// the 90 % cumulative-variance rule).
	Components int
	// RunLength is the run rule length (0 = the paper's 3 consecutive
	// observations beyond the 99 % limit).
	RunLength int
	// SPEMethod selects the Q-limit method (0 = Jackson–Mudholkar).
	SPEMethod mspc.SPEMethod
}

func (c Config) withDefaults() Config {
	if c.RunLength == 0 {
		c.RunLength = mspc.DefaultRunLength
	}
	return c
}

// DiagnoseWindow is the number of observations from the start of the
// out-of-control run that diagnosis (oMEDA, contributions, the
// frozen/diverged evidence) judges.
const DiagnoseWindow = 20

// The classifier's fixed thresholds.
const (
	// topFrac: variables with |bar| ≥ topFrac·max|bar| count as implicated.
	topFrac = 0.5
	// dominanceMin: below this oMEDA dominance ratio a diagnosis counts as
	// diffuse — the DoS signature.
	dominanceMin = 15
	// slowSamples: detections with run length beyond this many samples
	// count as slow, reinforcing the DoS verdict (~9 minutes at the
	// paper's 1.8 s cadence).
	slowSamples = 300
)

// System is a calibrated two-view monitoring system. It is safe for
// concurrent use after calibration.
type System struct {
	cfg     Config
	monitor *mspc.Monitor

	// Calibration moments (engineering units), retained so the adaptive
	// recalibration layer can seed its tracker with the calibration prior;
	// the covariance diagonal also tells the cross-view evidence which
	// channels never moved in calibration.
	calCov   *mat.Matrix
	calMeans []float64
	calN     int
}

// Calibrate builds the MSPC model from normal-operation observations
// (53-variable rows as produced by the historian; under NOC the two views
// are identical, so either serves as calibration data). It takes one
// covariance of the rows and fits it with CalibrateCov, so a model served
// from a file is the one an accumulator over the same rows would give.
func Calibrate(noc *dataset.Dataset, cfg Config) (*System, error) {
	if noc == nil || noc.Rows() < 10 {
		return nil, fmt.Errorf("core: calibration needs data: %w", ErrBadInput)
	}
	if noc.Cols() != historian.NumVars {
		return nil, fmt.Errorf("core: calibration has %d cols, want %d: %w",
			noc.Cols(), historian.NumVars, ErrBadInput)
	}
	x, err := noc.Matrix()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cov, err := mat.Covariance(x)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return CalibrateCov(cov, mat.ColMeans(x), x.Rows(), cfg)
}

// CalibrateCov builds the system from the calibration moments (means +
// covariance + count): the one fit behind Calibrate, scenario calibration
// (a streaming accumulator, the memory-bounded path for paper-scale data)
// and every adaptive refit.
func CalibrateCov(cov *mat.Matrix, means []float64, n int, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	opts := []mspc.Option{}
	if cfg.Components > 0 {
		opts = append(opts, mspc.WithComponents(cfg.Components))
	}
	if cfg.SPEMethod != 0 {
		opts = append(opts, mspc.WithSPEMethod(cfg.SPEMethod))
	}
	mon, err := mspc.CalibrateCov(cov, means, n, opts...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{
		cfg: cfg, monitor: mon,
		calCov: cov.Clone(), calMeans: append([]float64(nil), means...), calN: n,
	}, nil
}

// Monitor exposes the underlying MSPC monitor (for charting).
func (s *System) Monitor() *mspc.Monitor { return s.monitor }

// CalibrationMoments returns the covariance, means and observation count
// the system was calibrated from — the prior the adaptive recalibration
// layer seeds its tracker with. The returned values are owned by the
// system; callers must not mutate them.
func (s *System) CalibrationMoments() (cov *mat.Matrix, means []float64, n int) {
	return s.calCov, s.calMeans, s.calN
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// ViewAnalysis is the detection + diagnosis result for one view.
type ViewAnalysis struct {
	// Detected reports whether the run rule fired in this view.
	Detected bool
	// DetectionIndex and RunStart are observation indices (valid when
	// Detected).
	DetectionIndex int
	RunStart       int
	// RunLengthSamples counts samples from onset to detection (valid when
	// Detected and onset was provided).
	RunLengthSamples int
	// Time is RunLengthSamples in wall-clock terms.
	Time time.Duration
	// Charts lists which statistic(s) fired.
	Charts []mspc.Chart
	// OMEDA is the diagnosis profile over the 53 variables.
	OMEDA []float64
	// Top lists implicated variable indices (|bar| ≥ topFrac·max).
	Top []int
	// Dominance is the oMEDA dominance ratio (max/median of |bars|).
	Dominance float64
	// Contrib holds the classical T²/SPE contribution profiles over the
	// same diagnosis window, for comparison with the oMEDA bars (nil when
	// the view had no detection).
	Contrib *Contributions
}

// Report is the full two-view result for one run.
type Report struct {
	Controller ViewAnalysis
	Process    ViewAnalysis
	// FrozenProc lists observation columns whose process view is frozen
	// (variance collapsed) over the diagnosis window while the controller
	// view keeps moving — the hold-last-value signature on the actuator
	// link. FrozenCtrl is the mirror for the sensor link.
	FrozenProc []int
	FrozenCtrl []int
	// Diverged lists observation columns whose two views drifted apart by
	// more than divergeSigmas calibration standard deviations over the
	// diagnosis window — direct evidence of forgery (the cross-view
	// consistency check the paper's discussion motivates).
	Diverged []int
	// Verdict is the classifier's conclusion.
	Verdict Verdict
	// AttackedVar is the observation column of the localized forged
	// channel (-1 when not applicable). Use historian.VarName for display.
	AttackedVar int
	// Explanation is a one-paragraph human-readable rationale.
	Explanation string
}

// AnalyzeViews runs detection and diagnosis on both views of one run.
// onset is the observation index at which the anomaly was injected (used
// for run-length accounting; pass 0 if unknown). sample is the observation
// interval.
//
// It is a thin wrapper over the incremental path: the rows are replayed
// through an OnlineAnalyzer, so the batch and streaming analyses share one
// implementation (and one result). Views of unequal length are supported;
// the replay stops early once the report can no longer change.
func (s *System) AnalyzeViews(ctrl, proc *dataset.Dataset, onset int, sample time.Duration) (*Report, error) {
	if s == nil || s.monitor == nil {
		return nil, ErrNotCalibrated
	}
	if ctrl == nil || proc == nil || ctrl.Rows() == 0 || proc.Rows() == 0 {
		return nil, fmt.Errorf("core: empty views: %w", ErrBadInput)
	}
	if ctrl.Cols() != historian.NumVars || proc.Cols() != historian.NumVars {
		return nil, fmt.Errorf("core: views must have %d cols: %w", historian.NumVars, ErrBadInput)
	}
	oa, err := s.NewOnlineAnalyzer(onset, sample)
	if err != nil {
		return nil, err
	}
	n := ctrl.Rows()
	if proc.Rows() > n {
		n = proc.Rows()
	}
	for i := 0; i < n && !oa.Settled(); i++ {
		var cr, pr []float64
		if i < ctrl.Rows() {
			cr = ctrl.RowView(i)
		}
		if i < proc.Rows() {
			pr = proc.RowView(i)
		}
		if _, err := oa.Push(cr, pr); err != nil {
			return nil, err
		}
	}
	return oa.Finish()
}

// minUsefulStd guards against channels that are constant in calibration
// (their scaler divisor is a placeholder 1): a channel whose calibration
// standard deviation, the square root of the covariance diagonal, is at
// most this carries no frozen/diverged evidence.
const minUsefulStd = 1e-9

// DiagnoseGroup computes the oMEDA profile of a group of observations in
// engineering units (rows of 53 variables) against the calibrated model —
// the primitive the scenario runner uses to pool "first out-of-control
// observations" across runs, as the paper does.
func (s *System) DiagnoseGroup(rows [][]float64) ([]float64, error) {
	if s == nil || s.monitor == nil {
		return nil, ErrNotCalibrated
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no observations to diagnose: %w", ErrBadInput)
	}
	scaled := make([][]float64, len(rows))
	for i, r := range rows {
		sr, err := s.monitor.Scaler().ApplyRow(r, nil)
		if err != nil {
			return nil, fmt.Errorf("core: scaling row %d: %w", i, err)
		}
		scaled[i] = sr
	}
	return omeda.ComputeGroup(s.monitor.Model(), scaled)
}

// classify applies the two-view rules. See the package comment for the
// rationale; ClassifyProfiles documents the exact rule order.
func (s *System) classify(rep *Report) {
	// Frozen-channel evidence takes precedence: a channel whose process
	// view stopped moving while the two views drift apart is a
	// hold-last-value DoS on the actuator link (and the mirror image on
	// the sensor link). The evidence is self-sufficient — it requires a
	// cross-view divergence that identical (unattacked) views can never
	// produce.
	if len(rep.FrozenProc) > 0 {
		j := rep.FrozenProc[0]
		rep.Verdict = VerdictDoS
		rep.AttackedVar = j
		rep.Explanation = fmt.Sprintf(
			"%s is frozen at the process side while the controller keeps adjusting it — hold-last-value DoS on the actuator link",
			historian.VarName(j))
		return
	}
	if len(rep.FrozenCtrl) > 0 {
		j := rep.FrozenCtrl[0]
		rep.Verdict = VerdictDoS
		rep.AttackedVar = j
		rep.Explanation = fmt.Sprintf(
			"%s is frozen at the controller side while the real signal keeps moving — hold-last-value DoS on the sensor link",
			historian.VarName(j))
		return
	}
	verdict, attacked, why := ClassifyProfiles(rep.Controller, rep.Process)
	// Fallback: when the oMEDA profiles alone read "disturbance" or
	// "anomaly" but the raw views demonstrably diverged, forgery is proven
	// (a disturbance cannot make the two views disagree). This is the
	// cross-view consistency extension the paper's discussion motivates;
	// it fires after the paper's oMEDA rules so their behaviour stays
	// primary.
	if (verdict == VerdictDisturbance || verdict == VerdictAnomaly) && len(rep.Diverged) > 0 {
		// Blame the most implicated diverged channel.
		best := rep.Diverged[0]
		bestScore := -1.0
		for _, j := range rep.Diverged {
			score := math.Max(absAt(rep.Controller.OMEDA, j), absAt(rep.Process.OMEDA, j))
			if score > bestScore {
				bestScore = score
				best = j
			}
		}
		rep.Verdict = VerdictIntegrityAttack
		rep.AttackedVar = best
		rep.Explanation = fmt.Sprintf(
			"the two views of %s diverge although the oMEDA profiles alone look disturbance-like — a forged channel (cross-view consistency check)",
			historian.VarName(best))
		return
	}
	rep.Verdict = verdict
	rep.AttackedVar = attacked
	rep.Explanation = why
}

func absAt(vals []float64, j int) float64 {
	if j < 0 || j >= len(vals) {
		return 0
	}
	return math.Abs(vals[j])
}

// ClassifyProfiles turns the two per-view analyses into a verdict:
//
//  1. Neither view detected → Normal.
//  2. A variable implicated in both views with opposite deviation signs →
//     IntegrityAttack on that variable (a channel cannot truly be both
//     above and below normal; one view must be forged).
//  3. An XMV implicated on the controller side while the process side is
//     silent or shows that XMV unremarkable → DoS on that XMV (the
//     controller's commands never reach the plant, its error integrates).
//  4. Diffuse diagnosis (low dominance) in every detecting view, with slow
//     detection → DoS (suspected, unlocalized).
//  5. Views agree (top variables of each view deviate in the same
//     direction in the other view) → Disturbance.
//  6. Otherwise → Anomaly (detected, unclassified).
func ClassifyProfiles(ctrl, proc ViewAnalysis) (Verdict, int, string) {
	if !ctrl.Detected && !proc.Detected {
		return VerdictNormal, -1, "no chart exceeded its control limit with the run rule"
	}

	// Rule 2: sign flip on any implicated variable. The variable must be a
	// top variable in at least one view; in the other view only a
	// meaningful sign is required (a forged channel is often shrunk by the
	// model in the view where the forgery conflicts with the learned
	// correlation structure — cf. the paper's Fig. 4b, where only XMEAS(1)
	// stands out at the controller while Fig. 5b pins XMV(3)).
	if ctrl.Detected && proc.Detected {
		for _, j := range unionInts(ctrl.Top, proc.Top) {
			sc := signAt(ctrl.OMEDA, j)
			sp := signAt(proc.OMEDA, j)
			if sc != 0 && sp != 0 && sc != sp &&
				materialAt(ctrl.OMEDA, j, 0.05) && materialAt(proc.OMEDA, j, 0.05) {
				kind := "sensor"
				if historian.IsXMV(j) {
					kind = "actuator"
				}
				return VerdictIntegrityAttack, j, fmt.Sprintf(
					"%s deviates %s in the controller view but %s in the process view — the %s channel is forged",
					historian.VarName(j), signWord(sc), signWord(sp), kind)
			}
		}
	}

	// Rule 3: controller-side XMV anomaly with a silent process side.
	if ctrl.Detected {
		for _, j := range ctrl.Top {
			if !historian.IsXMV(j) {
				continue
			}
			procSilent := !proc.Detected
			procUnremarkable := proc.Detected && !materialAt(proc.OMEDA, j, 0.25)
			if procSilent || procUnremarkable {
				return VerdictDoS, j, fmt.Sprintf(
					"%s drifts in the controller view while the process view shows no matching effect — commands are not reaching the plant (hold-last-value DoS)",
					historian.VarName(j))
			}
		}
	}

	// Rule 4: diffuse and slow everywhere → unlocalized DoS suspicion.
	diffuse := true
	slow := true
	for _, v := range []ViewAnalysis{ctrl, proc} {
		if !v.Detected {
			continue
		}
		if v.Dominance >= dominanceMin {
			diffuse = false
		}
		if v.RunLengthSamples < slowSamples {
			slow = false
		}
	}
	if diffuse && slow {
		return VerdictDoS, -1, "slow detection with no variable standing out in either view — consistent with a denial-of-service attack"
	}

	// Rule 5: consistent views → disturbance.
	if agreeViews(ctrl, proc) {
		return VerdictDisturbance, -1, "both views implicate the same variables with the same deviation directions — a genuine process disturbance"
	}

	return VerdictAnomaly, -1, "anomaly detected but the view profiles fit no known pattern"
}

// agreeViews reports whether every top variable of each detecting view
// deviates in the same direction in the other view (or the other view did
// not detect, in which case a single view cannot contradict itself).
func agreeViews(ctrl, proc ViewAnalysis) bool {
	if ctrl.Detected != proc.Detected {
		// Exactly one view saw the event: treat as agreement only when the
		// detecting view's diagnosis exists.
		v := ctrl
		if proc.Detected {
			v = proc
		}
		return len(v.Top) > 0
	}
	for _, j := range unionInts(ctrl.Top, proc.Top) {
		sc := signAt(ctrl.OMEDA, j)
		sp := signAt(proc.OMEDA, j)
		// Immaterial bars carry no sign information.
		if sc != 0 && sp != 0 && sc != sp &&
			materialAt(ctrl.OMEDA, j, 0.05) && materialAt(proc.OMEDA, j, 0.05) {
			return false
		}
	}
	return true
}

func signAt(vals []float64, j int) int {
	if j < 0 || j >= len(vals) {
		return 0
	}
	switch {
	case vals[j] > 0:
		return 1
	case vals[j] < 0:
		return -1
	default:
		return 0
	}
}

func materialAt(vals []float64, j int, frac float64) bool {
	if j < 0 || j >= len(vals) {
		return false
	}
	var maxAbs float64
	for _, v := range vals {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs > 0 && math.Abs(vals[j]) >= frac*maxAbs
}

func signWord(s int) string {
	if s > 0 {
		return "above normal"
	}
	return "below normal"
}

func unionInts(a, b []int) []int {
	seen := make(map[int]struct{}, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, s := range [][]int{a, b} {
		for _, v := range s {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
	}
	return out
}

// ChartSeries extracts the D and Q statistic series of one view for
// plotting (the paper's Figure 1-style control charts).
func (s *System) ChartSeries(view *dataset.Dataset) (d, q []float64, limits mspc.Limits, err error) {
	if s == nil || s.monitor == nil {
		return nil, nil, mspc.Limits{}, ErrNotCalibrated
	}
	d = make([]float64, view.Rows())
	q = make([]float64, view.Rows())
	for i := 0; i < view.Rows(); i++ {
		st, err := s.monitor.Compute(view.RowView(i))
		if err != nil {
			return nil, nil, mspc.Limits{}, fmt.Errorf("core: row %d: %w", i, err)
		}
		d[i] = st.D
		q[i] = st.Q
	}
	return d, q, s.monitor.Limits(), nil
}
