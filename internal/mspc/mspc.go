// Package mspc implements PCA-based Multivariate Statistical Process
// Control: the D-statistic (Hotelling's T²) on the PCA scores, the
// Q-statistic (SPE) on the residuals, their theoretical and empirical
// control limits, and the run-rule detector used by the paper (an event is
// anomalous when three consecutive observations exceed the 99 % limit in
// either chart).
//
// References: Hotelling (1947); Jackson & Mudholkar (1979); MacGregor &
// Kourti (1995); Camacho et al., MEDA Toolbox (2015).
package mspc

import (
	"errors"
	"fmt"
	"math"

	"pcsmon/internal/mat"
	"pcsmon/internal/pca"
	"pcsmon/internal/stat"
)

// Package-level sentinel errors.
var (
	// ErrBadInput is returned for malformed calibration or monitoring input.
	ErrBadInput = errors.New("mspc: invalid input")
	// ErrBadConfig is returned for invalid option combinations.
	ErrBadConfig = errors.New("mspc: invalid configuration")
)

// SPEMethod selects how the Q-statistic control limit is computed.
type SPEMethod int

// Supported SPE limit methods.
const (
	// SPEJacksonMudholkar is the classical normal-approximation limit of
	// Jackson & Mudholkar (1979). The default.
	SPEJacksonMudholkar SPEMethod = iota + 1
	// SPEBox uses Box's weighted chi-squared approximation: g·χ²(h) with
	// g=θ2/θ1, h=θ1²/θ2.
	SPEBox
	// SPEPercentile uses the empirical percentile of the calibration
	// Q-statistics. Requires calibration data (not available on the
	// streaming path).
	SPEPercentile
)

// String implements fmt.Stringer.
func (m SPEMethod) String() string {
	switch m {
	case SPEJacksonMudholkar:
		return "jackson-mudholkar"
	case SPEBox:
		return "box"
	case SPEPercentile:
		return "percentile"
	default:
		return fmt.Sprintf("SPEMethod(%d)", int(m))
	}
}

// Statistics holds the two monitoring statistics for one observation.
type Statistics struct {
	D float64 // Hotelling T² on the scores
	Q float64 // squared prediction error on the residuals
}

// Limits holds control limits for the two charts at the two confidence
// levels the paper plots (95 % warning, 99 % action).
type Limits struct {
	D95, D99 float64
	Q95, Q99 float64
}

// Monitor is a calibrated MSPC monitor: frozen preprocessing, PCA model and
// control limits. It is safe for concurrent use once calibrated (all state
// is read-only).
type Monitor struct {
	scaler *stat.Scaler
	model  *pca.Model
	limits Limits
	method SPEMethod

	// Calibration D/Q series, retained when calibrated from data (used for
	// empirical limits and phase-I charts). Nil on the streaming path.
	calD, calQ []float64

	// Hot-path caches filled by initHot at calibration time, so
	// ComputeInto and statsFrom read plain slices instead of the copying
	// accessors (Scaler.Means, Model.Eigenvalues, …): frozen scaling
	// parameters and the retained eigenvalues. All read-only after
	// calibration, like the rest of the monitor.
	hotMeans []float64
	hotStds  []float64
	hotEig   []float64
	ncomp    int
}

type config struct {
	ncomp     int
	speMethod SPEMethod
}

// Option configures Calibrate.
type Option func(*config)

// WithComponents fixes the number of principal components.
func WithComponents(a int) Option {
	return func(c *config) { c.ncomp = a }
}

// WithSPEMethod selects the Q-limit method (default Jackson–Mudholkar).
func WithSPEMethod(m SPEMethod) Option {
	return func(c *config) { c.speMethod = m }
}

func buildConfig(opts []Option) config {
	c := config{speMethod: SPEJacksonMudholkar}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Calibrate fits the full MSPC pipeline on calibration data x (rows =
// observations in engineering units): autoscaling, PCA, control limits.
func Calibrate(x *mat.Matrix, opts ...Option) (*Monitor, error) {
	if x == nil || x.Rows() < 3 {
		return nil, fmt.Errorf("mspc: calibration needs ≥3 observations: %w", ErrBadInput)
	}
	cfg := buildConfig(opts)
	scaler, err := stat.FitScaler(x)
	if err != nil {
		return nil, fmt.Errorf("mspc: scaler: %w", err)
	}
	scaled, err := scaler.Apply(x)
	if err != nil {
		return nil, fmt.Errorf("mspc: scaling: %w", err)
	}
	var model *pca.Model
	if cfg.ncomp > 0 {
		model, err = pca.Fit(scaled, cfg.ncomp)
	} else {
		model, err = pca.FitAuto(scaled, pca.CumVarianceRule(0.9))
	}
	if err != nil {
		return nil, fmt.Errorf("mspc: pca: %w", err)
	}
	m := &Monitor{scaler: scaler, model: model, method: cfg.speMethod}
	m.initHot()

	// Calibration statistics (needed for percentile limits and phase-I
	// charts; cheap to keep in all cases).
	m.calD = make([]float64, scaled.Rows())
	m.calQ = make([]float64, scaled.Rows())
	t := make([]float64, m.ncomp)
	for i := range m.calD {
		row := scaled.RowView(i)
		if err := model.ProjectInto(row, t); err != nil {
			return nil, fmt.Errorf("mspc: %w", err)
		}
		s := m.statsFrom(row, t)
		m.calD[i] = s.D
		m.calQ[i] = s.Q
	}
	if err := m.setLimits(); err != nil {
		return nil, err
	}
	return m, nil
}

// CalibrateCov fits the MSPC pipeline from a streamed covariance matrix,
// column means and observation count — the path used when calibration data
// is too large to hold in memory. SPEPercentile is not available here.
func CalibrateCov(cov *mat.Matrix, means []float64, n int, opts ...Option) (*Monitor, error) {
	if cov == nil || cov.IsEmpty() || cov.Rows() != cov.Cols() {
		return nil, fmt.Errorf("mspc: invalid covariance: %w", ErrBadInput)
	}
	if len(means) != cov.Rows() {
		return nil, fmt.Errorf("mspc: means len %d != cov dim %d: %w", len(means), cov.Rows(), ErrBadInput)
	}
	cfg := buildConfig(opts)
	if cfg.speMethod == SPEPercentile {
		return nil, fmt.Errorf("mspc: percentile SPE limit needs calibration data: %w", ErrBadConfig)
	}
	// Standard deviations from the covariance diagonal.
	stds := make([]float64, cov.Rows())
	for j := range stds {
		v := cov.At(j, j)
		if v < 0 {
			v = 0
		}
		stds[j] = math.Sqrt(v)
	}
	scaler, err := stat.NewScaler(means, stds)
	if err != nil {
		return nil, fmt.Errorf("mspc: scaler: %w", err)
	}
	// PCA must see the *correlation* matrix (covariance of autoscaled data).
	corr := cov.Clone()
	for i := 0; i < corr.Rows(); i++ {
		for j := 0; j < corr.Cols(); j++ {
			den := stds[i] * stds[j]
			if den < 1e-24 {
				corr.Set(i, j, 0)
				continue
			}
			corr.Set(i, j, cov.At(i, j)/den)
		}
	}
	var model *pca.Model
	if cfg.ncomp > 0 {
		model, err = pca.FitCov(corr, n, cfg.ncomp)
	} else {
		model, err = pca.FitCovAuto(corr, n, pca.CumVarianceRule(0.9))
	}
	if err != nil {
		return nil, fmt.Errorf("mspc: pca: %w", err)
	}
	m := &Monitor{scaler: scaler, model: model, method: cfg.speMethod}
	m.initHot()
	if err := m.setLimits(); err != nil {
		return nil, err
	}
	return m, nil
}

// initHot snapshots the scaling parameters and retained eigenvalues into
// flat slices for ComputeInto and the calibration statistics.
func (m *Monitor) initHot() {
	m.hotMeans = m.scaler.Means()
	m.hotStds = m.scaler.Stds()
	m.hotEig = m.model.Eigenvalues()
	m.ncomp = m.model.NComponents()
}

func (m *Monitor) setLimits() error {
	var err error
	m.limits.D95, err = DLimit(m.model.NObs(), m.model.NComponents(), 0.95)
	if err != nil {
		return err
	}
	m.limits.D99, err = DLimit(m.model.NObs(), m.model.NComponents(), 0.99)
	if err != nil {
		return err
	}
	resid := m.model.ResidualEigenvalues()
	q := func(alpha float64) (float64, error) {
		switch m.method {
		case SPEJacksonMudholkar:
			return QLimitJacksonMudholkar(resid, alpha)
		case SPEBox:
			return QLimitBox(resid, alpha)
		case SPEPercentile:
			if m.calQ == nil {
				return 0, fmt.Errorf("mspc: percentile limit without calibration data: %w", ErrBadConfig)
			}
			return stat.Quantile(m.calQ, alpha)
		default:
			return 0, fmt.Errorf("mspc: unknown SPE method %v: %w", m.method, ErrBadConfig)
		}
	}
	m.limits.Q95, err = q(0.95)
	if err != nil {
		return err
	}
	m.limits.Q99, err = q(0.99)
	if err != nil {
		return err
	}
	return nil
}

// Limits returns the calibrated control limits.
func (m *Monitor) Limits() Limits { return m.limits }

// Model returns the underlying PCA model.
func (m *Monitor) Model() *pca.Model { return m.model }

// Scaler returns the frozen preprocessing parameters.
func (m *Monitor) Scaler() *stat.Scaler { return m.scaler }

// SPEMethod returns the configured Q-limit method.
func (m *Monitor) SPEMethod() SPEMethod { return m.method }

// CalibrationStats returns copies of the calibration D and Q series, or nil
// when the monitor was calibrated from a covariance matrix.
func (m *Monitor) CalibrationStats() (d, q []float64) {
	if m.calD == nil {
		return nil, nil
	}
	return append([]float64(nil), m.calD...), append([]float64(nil), m.calQ...)
}

// Compute returns the D and Q statistics for one observation in engineering
// units.
func (m *Monitor) Compute(row []float64) (Statistics, error) {
	scaled, err := m.scaler.ApplyRow(row, nil)
	if err != nil {
		return Statistics{}, fmt.Errorf("mspc: %w", err)
	}
	t, err := m.model.Project(scaled)
	if err != nil {
		return Statistics{}, fmt.Errorf("mspc: %w", err)
	}
	return m.statsFrom(scaled, t), nil
}

// ComputeInto is Compute with caller-provided scratch: scaled (scaler
// dimension) receives the preprocessed row, scores (NComponents) the PCA
// projection. This is the hot-path variant the per-stream detectors use:
// the row is scaled with mat.SubDivInto, ‖x‖² is one DotUnrolled sweep and
// the scores come from the model's Pᵀ·x (ProjectInto: the AVX2
// mat.MulTVecInto where the CPU has it, else mat.MulVecInto over the cached
// Pᵀ) — zero allocations, bit-identical to Compute (every accumulator still
// sums in the same ascending-index order as the naive chained
// implementation).
//
//pcslint:hotpath
func (m *Monitor) ComputeInto(row, scaled, scores []float64) (Statistics, error) {
	nvars := len(m.hotMeans)
	if len(row) != nvars {
		return Statistics{}, fmt.Errorf("mspc: ComputeInto len %d != dim %d: %w", len(row), nvars, ErrBadInput)
	}
	if len(scaled) != nvars {
		return Statistics{}, fmt.Errorf("mspc: ComputeInto scaled len %d != dim %d: %w", len(scaled), nvars, ErrBadInput)
	}
	if len(scores) != m.ncomp {
		return Statistics{}, fmt.Errorf("mspc: ComputeInto scores len %d != %d components: %w", len(scores), m.ncomp, ErrBadInput)
	}
	mat.SubDivInto(scaled, row, m.hotMeans, m.hotStds)
	if err := m.model.ProjectInto(scaled, scores); err != nil {
		return Statistics{}, fmt.Errorf("mspc: %w", err)
	}
	return m.statsFrom(scaled, scores), nil
}

// statsFrom derives D and Q from a preprocessed observation and its PCA
// scores — the one formula shared by the allocating and scratch paths.
func (m *Monitor) statsFrom(scaled, t []float64) Statistics {
	eig := m.hotEig[:len(t)]
	var d float64
	for a, tv := range t {
		if eig[a] > 1e-12 {
			d += tv * tv / eig[a]
		}
	}
	// Q = ‖x‖² − ‖t‖² (Pythagoras; avoids recomputing the reconstruction).
	x2 := mat.DotUnrolled(scaled, scaled)
	t2 := mat.DotUnrolled(t, t)
	q := x2 - t2
	if q < 0 {
		q = 0
	}
	return Statistics{D: d, Q: q}
}

// DLimit returns the phase-II control limit of the D-statistic at
// confidence level alpha for a model with a components calibrated on n
// observations:
//
//	UCL = a(n²−1)/(n(n−a)) · F_alpha(a, n−a)
func DLimit(n, a int, alpha float64) (float64, error) {
	if n <= a {
		return 0, fmt.Errorf("mspc: DLimit needs n>a (n=%d, a=%d): %w", n, a, ErrBadInput)
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("mspc: DLimit alpha=%g: %w", alpha, ErrBadInput)
	}
	f, err := stat.FQuantile(alpha, float64(a), float64(n-a))
	if err != nil {
		return 0, fmt.Errorf("mspc: DLimit: %w", err)
	}
	nn := float64(n)
	aa := float64(a)
	return aa * (nn*nn - 1) / (nn * (nn - aa)) * f, nil
}

// DLimitPhaseI returns the phase-I (calibration-data) beta-distribution
// control limit of the D-statistic:
//
//	UCL = (n−1)²/n · B_alpha(a/2, (n−a−1)/2)
//
// where B is the beta quantile, computed here by inverting RegIncBeta.
func DLimitPhaseI(n, a int, alpha float64) (float64, error) {
	if n <= a+1 {
		return 0, fmt.Errorf("mspc: DLimitPhaseI needs n>a+1: %w", ErrBadInput)
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("mspc: DLimitPhaseI alpha=%g: %w", alpha, ErrBadInput)
	}
	q, err := betaQuantile(alpha, float64(a)/2, float64(n-a-1)/2)
	if err != nil {
		return 0, err
	}
	nn := float64(n)
	return (nn - 1) * (nn - 1) / nn * q, nil
}

// betaQuantile inverts the regularized incomplete beta function by
// bisection on [0,1].
func betaQuantile(p, a, b float64) (float64, error) {
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		v, err := stat.RegIncBeta(mid, a, b)
		if err != nil {
			return math.NaN(), fmt.Errorf("mspc: betaQuantile: %w", err)
		}
		if v < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// QLimitJacksonMudholkar returns the SPE control limit at confidence alpha
// given the residual eigenvalues λ_{A+1}…λ_M (Jackson & Mudholkar 1979).
func QLimitJacksonMudholkar(residEig []float64, alpha float64) (float64, error) {
	th1, th2, th3, err := thetas(residEig, alpha)
	if err != nil {
		return 0, err
	}
	if th1 == 0 {
		return 0, nil // perfect model: no residual space
	}
	z, err := stat.NormalQuantile(alpha)
	if err != nil {
		return 0, fmt.Errorf("mspc: QLimitJM: %w", err)
	}
	h0 := 1 - 2*th1*th3/(3*th2*th2)
	if th2 == 0 || h0 <= 0 {
		// Degenerate spectrum: fall back to Box, which stays valid.
		return QLimitBox(residEig, alpha)
	}
	term := z*math.Sqrt(2*th2*h0*h0)/th1 + 1 + th2*h0*(h0-1)/(th1*th1)
	if term <= 0 {
		return QLimitBox(residEig, alpha)
	}
	return th1 * math.Pow(term, 1/h0), nil
}

// QLimitBox returns Box's approximation of the SPE limit: g·χ²_alpha(h)
// with g = θ2/θ1 and h = θ1²/θ2.
func QLimitBox(residEig []float64, alpha float64) (float64, error) {
	th1, th2, _, err := thetas(residEig, alpha)
	if err != nil {
		return 0, err
	}
	if th1 == 0 || th2 == 0 {
		return 0, nil
	}
	g := th2 / th1
	h := th1 * th1 / th2
	chi, err := stat.ChiSquareQuantile(alpha, h)
	if err != nil {
		return 0, fmt.Errorf("mspc: QLimitBox: %w", err)
	}
	return g * chi, nil
}

func thetas(residEig []float64, alpha float64) (th1, th2, th3 float64, err error) {
	if alpha <= 0 || alpha >= 1 {
		return 0, 0, 0, fmt.Errorf("mspc: Q limit alpha=%g: %w", alpha, ErrBadInput)
	}
	for _, l := range residEig {
		if l < 0 {
			l = 0
		}
		th1 += l
		th2 += l * l
		th3 += l * l * l
	}
	return th1, th2, th3, nil
}
