// Package pca implements principal component analysis for MSPC monitoring:
// X = T·Pᵀ + E with T = X·P, where the loading columns P are the leading
// eigenvectors of the calibration covariance matrix.
//
// Two fitting paths are provided: an exact eigendecomposition of the
// covariance matrix (the default — calibration matrices in MSPC have few
// columns) and NIPALS, the classic chemometrics algorithm that extracts one
// component at a time (useful for cross-checking and very wide data).
//
// Inputs are expected to be preprocessed (mean-centered, usually
// auto-scaled); pair the model with stat.Scaler. The model keeps the full
// eigenvalue spectrum — the trailing (discarded) eigenvalues are exactly
// what the Jackson–Mudholkar SPE control limit needs.
package pca

import (
	"errors"
	"fmt"
	"math"

	"pcsmon/internal/mat"
)

// Package-level sentinel errors.
var (
	// ErrBadComponents is returned when the requested number of components
	// is not in [1, min(N-1, M)].
	ErrBadComponents = errors.New("pca: invalid number of components")
	// ErrBadInput is returned for empty or malformed calibration data.
	ErrBadInput = errors.New("pca: invalid input")
	// ErrNotConverged is returned when NIPALS fails to converge.
	ErrNotConverged = errors.New("pca: iteration did not converge")
)

// Model is a fitted PCA model.
type Model struct {
	loadings  *mat.Matrix // M×A loading matrix P
	loadingsT *mat.Matrix // A×M transpose Pᵀ: the projection t = Pᵀ·x
	eigvals   []float64   // variances of the A retained score directions
	allEig    []float64   // full spectrum (length M), descending
	nobs      int         // calibration observations
	nvars     int         // M
}

// ComponentRule selects the number of principal components to retain from a
// full eigenvalue spectrum.
type ComponentRule func(eig []float64) int

// CumVarianceRule retains the smallest number of components whose cumulative
// explained variance reaches frac (e.g. 0.9).
func CumVarianceRule(frac float64) ComponentRule {
	return func(eig []float64) int {
		var total float64
		for _, v := range eig {
			if v > 0 {
				total += v
			}
		}
		if total <= 0 {
			return 1
		}
		var cum float64
		for i, v := range eig {
			if v > 0 {
				cum += v
			}
			if cum/total >= frac {
				return i + 1
			}
		}
		return len(eig)
	}
}

// MeanEigRule retains the components whose eigenvalue exceeds the average
// eigenvalue (the Kaiser-Guttman criterion for autoscaled data, where the
// average eigenvalue is 1).
func MeanEigRule() ComponentRule {
	return func(eig []float64) int {
		var total float64
		for _, v := range eig {
			total += v
		}
		mean := total / float64(len(eig))
		n := 0
		for _, v := range eig {
			if v > mean {
				n++
			}
		}
		if n == 0 {
			return 1
		}
		return n
	}
}

// Fit performs PCA on the preprocessed data matrix x, retaining a
// components. It decomposes the sample covariance of x.
func Fit(x *mat.Matrix, a int) (*Model, error) {
	if x == nil || x.IsEmpty() {
		return nil, fmt.Errorf("pca: Fit on empty data: %w", ErrBadInput)
	}
	if x.Rows() < 2 {
		return nil, fmt.Errorf("pca: Fit needs ≥2 rows, got %d: %w", x.Rows(), ErrBadInput)
	}
	cov, err := mat.Covariance(x)
	if err != nil {
		return nil, fmt.Errorf("pca: covariance: %w", err)
	}
	return FitCov(cov, x.Rows(), a)
}

// FitCov performs PCA given a precomputed covariance matrix and the number
// of observations n it was estimated from. This is the streaming-calibration
// path: accumulate covariance with mat.CovAccumulator over millions of rows,
// then fit here in O(M³).
func FitCov(cov *mat.Matrix, n, a int) (*Model, error) {
	if cov == nil || cov.IsEmpty() {
		return nil, fmt.Errorf("pca: FitCov on empty covariance: %w", ErrBadInput)
	}
	m := cov.Rows()
	if cov.Cols() != m {
		return nil, fmt.Errorf("pca: covariance %dx%d not square: %w", cov.Rows(), cov.Cols(), ErrBadInput)
	}
	if n < 2 {
		return nil, fmt.Errorf("pca: n=%d observations: %w", n, ErrBadInput)
	}
	maxA := m
	if n-1 < maxA {
		maxA = n - 1
	}
	if a < 1 || a > maxA {
		return nil, fmt.Errorf("pca: a=%d not in [1,%d]: %w", a, maxA, ErrBadComponents)
	}
	eig, vecs, err := mat.EigenSym(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}
	// Clamp tiny negative eigenvalues arising from round-off.
	for i, v := range eig {
		if v < 0 {
			eig[i] = 0
		}
	}
	loadings := mat.MustNew(m, a)
	for i := 0; i < m; i++ {
		for j := 0; j < a; j++ {
			loadings.Set(i, j, vecs.At(i, j))
		}
	}
	return &Model{
		loadings:  loadings,
		loadingsT: loadings.T(),
		eigvals:   append([]float64(nil), eig[:a]...),
		allEig:    eig,
		nobs:      n,
		nvars:     m,
	}, nil
}

// FitAuto fits PCA choosing the number of components with rule.
func FitAuto(x *mat.Matrix, rule ComponentRule) (*Model, error) {
	if x == nil || x.IsEmpty() || x.Rows() < 2 {
		return nil, fmt.Errorf("pca: FitAuto on invalid data: %w", ErrBadInput)
	}
	cov, err := mat.Covariance(x)
	if err != nil {
		return nil, fmt.Errorf("pca: covariance: %w", err)
	}
	return FitCovAuto(cov, x.Rows(), rule)
}

// FitCovAuto fits PCA from a covariance matrix choosing the number of
// components with rule.
func FitCovAuto(cov *mat.Matrix, n int, rule ComponentRule) (*Model, error) {
	if rule == nil {
		return nil, fmt.Errorf("pca: nil component rule: %w", ErrBadInput)
	}
	if cov == nil || cov.IsEmpty() || cov.Rows() != cov.Cols() {
		return nil, fmt.Errorf("pca: invalid covariance: %w", ErrBadInput)
	}
	eig, _, err := mat.EigenSym(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}
	a := rule(eig)
	maxA := cov.Rows()
	if n-1 < maxA {
		maxA = n - 1
	}
	if a < 1 {
		a = 1
	}
	if a > maxA {
		a = maxA
	}
	return FitCov(cov, n, a)
}

// NComponents returns the number of retained principal components A.
func (m *Model) NComponents() int { return len(m.eigvals) }

// NVars returns the number of original variables M.
func (m *Model) NVars() int { return m.nvars }

// NObs returns the number of calibration observations N.
func (m *Model) NObs() int { return m.nobs }

// Eigenvalues returns a copy of the eigenvalues (score variances) of the
// retained components.
func (m *Model) Eigenvalues() []float64 {
	return append([]float64(nil), m.eigvals...)
}

// AllEigenvalues returns a copy of the full eigenvalue spectrum, descending.
func (m *Model) AllEigenvalues() []float64 {
	return append([]float64(nil), m.allEig...)
}

// ResidualEigenvalues returns the discarded part of the spectrum
// (λ_{A+1}…λ_M), the inputs to SPE control limits.
func (m *Model) ResidualEigenvalues() []float64 {
	return append([]float64(nil), m.allEig[len(m.eigvals):]...)
}

// Loadings returns a copy of the M×A loading matrix P.
func (m *Model) Loadings() *mat.Matrix { return m.loadings.Clone() }

// ExplainedVariance returns, per retained component, the fraction of total
// calibration variance it captures.
func (m *Model) ExplainedVariance() []float64 {
	var total float64
	for _, v := range m.allEig {
		total += v
	}
	out := make([]float64, len(m.eigvals))
	if total <= 0 {
		return out
	}
	for i, v := range m.eigvals {
		out[i] = v / total
	}
	return out
}

// Project returns the score vector t = Pᵀ·x for one preprocessed
// observation.
func (m *Model) Project(row []float64) ([]float64, error) {
	if len(row) != m.nvars {
		return nil, fmt.Errorf("pca: Project len %d != nvars %d: %w", len(row), m.nvars, ErrBadInput)
	}
	t := make([]float64, m.NComponents())
	if err := m.ProjectInto(row, t); err != nil {
		return nil, err
	}
	return t, nil
}

// ProjectInto is Project with a caller-provided destination of length
// NComponents — the allocation-free hot-path variant.
//
// It multiplies by the cached Pᵀ with mat.MulVecInto, so each score is one
// dot product over the variables in ascending order, bit-identical to the
// naive column loop.
func (m *Model) ProjectInto(row, dst []float64) error {
	if len(row) != m.nvars {
		return fmt.Errorf("pca: Project len %d != nvars %d: %w", len(row), m.nvars, ErrBadInput)
	}
	if len(dst) != m.NComponents() {
		return fmt.Errorf("pca: Project dst len %d != %d components: %w", len(dst), m.NComponents(), ErrBadInput)
	}
	return mat.MulVecInto(m.loadingsT, row, dst)
}

// ReconstructInto computes x̂ = P·t into dst (length NVars) from an
// already-projected score vector t — the allocation-free core of
// Reconstruct, also used by contribution analysis to form P·(t/λ) weight
// vectors without materializing matrices.
func (m *Model) ReconstructInto(scores, dst []float64) error {
	if len(scores) != m.NComponents() {
		return fmt.Errorf("pca: Reconstruct scores len %d != %d components: %w", len(scores), m.NComponents(), ErrBadInput)
	}
	if len(dst) != m.nvars {
		return fmt.Errorf("pca: Reconstruct dst len %d != nvars %d: %w", len(dst), m.nvars, ErrBadInput)
	}
	for j := 0; j < m.nvars; j++ {
		dst[j] = mat.DotUnrolled(m.loadings.RowView(j), scores)
	}
	return nil
}

// Reconstruct returns x̂ = P·Pᵀ·x, the projection of the observation onto
// the model subspace.
func (m *Model) Reconstruct(row []float64) ([]float64, error) {
	t, err := m.Project(row)
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.nvars)
	if err := m.ReconstructInto(t, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Residual returns e = x − P·Pᵀ·x for one preprocessed observation.
func (m *Model) Residual(row []float64) ([]float64, error) {
	rec, err := m.Reconstruct(row)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = v - rec[j]
	}
	return out, nil
}

// Scores returns the N×A score matrix T = X·P for preprocessed data x.
func (m *Model) Scores(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != m.nvars {
		return nil, fmt.Errorf("pca: Scores cols %d != nvars %d: %w", x.Cols(), m.nvars, ErrBadInput)
	}
	return mat.Mul(x, m.loadings)
}

// FitNIPALS fits a PCA model with the NIPALS algorithm directly on the data
// matrix, extracting a components sequentially. The data matrix is not
// modified. Score variances use the N-1 divisor so the result matches
// FitCov up to algorithmic tolerance.
func FitNIPALS(x *mat.Matrix, a int, tol float64, maxIter int) (*Model, error) {
	if x == nil || x.IsEmpty() || x.Rows() < 2 {
		return nil, fmt.Errorf("pca: NIPALS on invalid data: %w", ErrBadInput)
	}
	n, mvars := x.Dims()
	maxA := mvars
	if n-1 < maxA {
		maxA = n - 1
	}
	if a < 1 || a > maxA {
		return nil, fmt.Errorf("pca: NIPALS a=%d not in [1,%d]: %w", a, maxA, ErrBadComponents)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 500
	}

	e := x.Clone() // deflated working copy
	loadings := mat.MustNew(mvars, a)
	eigvals := make([]float64, a)
	t := make([]float64, n)
	p := make([]float64, mvars)

	for comp := 0; comp < a; comp++ {
		// Start from the column of E with the largest variance.
		best, bestVar := 0, -1.0
		for j := 0; j < mvars; j++ {
			var s, ss float64
			for i := 0; i < n; i++ {
				v := e.At(i, j)
				s += v
				ss += v * v
			}
			varj := ss - s*s/float64(n)
			if varj > bestVar {
				bestVar = varj
				best = j
			}
		}
		for i := 0; i < n; i++ {
			t[i] = e.At(i, best)
		}
		if mat.Norm2(t) == 0 {
			// Rank exhausted: remaining components are zero directions.
			return nil, fmt.Errorf("pca: NIPALS rank deficient at component %d: %w", comp+1, ErrBadComponents)
		}

		converged := false
		var prevTT float64
		for iter := 0; iter < maxIter; iter++ {
			// p = Eᵀt / tᵀt, normalized.
			tt, _ := mat.Dot(t, t)
			for j := 0; j < mvars; j++ {
				var s float64
				for i := 0; i < n; i++ {
					s += e.At(i, j) * t[i]
				}
				p[j] = s / tt
			}
			np := mat.Norm2(p)
			if np == 0 {
				return nil, fmt.Errorf("pca: NIPALS zero loading at component %d: %w", comp+1, ErrNotConverged)
			}
			for j := range p {
				p[j] /= np
			}
			// t = E·p.
			for i := 0; i < n; i++ {
				var s float64
				for j := 0; j < mvars; j++ {
					s += e.At(i, j) * p[j]
				}
				t[i] = s
			}
			tt2, _ := mat.Dot(t, t)
			if iter > 0 && math.Abs(tt2-prevTT) <= tol*tt2 {
				converged = true
				break
			}
			prevTT = tt2
		}
		if !converged {
			return nil, fmt.Errorf("pca: NIPALS component %d: %w", comp+1, ErrNotConverged)
		}
		// Record component; deflate E ← E − t·pᵀ.
		tt, _ := mat.Dot(t, t)
		eigvals[comp] = tt / float64(n-1)
		for j := 0; j < mvars; j++ {
			loadings.Set(j, comp, p[j])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < mvars; j++ {
				e.Set(i, j, e.At(i, j)-t[i]*p[j])
			}
		}
	}

	// Full spectrum: retained values followed by the residual variance
	// spread over the remaining directions (approximation good enough for
	// diagnostics; exact limits should use FitCov).
	allEig := make([]float64, mvars)
	copy(allEig, eigvals)
	var residVar float64
	for i := 0; i < n; i++ {
		for j := 0; j < mvars; j++ {
			v := e.At(i, j)
			residVar += v * v
		}
	}
	residVar /= float64(n - 1)
	if rem := mvars - a; rem > 0 {
		per := residVar / float64(rem)
		for j := a; j < mvars; j++ {
			allEig[j] = per
		}
	}
	return &Model{
		loadings:  loadings,
		loadingsT: loadings.T(),
		eigvals:   eigvals,
		allEig:    allEig,
		nobs:      n,
		nvars:     mvars,
	}, nil
}
