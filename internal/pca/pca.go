// Package pca implements principal component analysis for MSPC monitoring:
// X = T·Pᵀ + E with T = X·P, where the loading columns P are the leading
// eigenvectors of the calibration covariance matrix.
//
// The model is fitted by an exact eigendecomposition of a covariance
// matrix — calibration matrices in MSPC have few columns. The caller
// supplies that matrix (mspc fits the correlation matrix, the covariance
// of the auto-scaled calibration data) and preprocesses observations the
// same way before projecting them; pair the model with stat.Scaler. The
// model keeps the full eigenvalue spectrum — the trailing (discarded)
// eigenvalues are exactly what the Jackson–Mudholkar SPE control limit
// needs.
package pca

import (
	"errors"
	"fmt"

	"pcsmon/internal/mat"
)

// Package-level sentinel errors.
var (
	// ErrBadComponents is returned when the requested number of components
	// is not in [1, min(N-1, M)].
	ErrBadComponents = errors.New("pca: invalid number of components")
	// ErrBadInput is returned for empty or malformed calibration data.
	ErrBadInput = errors.New("pca: invalid input")
)

// Model is a fitted PCA model.
type Model struct {
	loadings  *mat.Matrix // M×A loading matrix P
	loadingsT *mat.Matrix // A×M transpose Pᵀ: the scalar projection t = Pᵀ·x
	lanes     *mat.Matrix // M×A4 copy of P, A4 = A rounded up to 4, zero-padded: the AVX2 projection
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

// FitCov performs PCA given a covariance matrix and the number of
// observations n it was estimated from, retaining a components. The
// covariance comes from a mat.Moments that streamed the rows, however
// many, so the fit is O(M³) whatever the calibration size.
func FitCov(cov *mat.Matrix, n, a int) (*Model, error) {
	maxA, err := checkCov(cov, n)
	if err != nil {
		return nil, err
	}
	if a < 1 || a > maxA {
		return nil, fmt.Errorf("pca: a=%d not in [1,%d]: %w", a, maxA, ErrBadComponents)
	}
	eig, vecs, err := mat.EigenSym(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}
	return newModel(eig, vecs, n, a), nil
}

// FitCovAuto fits PCA from a covariance matrix choosing the number of
// components with rule. The one eigendecomposition serves both the rule
// and the model, which is identical to FitCov's at the chosen A.
func FitCovAuto(cov *mat.Matrix, n int, rule ComponentRule) (*Model, error) {
	if rule == nil {
		return nil, fmt.Errorf("pca: nil component rule: %w", ErrBadInput)
	}
	maxA, err := checkCov(cov, n)
	if err != nil {
		return nil, err
	}
	eig, vecs, err := mat.EigenSym(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}
	a := min(max(rule(eig), 1), maxA)
	return newModel(eig, vecs, n, a), nil
}

// checkCov validates a covariance matrix estimated from n observations
// and returns the largest number of components it supports, min(n−1, M).
func checkCov(cov *mat.Matrix, n int) (int, error) {
	if cov == nil || cov.IsEmpty() {
		return 0, fmt.Errorf("pca: empty covariance: %w", ErrBadInput)
	}
	m := cov.Rows()
	if cov.Cols() != m {
		return 0, fmt.Errorf("pca: covariance %dx%d not square: %w", cov.Rows(), cov.Cols(), ErrBadInput)
	}
	if n < 2 {
		return 0, fmt.Errorf("pca: n=%d observations: %w", n, ErrBadInput)
	}
	return min(m, n-1), nil
}

// newModel keeps the a leading eigenpairs of a full decomposition (eig
// descending, eigenvectors in the columns of vecs).
func newModel(eig []float64, vecs *mat.Matrix, n, a int) *Model {
	// Clamp tiny negative eigenvalues arising from round-off.
	for i, v := range eig {
		if v < 0 {
			eig[i] = 0
		}
	}
	m := vecs.Rows()
	loadings := mat.MustNew(m, a)
	for i := 0; i < m; i++ {
		for j := 0; j < a; j++ {
			loadings.Set(i, j, vecs.At(i, j))
		}
	}
	lanes := mat.MustNew(m, (a+3)&^3)
	for i := 0; i < m; i++ {
		copy(lanes.RowView(i), loadings.RowView(i))
	}
	return &Model{
		loadings:  loadings,
		loadingsT: loadings.T(),
		lanes:     lanes,
		eigvals:   append([]float64(nil), eig[:a]...),
		allEig:    eig,
		nobs:      n,
		nvars:     m,
	}
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
// On AVX2 hosts it runs mat.MulTVecInto over P, padded at fit time to a
// multiple of 4 columns so every score sits in a whole ymm lane; elsewhere
// it multiplies by the cached Pᵀ with mat.MulVecInto. Either way each score
// is one chain over the variables in ascending order, bit-identical to the
// naive column loop.
func (m *Model) ProjectInto(row, dst []float64) error {
	if len(row) != m.nvars {
		return fmt.Errorf("pca: Project len %d != nvars %d: %w", len(row), m.nvars, ErrBadInput)
	}
	if len(dst) != m.NComponents() {
		return fmt.Errorf("pca: Project dst len %d != %d components: %w", len(dst), m.NComponents(), ErrBadInput)
	}
	if mat.HasAVX2() {
		return mat.MulTVecInto(m.lanes, row, dst)
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
