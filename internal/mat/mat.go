// Package mat provides the small dense linear-algebra kernel used by the
// MSPC stack: row-major matrices, the usual products, covariance
// accumulation and a symmetric (Jacobi) eigendecomposition.
//
// The package is intentionally minimal — it implements exactly what
// PCA-based multivariate statistical process control needs, with no external
// dependencies. Matrices are small (tens of columns), so clarity and
// correctness come first; the few hot kernels are register-blocked or, for
// the scoring projection, SIMD, and all of them are bit-identical to their
// naive loops.
//
// MulTVecInto's AVX2 kernel keeps that bit-identity by giving each ymm lane
// one score: per variable j in ascending order it broadcasts x[j] and adds
// P[j,c:c+4]·x[j] into the accumulators, so every lane is a single chain in
// the scalar loop's order and the lanes never mix. It multiplies and then
// adds (VMULPD, VADDPD), each rounding as the scalar s += p*x does. It uses
// no FMA: a fused multiply-add rounds once instead of twice and would change
// bits. CPUs without AVX2 and other architectures run the scalar loops.
//
// Error conventions follow the repository style: exported constructors and
// operations return errors on dimension mismatch; element accessors (At,
// Set) panic on out-of-range indices because an index error there is always
// a programmer bug on a hot path.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Package-level sentinel errors.
var (
	// ErrDimMismatch is returned when operand shapes are incompatible.
	ErrDimMismatch = errors.New("mat: dimension mismatch")
	// ErrEmpty is returned when an operation requires a non-empty matrix.
	ErrEmpty = errors.New("mat: empty matrix")
	// ErrNotConverged is returned when an iterative routine exhausts its
	// iteration budget before reaching the requested tolerance.
	ErrNotConverged = errors.New("mat: iteration did not converge")
)

// Matrix is a dense, row-major matrix of float64.
//
// The zero value is an empty (0×0) matrix; use New or the other
// constructors for anything useful.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed r×c matrix. It returns an error if either dimension
// is negative or the product overflows.
func New(r, c int) (*Matrix, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("mat: negative dimension %dx%d: %w", r, c, ErrDimMismatch)
	}
	if r > 0 && c > math.MaxInt/r {
		return nil, fmt.Errorf("mat: dimension overflow %dx%d: %w", r, c, ErrDimMismatch)
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}, nil
}

// MustNew is New that panics on error; for use with constant dimensions.
func MustNew(r, c int) *Matrix {
	m, err := New(r, c)
	if err != nil {
		panic(err)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	c := len(rows[0])
	m, err := New(len(rows), c)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: row %d has %d entries, want %d: %w", i, len(row), c, ErrDimMismatch)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := MustNew(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the (rows, cols) of m.
func (m *Matrix) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// IsEmpty reports whether the matrix has no elements.
func (m *Matrix) IsEmpty() bool { return m.rows == 0 || m.cols == 0 }

// At returns the element at row i, column j. It panics if out of range.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j. It panics if out of range.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// RowView returns the i-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix. It panics if out of range.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %d rows", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Row returns a copy of the i-th row.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.RowView(i))
	return out
}

// Col returns a copy of the j-th column.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range for %d cols", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies src into row i. It returns ErrDimMismatch if len(src) != Cols.
func (m *Matrix) SetRow(i int, src []float64) error {
	if len(src) != m.cols {
		return fmt.Errorf("mat: SetRow len %d != cols %d: %w", len(src), m.cols, ErrDimMismatch)
	}
	copy(m.RowView(i), src)
	return nil
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := MustNew(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Add returns a+b. Shapes must match.
func Add(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("mat: add %dx%d with %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimMismatch)
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Sub returns a-b. Shapes must match.
func Sub(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("mat: sub %dx%d with %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimMismatch)
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out, nil
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("mat: mul %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimMismatch)
	}
	out := MustNew(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product a·x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("mat: mulvec %dx%d by len %d: %w", a.rows, a.cols, len(x), ErrDimMismatch)
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// VecMul returns the vector-matrix product xᵀ·a as a slice of length a.Cols.
func VecMul(x []float64, a *Matrix) ([]float64, error) {
	if a.rows != len(x) {
		return nil, fmt.Errorf("mat: vecmul len %d by %dx%d: %w", len(x), a.rows, a.cols, ErrDimMismatch)
	}
	out := make([]float64, a.cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			out[j] += xv * v
		}
	}
	return out, nil
}

// Gram returns aᵀ·a (the Gram matrix), exploiting symmetry.
func Gram(a *Matrix) *Matrix {
	out := MustNew(a.cols, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		for p, vp := range row {
			if vp == 0 {
				continue
			}
			orow := out.data[p*a.cols : (p+1)*a.cols]
			for q := p; q < a.cols; q++ {
				orow[q] += vp * row[q]
			}
		}
	}
	// Mirror the upper triangle.
	for p := 0; p < a.cols; p++ {
		for q := p + 1; q < a.cols; q++ {
			out.data[q*a.cols+p] = out.data[p*a.cols+q]
		}
	}
	return out
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("mat: dot len %d with len %d: %w", len(x), len(y), ErrDimMismatch)
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s, nil
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsOffDiag returns the largest absolute off-diagonal element of a
// square matrix, used as the Jacobi convergence criterion.
func MaxAbsOffDiag(a *Matrix) float64 {
	var m float64
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			if i == j {
				continue
			}
			if v := math.Abs(a.data[i*a.cols+j]); v > m {
				m = v
			}
		}
	}
	return m
}

// EigenSym computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method. It returns eigenvalues in descending order and
// the corresponding orthonormal eigenvectors as the columns of the returned
// matrix. The input is not modified.
//
// The method is unconditionally stable for symmetric input and more than
// fast enough for the ≤ ~100-variable problems MSPC deals with.
func EigenSym(s *Matrix) (values []float64, vectors *Matrix, err error) {
	if s.rows != s.cols {
		return nil, nil, fmt.Errorf("mat: eigen of %dx%d: %w", s.rows, s.cols, ErrDimMismatch)
	}
	n := s.rows
	if n == 0 {
		return nil, nil, ErrEmpty
	}
	// Verify symmetry within a scaled tolerance.
	var maxAbs float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if v := math.Abs(s.data[i*n+j]); v > maxAbs {
				maxAbs = v
			}
		}
	}
	symTol := 1e-8 * math.Max(1, maxAbs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(s.data[i*n+j]-s.data[j*n+i]) > symTol {
				return nil, nil, fmt.Errorf("mat: matrix not symmetric at (%d,%d): %w", i, j, ErrDimMismatch)
			}
		}
	}

	a := s.Clone()
	v := Identity(n)
	const maxSweeps = 100
	tol := 1e-12 * math.Max(1, maxAbs)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := MaxAbsOffDiag(a)
		if off <= tol {
			return extractEigen(a, v)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.data[p*n+q]
				if math.Abs(apq) <= tol/float64(n) {
					continue
				}
				app := a.data[p*n+p]
				aqq := a.data[q*n+q]
				// Rotation angle via the stable formulation.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(theta*theta+1))
				} else {
					t = -1 / (-theta + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c

				// Apply the rotation: A ← JᵀAJ on rows/cols p,q.
				for k := 0; k < n; k++ {
					akp := a.data[k*n+p]
					akq := a.data[k*n+q]
					a.data[k*n+p] = c*akp - sn*akq
					a.data[k*n+q] = sn*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk := a.data[p*n+k]
					aqk := a.data[q*n+k]
					a.data[p*n+k] = c*apk - sn*aqk
					a.data[q*n+k] = sn*apk + c*aqk
				}
				// Accumulate eigenvectors: V ← VJ.
				for k := 0; k < n; k++ {
					vkp := v.data[k*n+p]
					vkq := v.data[k*n+q]
					v.data[k*n+p] = c*vkp - sn*vkq
					v.data[k*n+q] = sn*vkp + c*vkq
				}
			}
		}
	}
	if MaxAbsOffDiag(a) <= 1e-7*math.Max(1, maxAbs) {
		// Converged to a looser but still acceptable tolerance.
		return extractEigen(a, v)
	}
	return nil, nil, fmt.Errorf("mat: jacobi sweeps exhausted: %w", ErrNotConverged)
}

// extractEigen pulls the diagonal of a as eigenvalues, sorts descending and
// permutes the eigenvector columns to match.
func extractEigen(a, v *Matrix) ([]float64, *Matrix, error) {
	n := a.rows
	values := make([]float64, n)
	for i := range values {
		values[i] = a.data[i*n+i]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by descending eigenvalue — n is small.
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && values[idx[j-1]] < values[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	sortedVals := make([]float64, n)
	vecs := MustNew(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
		for r := 0; r < n; r++ {
			vecs.data[r*n+newCol] = v.data[r*n+oldCol]
		}
	}
	return sortedVals, vecs, nil
}

// ColMeans returns the per-column means of m.
func ColMeans(m *Matrix) []float64 {
	out := make([]float64, m.cols)
	if m.rows == 0 {
		return out
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += v
		}
	}
	inv := 1 / float64(m.rows)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// ColStds returns the per-column sample standard deviations (divisor N-1) of
// m, given precomputed column means. Columns with zero variance yield 0.
func ColStds(m *Matrix, means []float64) ([]float64, error) {
	if len(means) != m.cols {
		return nil, fmt.Errorf("mat: means len %d != cols %d: %w", len(means), m.cols, ErrDimMismatch)
	}
	out := make([]float64, m.cols)
	if m.rows < 2 {
		return out, nil
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			d := v - means[j]
			out[j] += d * d
		}
	}
	inv := 1 / float64(m.rows-1)
	for j := range out {
		out[j] = math.Sqrt(out[j] * inv)
	}
	return out, nil
}

// Covariance returns the sample covariance matrix (divisor N-1) of the rows
// of m. It requires at least two rows.
//
// Rows are taken four at a time: each block is centred once, then applied
// to the upper triangle as a rank-4 update, so every c[p][q] is loaded and
// stored once per four rows while still adding its products in ascending
// row order. A row whose centred value dp is exactly 0 adds nothing to row
// p of the triangle, as in the plain one-row-at-a-time loop, so the result
// is bit-identical to it (even for non-finite entries).
func Covariance(m *Matrix) (*Matrix, error) {
	if m.rows < 2 {
		return nil, fmt.Errorf("mat: covariance needs ≥2 rows, got %d: %w", m.rows, ErrEmpty)
	}
	means := ColMeans(m)
	n := m.cols
	c := MustNew(n, n)
	centred := make([]float64, 4*n)
	d0, d1, d2, d3 := centred[:n], centred[n:2*n], centred[2*n:3*n], centred[3*n:]
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		centre(d0, m.data[i*n:(i+1)*n], means)
		centre(d1, m.data[(i+1)*n:(i+2)*n], means)
		centre(d2, m.data[(i+2)*n:(i+3)*n], means)
		centre(d3, m.data[(i+3)*n:(i+4)*n], means)
		for p := 0; p < n; p++ {
			crow := c.data[p*n+p : (p+1)*n]
			a0, a1, a2, a3 := d0[p], d1[p], d2[p], d3[p]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for k, dp := range [4]float64{a0, a1, a2, a3} {
					if dp != 0 {
						AxpyInto(crow, dp, centred[k*n+p:(k+1)*n])
					}
				}
				continue
			}
			q0 := d0[p:]
			q1, q2, q3 := d1[p:][:len(q0)], d2[p:][:len(q0)], d3[p:][:len(q0)]
			crow = crow[:len(q0)]
			for q, v := range crow {
				v += a0 * q0[q]
				v += a1 * q1[q]
				v += a2 * q2[q]
				v += a3 * q3[q]
				crow[q] = v
			}
		}
	}
	for ; i < m.rows; i++ {
		centre(d0, m.data[i*n:(i+1)*n], means)
		for p, dp := range d0 {
			if dp != 0 {
				AxpyInto(c.data[p*n+p:(p+1)*n], dp, d0[p:])
			}
		}
	}
	inv := 1 / float64(m.rows-1)
	for p := 0; p < n; p++ {
		for q := p; q < n; q++ {
			v := c.data[p*n+q] * inv
			c.data[p*n+q] = v
			c.data[q*n+p] = v
		}
	}
	return c, nil
}

// centre writes row − means into dst.
func centre(dst, row, means []float64) {
	row = row[:len(dst)]
	means = means[:len(dst)]
	for j := range dst {
		dst[j] = row[j] - means[j]
	}
}

// CovAccumulator accumulates a covariance matrix incrementally from streamed
// rows without retaining them, using per-column sums and cross-products.
// This lets calibration consume millions of observations with O(M²) memory.
//
// The zero value is not usable; call NewCovAccumulator.
type CovAccumulator struct {
	n     int
	cols  int
	sum   []float64
	cross []float64 // upper-triangular packed full M×M row-major
}

// NewCovAccumulator returns an accumulator for rows of width cols.
func NewCovAccumulator(cols int) (*CovAccumulator, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("mat: accumulator cols %d: %w", cols, ErrDimMismatch)
	}
	return &CovAccumulator{
		cols:  cols,
		sum:   make([]float64, cols),
		cross: make([]float64, cols*cols),
	}, nil
}

// Add accumulates one observation row.
func (c *CovAccumulator) Add(row []float64) error {
	if len(row) != c.cols {
		return fmt.Errorf("mat: accumulator row len %d != %d: %w", len(row), c.cols, ErrDimMismatch)
	}
	c.n++
	for p, vp := range row {
		c.sum[p] += vp
		if vp == 0 {
			continue
		}
		AxpyInto(c.cross[p*c.cols+p:(p+1)*c.cols], vp, row[p:])
	}
	return nil
}

// N returns the number of accumulated observations.
func (c *CovAccumulator) N() int { return c.n }

// Means returns the accumulated column means.
func (c *CovAccumulator) Means() []float64 {
	out := make([]float64, c.cols)
	if c.n == 0 {
		return out
	}
	inv := 1 / float64(c.n)
	for j, s := range c.sum {
		out[j] = s * inv
	}
	return out
}

// Covariance finalizes the sample covariance matrix (divisor N-1).
func (c *CovAccumulator) Covariance() (*Matrix, error) {
	if c.n < 2 {
		return nil, fmt.Errorf("mat: accumulator has %d rows, need ≥2: %w", c.n, ErrEmpty)
	}
	means := c.Means()
	out := MustNew(c.cols, c.cols)
	invN1 := 1 / float64(c.n-1)
	for p := 0; p < c.cols; p++ {
		for q := p; q < c.cols; q++ {
			v := (c.cross[p*c.cols+q] - float64(c.n)*means[p]*means[q]) * invN1
			out.data[p*c.cols+q] = v
			out.data[q*c.cols+p] = v
		}
	}
	return out, nil
}

// EWMACovAccumulator is the exponentially-forgetting form of
// CovAccumulator: each Add discounts the accumulated statistics by a forget
// factor λ ∈ (0,1] before folding the new row in, so the estimated mean and
// covariance track a slowly moving process instead of averaging over its
// whole history. λ=1 recovers the plain accumulator (infinite memory); the
// effective memory of λ<1 is ~1/(1−λ) observations.
//
// This is the statistics engine of the adaptive recalibration layer: it
// streams in-control observations with O(M²) memory and yields the weighted
// covariance/means/effective-sample-size triple that CalibrateCov needs.
//
// The zero value is not usable; call NewEWMACovAccumulator. The accumulator
// is not safe for concurrent use.
type EWMACovAccumulator struct {
	lambda float64
	cols   int
	w, w2  float64 // sum of weights and of squared weights
	sum    []float64
	cross  []float64 // upper triangle used, full M×M row-major
}

// NewEWMACovAccumulator returns an accumulator for rows of width cols with
// forget factor lambda ∈ (0, 1].
func NewEWMACovAccumulator(cols int, lambda float64) (*EWMACovAccumulator, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("mat: accumulator cols %d: %w", cols, ErrDimMismatch)
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("mat: forget factor %g not in (0,1]: %w", lambda, ErrDimMismatch)
	}
	return &EWMACovAccumulator{
		lambda: lambda,
		cols:   cols,
		sum:    make([]float64, cols),
		cross:  make([]float64, cols*cols),
	}, nil
}

// Add discounts the accumulated statistics by λ and folds one observation
// row in with unit weight.
func (c *EWMACovAccumulator) Add(row []float64) error {
	if len(row) != c.cols {
		return fmt.Errorf("mat: accumulator row len %d != %d: %w", len(row), c.cols, ErrDimMismatch)
	}
	l := c.lambda
	c.w = l*c.w + 1
	c.w2 = l*l*c.w2 + 1
	for p, vp := range row {
		c.sum[p] = l*c.sum[p] + vp
		FMAInto(c.cross[p*c.cols+p:(p+1)*c.cols], l, row[p:], vp)
	}
	return nil
}

// Weight returns the current sum of weights — the EWMA analogue of the
// observation count, saturating at 1/(1−λ).
func (c *EWMACovAccumulator) Weight() float64 { return c.w }

// ESS returns the effective sample size (Σw)²/Σw², the number of equally
// weighted observations carrying the same statistical information. For λ=1
// this is exactly the observation count; for λ<1 it saturates near
// 2/(1−λ).
func (c *EWMACovAccumulator) ESS() float64 {
	if c.w2 == 0 {
		return 0
	}
	return c.w * c.w / c.w2
}

// Means returns the weighted column means.
func (c *EWMACovAccumulator) Means() []float64 {
	out := make([]float64, c.cols)
	if c.w == 0 {
		return out
	}
	inv := 1 / c.w
	for j, s := range c.sum {
		out[j] = s * inv
	}
	return out
}

// Covariance finalizes the weighted sample covariance with the unbiased
// reliability-weights divisor (for λ=1 this reduces exactly to the N−1
// divisor of CovAccumulator). It requires an effective sample size above 1.
func (c *EWMACovAccumulator) Covariance() (*Matrix, error) {
	den := c.w*c.w - c.w2
	if den <= 1e-12 {
		return nil, fmt.Errorf("mat: EWMA accumulator needs effective sample size > 1: %w", ErrEmpty)
	}
	corr := c.w * c.w / den // bias correction: Σw² / (Σw² − Σw²ᵢ)
	means := c.Means()
	out := MustNew(c.cols, c.cols)
	invW := 1 / c.w
	for p := 0; p < c.cols; p++ {
		for q := p; q < c.cols; q++ {
			v := (c.cross[p*c.cols+q]*invW - means[p]*means[q]) * corr
			out.data[p*c.cols+q] = v
			out.data[q*c.cols+p] = v
		}
	}
	return out, nil
}

// String renders a compact, aligned preview of the matrix (all of it when
// small, truncated when large) for debugging.
func (m *Matrix) String() string {
	const maxShow = 8
	r, c := m.rows, m.cols
	out := fmt.Sprintf("mat(%dx%d)[", r, c)
	for i := 0; i < r && i < maxShow; i++ {
		if i > 0 {
			out += "; "
		}
		for j := 0; j < c && j < maxShow; j++ {
			if j > 0 {
				out += " "
			}
			out += fmt.Sprintf("%.4g", m.data[i*m.cols+j])
		}
		if c > maxShow {
			out += " …"
		}
	}
	if r > maxShow {
		out += "; …"
	}
	return out + "]"
}
