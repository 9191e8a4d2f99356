package mat

import (
	"errors"
	"fmt"
)

// ErrBadForget is returned for a forget factor outside (0, 1], NaN
// included.
var ErrBadForget = errors.New("mat: forget factor not in (0,1]")

// Moments accumulates the weighted mean and covariance of streamed rows
// without retaining them, in O(M²) memory. It is the one source of
// calibration moments: a file, a set of simulation runs and the adaptive
// layer's refits all fold rows into it.
//
// Each Add first discounts the rows already held by a forget factor
// λ ∈ (0,1] and then folds the new row in with weight 1, using West's
// weighted form of Welford's update: with δ = x − m and W the new total
// weight, m ← m + δ/W and S ← λS + δ(x − m)ᵀ. λ = 1 is the plain
// (equally weighted) case; λ < 1 forgets with an effective memory of
// ~1/(1−λ) rows. The update centres every row on the running mean, so it
// does not suffer the cancellation of the one-pass Σxxᵀ − n·m·mᵀ form: a
// column that holds one value c gets mean exactly c and an exactly-zero
// covariance row and column.
//
// Merge pools two accumulators (Chan, Golub & LeVeque's pairwise update),
// so independent parts of a data set can be folded concurrently and
// combined in a fixed order.
//
// The zero value is not usable; call NewMoments. A Moments is not safe for
// concurrent use.
type Moments struct {
	lambda float64
	cols   int
	n      int
	w, w2  float64 // sum of weights and of squared weights
	mean   []float64
	s      []float64 // upper triangle of Σ w·(x−m)(x−m)ᵀ, M×M row-major
	// d and e hold, for up to blockRows rows not yet applied to s, x − m
	// before and after each row's mean update; pend counts them.
	d, e []float64
	pend int
}

// blockRows is how many rows of a λ = 1 accumulator are applied to the
// triangle at once. Calibration is most of a service's setup time: on a
// 2-CPU Xeon at 19 200 × 53, the per-row update took 28–30 ms where the
// blocked one takes 15–19 ms, and perfbench's median setup_s rose by 11 %
// on both tcp-steady (0.128 → 0.142 s, higher in 5 of 5 pairs) and
// replay-attack-mix (0.140 → 0.155 s).
const blockRows = 4

// NewMoments returns an accumulator for rows of width cols with forget
// factor lambda ∈ (0, 1] (1 = no forgetting).
func NewMoments(cols int, lambda float64) (*Moments, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("mat: moments cols %d: %w", cols, ErrDimMismatch)
	}
	if !(lambda > 0 && lambda <= 1) {
		return nil, fmt.Errorf("mat: forget factor %g: %w", lambda, ErrBadForget)
	}
	return &Moments{
		lambda: lambda,
		cols:   cols,
		mean:   make([]float64, cols),
		s:      make([]float64, cols*cols),
		d:      make([]float64, blockRows*cols),
		e:      make([]float64, blockRows*cols),
	}, nil
}

// Add folds one row in with weight 1, after discounting the rows already
// held by the forget factor.
//
// For λ = 1 the products of up to four rows are applied to the triangle
// together, as a rank-4 update that still adds each row's products in row
// order, so every S[p][q] is loaded and stored once per four rows and the
// result is bit-identical to applying the rows one at a time. A row whose
// δ_p is exactly 0 adds nothing to row p of the triangle, in either form.
func (m *Moments) Add(row []float64) error {
	if len(row) != m.cols {
		return fmt.Errorf("mat: moments row len %d != %d: %w", len(row), m.cols, ErrDimMismatch)
	}
	l := m.lambda
	m.n++
	m.w = l*m.w + 1
	m.w2 = l*l*m.w2 + 1
	inv := 1 / m.w
	n := m.cols
	mean := m.mean[:len(row)]
	d, e := m.d[m.pend*n:][:len(row)], m.e[m.pend*n:][:len(row)]
	for j, x := range row {
		dj := x - mean[j]
		mean[j] += dj * inv
		d[j] = dj
		e[j] = x - mean[j]
	}
	if l != 1 {
		for p, dp := range d {
			FMAInto(m.s[p*n+p:(p+1)*n], l, e[p:], dp)
		}
		return nil
	}
	if m.pend++; m.pend == blockRows {
		m.flush()
	}
	return nil
}

// flush applies the pending rows' products to the triangle.
func (m *Moments) flush() {
	n := m.cols
	d, e := m.d, m.e
	for p := 0; p < n; p++ {
		srow := m.s[p*n+p : (p+1)*n]
		a0, a1, a2, a3 := d[p], d[n+p], d[2*n+p], d[3*n+p]
		if m.pend < blockRows || a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			for k := 0; k < m.pend; k++ {
				if dp := d[k*n+p]; dp != 0 {
					AxpyInto(srow, dp, e[k*n+p:(k+1)*n])
				}
			}
			continue
		}
		q0 := e[p:n]
		q1, q2, q3 := e[n+p : 2*n][:len(q0)], e[2*n+p : 3*n][:len(q0)], e[3*n+p : 4*n][:len(q0)]
		srow = srow[:len(q0)]
		for q, v := range srow {
			v += a0 * q0[q]
			v += a1 * q1[q]
			v += a2 * q2[q]
			v += a3 * q3[q]
			srow[q] = v
		}
	}
	m.pend = 0
}

// Merge folds the rows held by o into m, each with the weight it carries
// in o: for λ = 1 the result holds the moments of both row sets. The
// moments o holds are not changed.
func (m *Moments) Merge(o *Moments) error {
	if o.cols != m.cols {
		return fmt.Errorf("mat: merge moments of %d cols into %d: %w", o.cols, m.cols, ErrDimMismatch)
	}
	m.flush()
	o.flush()
	if o.w == 0 {
		return nil
	}
	w := m.w + o.w
	f := o.w / w
	k := m.w * f // m.w·o.w / w
	d := m.d[:m.cols]
	for j := range d {
		d[j] = o.mean[j] - m.mean[j]
		m.mean[j] += d[j] * f
	}
	n := m.cols
	for p, dp := range d {
		srow, orow := m.s[p*n+p:(p+1)*n], o.s[p*n+p:(p+1)*n]
		for q := range srow {
			srow[q] += orow[q]
		}
		if dp != 0 {
			AxpyInto(srow, k*dp, d[p:])
		}
	}
	m.n += o.n
	m.w = w
	m.w2 += o.w2
	return nil
}

// Cols returns the row width.
func (m *Moments) Cols() int { return m.cols }

// N returns the number of rows folded in.
func (m *Moments) N() int { return m.n }

// Weight returns the sum of the rows' weights: N for λ = 1, saturating at
// 1/(1−λ) otherwise.
func (m *Moments) Weight() float64 { return m.w }

// ESS returns the effective sample size (Σw)²/Σw², the number of equally
// weighted rows carrying the same information: N for λ = 1, saturating
// near 2/(1−λ) otherwise.
func (m *Moments) ESS() float64 {
	if m.w2 == 0 {
		return 0
	}
	return m.w * m.w / m.w2
}

// Means returns a copy of the weighted column means.
func (m *Moments) Means() []float64 {
	return append([]float64(nil), m.mean...)
}

// Covariance returns the weighted sample covariance with the unbiased
// reliability-weights divisor Σw − Σw²/Σw, which is N − 1 for λ = 1. It
// needs an effective sample size above 1.
func (m *Moments) Covariance() (*Matrix, error) {
	m.flush()
	den := m.w - m.w2/m.w
	if !(den > 0) {
		return nil, fmt.Errorf("mat: moments of %d rows (weight %g) have no covariance: %w", m.n, m.w, ErrEmpty)
	}
	n := m.cols
	out := MustNew(n, n)
	for p := 0; p < n; p++ {
		for q := p; q < n; q++ {
			v := m.s[p*n+q] / den
			out.data[p*n+q] = v
			out.data[q*n+p] = v
		}
	}
	return out, nil
}
