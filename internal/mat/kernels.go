package mat

import "fmt"

// Fused, unrolled vector kernels for the MSPC hot path.
//
// Every kernel here is bit-identical to its naive loop: the 4-wide unrolled
// bodies keep a single accumulator chain (s += a; s += b; …), so the
// floating-point association order is exactly the order the scalar loop
// uses — only the loop overhead and the per-element bounds checks go away.
// That property is what lets the scoring pipeline adopt these kernels
// without perturbing a single golden report, and the package tests assert
// it with exact (==, not tolerance) comparisons against the naive
// implementations.
//
// The kernels follow the hot-path convention of At/Set: length mismatches
// panic (via the slice bounds checks the hoisting re-slices perform),
// because a shape error here is always a programmer bug upstream — the
// exported callers (Scaler.ApplyRow, Model.ProjectInto, …) have already
// validated their inputs.

// DotUnrolled returns the inner product of x and y, bit-identical to Dot
// but with the bounds checks hoisted and the loop unrolled 4-wide. y must
// be at least as long as x; extra elements are ignored.
//
//pcslint:hotpath
func DotUnrolled(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s float64
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		s += x4[0] * y4[0]
		s += x4[1] * y4[1]
		s += x4[2] * y4[2]
		s += x4[3] * y4[3]
	}
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// MulVecInto computes the matrix-vector product a·x into dst, bit-identical
// to MulVec but allocation-free. It is register-blocked: one sweep over x
// feeds four output rows, each with its own single accumulator chain in
// ascending column order, so x is loaded once per four dot products while
// every row's sum is still exactly the scalar loop's. The 0–3 leftover rows
// fall back to DotUnrolled.
//
//pcslint:hotpath
func MulVecInto(a *Matrix, x, dst []float64) error {
	if a.cols != len(x) {
		return errMulVecShape(a, len(x))
	}
	if len(dst) != a.rows {
		return errMulVecDst(a, len(dst))
	}
	n := a.cols
	i := 0
	for ; i+4 <= a.rows; i += 4 {
		r0 := a.data[i*n:][:len(x)]
		r1 := a.data[(i+1)*n:][:len(x)]
		r2 := a.data[(i+2)*n:][:len(x)]
		r3 := a.data[(i+3)*n:][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		d4 := dst[i : i+4 : i+4]
		d4[0], d4[1], d4[2], d4[3] = s0, s1, s2, s3
	}
	for ; i < a.rows; i++ {
		dst[i] = DotUnrolled(a.data[i*n:(i+1)*n], x)
	}
	return nil
}

// SubDivInto computes dst[i] = (x[i] − sub[i]) / div[i] — the fused
// center-and-scale step of MSPC preprocessing — unrolled 4-wide. x, sub and
// div must be at least as long as dst.
//
//pcslint:hotpath
func SubDivInto(dst, x, sub, div []float64) {
	n := len(dst)
	x = x[:n]
	sub = sub[:n]
	div = div[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d4 := dst[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		s4 := sub[i : i+4 : i+4]
		v4 := div[i : i+4 : i+4]
		d4[0] = (x4[0] - s4[0]) / v4[0]
		d4[1] = (x4[1] - s4[1]) / v4[1]
		d4[2] = (x4[2] - s4[2]) / v4[2]
		d4[3] = (x4[3] - s4[3]) / v4[3]
	}
	for ; i < n; i++ {
		dst[i] = (x[i] - sub[i]) / div[i]
	}
}

// AxpyInto computes dst[i] += a·x[i] — the accumulation step of projection
// and covariance updates — unrolled 4-wide. x must be at least as long as
// dst.
//
//pcslint:hotpath
func AxpyInto(dst []float64, a float64, x []float64) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d4 := dst[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		d4[0] += a * x4[0]
		d4[1] += a * x4[1]
		d4[2] += a * x4[2]
		d4[3] += a * x4[3]
	}
	for ; i < n; i++ {
		dst[i] += a * x[i]
	}
}

// FMAInto computes dst[i] = a·dst[i] + b·x[i] — the exponentially-forgetting
// accumulation step of the EWMA covariance tracker — unrolled 4-wide. x
// must be at least as long as dst.
//
//pcslint:hotpath
func FMAInto(dst []float64, a float64, x []float64, b float64) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d4 := dst[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		d4[0] = a*d4[0] + b*x4[0]
		d4[1] = a*d4[1] + b*x4[1]
		d4[2] = a*d4[2] + b*x4[2]
		d4[3] = a*d4[3] + b*x4[3]
	}
	for ; i < n; i++ {
		dst[i] = a*dst[i] + b*x[i]
	}
}

// errMulVecShape/errMulVecDst keep the error construction out of the
// inlining-sensitive kernel body.
func errMulVecShape(a *Matrix, n int) error {
	return fmt.Errorf("mat: MulVecInto %dx%d by len %d: %w", a.rows, a.cols, n, ErrDimMismatch)
}

func errMulVecDst(a *Matrix, n int) error {
	return fmt.Errorf("mat: MulVecInto %dx%d into dst len %d: %w", a.rows, a.cols, n, ErrDimMismatch)
}
