package mat

import "fmt"

// MulTVecInto computes the transposed product dst = aᵀ·x over the first
// len(dst) columns of a: dst[c] = Σ_j a[j,c]·x[j], each score one
// accumulator chain in ascending row order — bit-identical to MulVecInto
// over a's transpose, without needing the transpose. len(x) must equal
// a.Rows() and len(dst) must not exceed a.Cols(); the columns past len(dst)
// are never read into dst, so a caller may pad a's row stride to a multiple
// of 4 with zero columns.
//
// With that padding, on amd64 CPUs with AVX2, the product runs in SIMD
// lanes: each ymm accumulator holds four scores and takes one broadcast
// x[j] per row (see the package comment for why that keeps every bit).
// Otherwise a scalar loop computes the same chains.
//
//pcslint:hotpath
func MulTVecInto(a *Matrix, x, dst []float64) error {
	if a.rows != len(x) {
		return errMulTVecShape(a, len(x))
	}
	if len(dst) > a.cols {
		return errMulTVecDst(a, len(dst))
	}
	if len(dst) == 0 {
		return nil
	}
	if useAVX2 && a.cols%4 == 0 {
		mulTVecAVX2(a.data, a.cols, x, dst)
		return nil
	}
	mulTVecGeneric(a, x, dst)
	return nil
}

// mulTVecGeneric is MulTVecInto's scalar loop. Hosts without AVX2 project
// with MulVecInto over a cached transpose instead (see HasAVX2), so this
// loop stays plain.
func mulTVecGeneric(a *Matrix, x, dst []float64) {
	for c := range dst {
		var s float64
		for j, xv := range x {
			s += a.data[j*a.cols+c] * xv
		}
		dst[c] = s
	}
}

// HasAVX2 reports whether MulTVecInto runs its AVX2 kernel on this host.
// Callers holding a transposed copy can use it to pick MulVecInto instead,
// which is the faster scalar form.
func HasAVX2() bool { return useAVX2 }

func errMulTVecShape(a *Matrix, n int) error {
	return fmt.Errorf("mat: MulTVecInto %dx%d transposed by len %d: %w", a.rows, a.cols, n, ErrDimMismatch)
}

func errMulTVecDst(a *Matrix, n int) error {
	return fmt.Errorf("mat: MulTVecInto %dx%d transposed into dst len %d: %w", a.rows, a.cols, n, ErrDimMismatch)
}
