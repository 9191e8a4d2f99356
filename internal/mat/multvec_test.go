package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits is exact equality down to the sign of zero; any NaN matches any
// NaN (payloads may differ between SIMD and scalar propagation).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelPaths returns the kernel paths this host can run: the scalar loops
// always, the AVX2 kernels when the CPU has them.
func kernelPaths() []bool {
	if useAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

func pathName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "generic"
}

// withPath runs fn with the kernels forced onto one path.
func withPath(avx2 bool, fn func()) {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	fn()
}

// padCols copies the m×a matrix p into an m×roundup(a,4) matrix whose pad
// columns hold NaN, so a pad lane that leaked into dst would show.
func padCols(p *Matrix) *Matrix {
	stride := (p.cols + 3) &^ 3
	out := MustNew(p.rows, stride)
	for j := 0; j < p.rows; j++ {
		row := out.RowView(j)
		copy(row, p.RowView(j))
		for c := p.cols; c < stride; c++ {
			row[c] = math.NaN()
		}
	}
	return out
}

// checkMulTVec runs MulTVecInto on every path, over p and its padded copy,
// against MulVecInto over the transpose, bit for bit.
func checkMulTVec(t *testing.T, name string, p *Matrix, x []float64) {
	t.Helper()
	want := make([]float64, p.cols)
	if err := MulVecInto(p.T(), x, want); err != nil {
		t.Fatalf("%s: MulVecInto: %v", name, err)
	}
	for _, avx2 := range kernelPaths() {
		for _, a := range []*Matrix{p, padCols(p)} {
			got := make([]float64, p.cols)
			var err error
			withPath(avx2, func() { err = MulTVecInto(a, x, got) })
			if err != nil {
				t.Fatalf("%s %s stride %d: %v", name, pathName(avx2), a.cols, err)
			}
			for c := range want {
				if !sameBits(got[c], want[c]) {
					t.Fatalf("%s %s stride %d: score %d = %v (%#x), MulVecInto over Pᵀ = %v (%#x)",
						name, pathName(avx2), a.cols, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
				}
			}
		}
	}
}

// mixed returns a value of random sign and magnitude across 2^±30, so a
// reassociated sum or a fused multiply-add shows up as a bit difference.
func mixed(rng *rand.Rand) float64 {
	return (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(61)-30)
}

var finiteSpecials = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1.5e-310, -2.2e-309}

// TestMulTVecIntoExact pins the AVX2 kernel and the scalar loop against
// MulVecInto over the transpose, bit for bit, for every score count up to
// six sweeps of lanes (1–25, 41) and row counts around the paper's 53
// variables, on plain mixed-magnitude data, signed zeros and subnormals,
// all-zero loadings and with ±Inf and NaN injected.
func TestMulTVecIntoExact(t *testing.T) {
	if !useAVX2 {
		t.Log("CPU has no AVX2: checking the scalar loop only")
	}
	rng := rand.New(rand.NewSource(21))
	comps := []int{41}
	for a := 1; a <= 25; a++ {
		comps = append(comps, a)
	}
	fill := func(m, a int, gen func() float64) (*Matrix, []float64) {
		p := MustNew(m, a)
		for i := range p.data {
			p.data[i] = gen()
		}
		x := make([]float64, m)
		for i := range x {
			x[i] = gen()
		}
		return p, x
	}
	for _, a := range comps {
		for _, m := range []int{1, 2, 3, 5, 13, 53, 129} {
			shape := fmt.Sprintf("%dx%d", m, a)
			p, x := fill(m, a, func() float64 { return mixed(rng) })
			checkMulTVec(t, shape+" mixed", p, x)

			p, x = fill(m, a, func() float64 {
				if rng.Intn(3) == 0 {
					return finiteSpecials[rng.Intn(len(finiteSpecials))]
				}
				return mixed(rng)
			})
			checkMulTVec(t, shape+" zeros+subnormals", p, x)

			// ±0 loadings: every product is a signed zero, so the sums
			// pin the sign rules of the first add onto the +0 start.
			p, x = fill(m, a, func() float64 { return finiteSpecials[rng.Intn(2)] })
			for i := range x {
				x[i] = mixed(rng)
			}
			checkMulTVec(t, shape+" signed-zero loadings", p, x)

			p, x = fill(m, a, func() float64 { return mixed(rng) })
			x[rng.Intn(m)] = math.Inf(1)
			p.data[rng.Intn(len(p.data))] = math.Inf(-1)
			p.data[rng.Intn(len(p.data))] = math.NaN()
			checkMulTVec(t, shape+" inf+nan", p, x)
		}
	}
}

func TestMulTVecIntoShapeErrors(t *testing.T) {
	p := MustNew(5, 8)
	if err := MulTVecInto(p, make([]float64, 4), make([]float64, 8)); err == nil {
		t.Fatal("expected x length error")
	}
	if err := MulTVecInto(p, make([]float64, 5), make([]float64, 9)); err == nil {
		t.Fatal("expected dst length error")
	}
	if err := MulTVecInto(p, make([]float64, 5), nil); err != nil {
		t.Fatalf("empty dst: %v", err)
	}
}

// FuzzMulTVecInto feeds arbitrary bit patterns (every NaN, Inf, subnormal
// and signed zero included) through both paths against MulVecInto over the
// transpose.
func FuzzMulTVecInto(f *testing.F) {
	seed := make([]byte, 8*64)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(mixed(rng)))
	}
	f.Add(uint8(53), uint8(20), seed)
	f.Add(uint8(53), uint8(23), seed)
	f.Add(uint8(1), uint8(1), seed[:8])
	f.Fuzz(func(t *testing.T, m, a uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		nvals := len(data) / 8
		k := 0
		next := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(k%nvals):]))
			k++
			return v
		}
		rows, cols := int(m)%130+1, int(a)%41+1
		p := MustNew(rows, cols)
		for i := range p.data {
			p.data[i] = next()
		}
		x := make([]float64, rows)
		for i := range x {
			x[i] = next()
		}
		checkMulTVec(t, fmt.Sprintf("%dx%d", rows, cols), p, x)
	})
}
