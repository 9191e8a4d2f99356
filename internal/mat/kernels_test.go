package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randSlice returns n deterministic pseudo-random values with varied
// magnitudes so that any reassociation of the accumulator chain would show
// up as a bit difference.
func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (rng.Float64() - 0.5) * float64(1+rng.Intn(1000))
	}
	return out
}

// The kernel contracts are exact: results must be bit-identical to the
// naive scalar loops, not merely close. Lengths cover the empty and
// sub-width cases, every unroll remainder (0..3 tail elements) on both
// sides of the paper's 53 variables, and longer rows.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 31, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 64, 129}

// kernelSpecials are the inputs where a reordered, fused or reciprocal
// computation would show: NaN, ±Inf, ±0, subnormals and values whose
// products and quotients overflow.
var kernelSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 1.5e-310, -2.2e-309, 1e308, -1e308,
}

// specialSlice is randSlice with about one element in four replaced by a
// kernelSpecials entry.
func specialSlice(rng *rand.Rand, n int) []float64 {
	out := randSlice(rng, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
	}
	return out
}

// kernelInputs returns the input generators every exactness test runs:
// plain mixed-magnitude data and data laced with specials.
func kernelInputs() map[string]func(*rand.Rand, int) []float64 {
	return map[string]func(*rand.Rand, int) []float64{"plain": randSlice, "specials": specialSlice}
}

// checkBits fails unless got and want agree bit for bit (sameBits: −0 is
// not +0, and a NaN must meet a NaN). When two NaNs meet in a commutative
// add or multiply, Go does not fix which operand's payload survives — the
// race detector's build picks differently — so arithmetic results compare
// NaN payloads loosely; DecodeBigEndianInto, a pure byte move, is held to
// every payload bit with strict.
func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	checkBitsMode(t, what, got, want, sameBits)
}

func strict(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkBitsMode(t *testing.T, what string, got, want []float64, same func(a, b float64) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), naive %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// forEachPath runs fn on every kernel path this host has: the scalar
// loops, and the AVX2 bodies when the CPU has them.
func forEachPath(fn func(path string)) {
	for _, avx2 := range kernelPaths() {
		withPath(avx2, func() { fn(pathName(avx2)) })
	}
}

func TestDotUnrolledExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	forEachPath(func(path string) {
		for name, gen := range kernelInputs() {
			for _, n := range kernelLens {
				x := gen(rng, n)
				y := gen(rng, n)
				want, err := Dot(x, y)
				if err != nil {
					t.Fatalf("Dot: %v", err)
				}
				checkBits(t, fmt.Sprintf("%s %s n=%d DotUnrolled", path, name, n),
					[]float64{DotUnrolled(x, y)}, []float64{want})
			}
		}
	})
}

// TestMulVecIntoExact covers every remainder of the 4-row block, the
// paper's 53 variables and the A=20 and A=23 projections the monitors run.
func TestMulVecIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	forEachPath(func(path string) {
		for name, gen := range kernelInputs() {
			for _, r := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 20, 23} {
				for _, c := range kernelLens {
					if c == 0 {
						continue
					}
					a := MustNew(r, c)
					for i := 0; i < r; i++ {
						copy(a.RowView(i), gen(rng, c))
					}
					x := gen(rng, c)
					want, err := MulVec(a, x)
					if err != nil {
						t.Fatalf("MulVec: %v", err)
					}
					dst := make([]float64, r)
					if err := MulVecInto(a, x, dst); err != nil {
						t.Fatalf("MulVecInto: %v", err)
					}
					checkBits(t, fmt.Sprintf("%s %s %dx%d MulVecInto", path, name, r, c), dst, want)
				}
			}
		}
	})
}

func TestMulVecIntoShapeErrors(t *testing.T) {
	a := MustNew(2, 3)
	if err := MulVecInto(a, make([]float64, 4), make([]float64, 2)); err == nil {
		t.Fatal("expected error for x len mismatch")
	}
	if err := MulVecInto(a, make([]float64, 3), make([]float64, 1)); err == nil {
		t.Fatal("expected error for dst len mismatch")
	}
}

// TestSubDivIntoExact pins the AVX2 body and the unrolled loop against
// (x − m)/s element by element. The specials include zero divisors
// (±Inf and NaN quotients), overflowing differences and NaN operands.
// Inputs longer than dst must be ignored past len(dst).
func TestSubDivIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	forEachPath(func(path string) {
		for name, gen := range kernelInputs() {
			for _, n := range kernelLens {
				x := gen(rng, n+3)
				sub := gen(rng, n+1)
				div := gen(rng, n+2)
				want := make([]float64, n)
				for i := range want {
					want[i] = (x[i] - sub[i]) / div[i]
				}
				got := make([]float64, n+1)
				got[n] = 42
				SubDivInto(got[:n], x, sub, div)
				checkBits(t, fmt.Sprintf("%s %s n=%d SubDivInto", path, name, n), got[:n], want)
				if got[n] != 42 {
					t.Fatalf("%s %s n=%d: SubDivInto wrote past dst", path, name, n)
				}
			}
		}
	})
}

// TestDecodeBigEndianIntoExact pins the byte-swap kernel against
// binary.BigEndian on every path, at every byte alignment of the source
// (a frame's values start 14 bytes in), on random bit patterns and on the
// specials, with trailing bytes that must be ignored.
func TestDecodeBigEndianIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	forEachPath(func(path string) {
		for name, gen := range kernelInputs() {
			for _, n := range kernelLens {
				for off := 0; off < 8; off++ {
					src := make([]byte, off+8*n+5)
					rng.Read(src)
					for i, v := range gen(rng, n) {
						if rng.Intn(2) == 0 { // keep half the lanes raw random bits
							binary.BigEndian.PutUint64(src[off+8*i:], math.Float64bits(v))
						}
					}
					want := make([]float64, n)
					for i := range want {
						want[i] = math.Float64frombits(binary.BigEndian.Uint64(src[off+8*i:]))
					}
					got := make([]float64, n+1)
					got[n] = 42
					DecodeBigEndianInto(got[:n], src[off:])
					checkBitsMode(t, fmt.Sprintf("%s %s n=%d off=%d DecodeBigEndianInto", path, name, n, off), got[:n], want, strict)
					if got[n] != 42 {
						t.Fatalf("%s %s n=%d: DecodeBigEndianInto wrote past dst", path, name, n)
					}
				}
			}
		}
	})
}

func TestAxpyIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	forEachPath(func(path string) {
		for name, gen := range kernelInputs() {
			for _, n := range kernelLens {
				x := gen(rng, n)
				base := gen(rng, n)
				a := gen(rng, 1)[0]
				want := make([]float64, n)
				copy(want, base)
				for i := range want {
					want[i] += a * x[i]
				}
				got := make([]float64, n)
				copy(got, base)
				AxpyInto(got, a, x)
				checkBits(t, fmt.Sprintf("%s %s n=%d AxpyInto", path, name, n), got, want)
			}
		}
	})
}

func TestFMAIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	forEachPath(func(path string) {
		for name, gen := range kernelInputs() {
			for _, n := range kernelLens {
				x := gen(rng, n)
				base := gen(rng, n)
				a := rng.Float64()
				b := gen(rng, 1)[0]
				want := make([]float64, n)
				copy(want, base)
				for i := range want {
					want[i] = a*want[i] + b*x[i]
				}
				got := make([]float64, n)
				copy(got, base)
				FMAInto(got, a, x, b)
				checkBits(t, fmt.Sprintf("%s %s n=%d FMAInto", path, name, n), got, want)
			}
		}
	})
}

// TestKernelsZeroAlloc pins the allocation-free contract of every kernel.
func TestKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n = 64
	x := randSlice(rng, n)
	y := randSlice(rng, n)
	sub := randSlice(rng, n)
	div := randSlice(rng, n)
	for i := range div {
		if div[i] == 0 {
			div[i] = 1
		}
	}
	dst := make([]float64, n)
	a := MustNew(8, n)
	for i := 0; i < 8; i++ {
		copy(a.RowView(i), randSlice(rng, n))
	}
	mv := make([]float64, 8)
	lanes := MustNew(53, 20)
	for i := 0; i < 53; i++ {
		copy(lanes.RowView(i), randSlice(rng, 20))
	}
	scores := make([]float64, 20)
	var sink float64
	type check struct {
		name string
		fn   func()
	}
	checks := []check{
		{"DotUnrolled", func() { sink += DotUnrolled(x, y) }},
		{"MulVecInto", func() {
			if err := MulVecInto(a, x, mv); err != nil {
				t.Fatal(err)
			}
		}},
		{"AxpyInto", func() { AxpyInto(dst, 1.5, x) }},
		{"FMAInto", func() { FMAInto(dst, 0.99, x, 1.5) }},
	}
	frame := make([]byte, 8*n)
	for _, avx2 := range kernelPaths() {
		checks = append(checks, check{"MulTVecInto/" + pathName(avx2), func() {
			withPath(avx2, func() {
				if err := MulTVecInto(lanes, x[:53], scores); err != nil {
					t.Fatal(err)
				}
			})
		}}, check{"SubDivInto/" + pathName(avx2), func() {
			withPath(avx2, func() { SubDivInto(dst, x, sub, div) })
		}}, check{"DecodeBigEndianInto/" + pathName(avx2), func() {
			withPath(avx2, func() { DecodeBigEndianInto(dst, frame) })
		}})
	}
	for _, c := range checks {
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, got)
		}
	}
	_ = sink
}

// naiveMoments is the per-row update Moments.Add performs, as plain loops:
// the running means and the upper triangle of S after every row.
func naiveMoments(rows [][]float64, l float64) (mean, s []float64) {
	cols := len(rows[0])
	var w float64
	mean = make([]float64, cols)
	d := make([]float64, cols)
	e := make([]float64, cols)
	s = make([]float64, cols*cols)
	for _, row := range rows {
		w = l*w + 1
		inv := 1 / w
		for j, x := range row {
			d[j] = x - mean[j]
			mean[j] += d[j] * inv
			e[j] = x - mean[j]
		}
		for p := 0; p < cols; p++ {
			for q := p; q < cols; q++ {
				if l != 1 {
					s[p*cols+q] = l*s[p*cols+q] + d[p]*e[q]
				} else if d[p] != 0 {
					s[p*cols+q] += d[p] * e[q]
				}
			}
		}
	}
	return mean, s
}

// TestAccumulatorsMatchNaive pins that the kernel-backed moments update
// is bit-identical to its plain loops, with and without forgetting.
func TestAccumulatorsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const cols = 13
	for _, l := range []float64{1, 0.97} {
		acc, err := NewMoments(cols, l)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, 41)
		for r := range rows {
			rows[r] = randSlice(rng, cols)
			if r%7 == 0 {
				rows[r][r%cols] = acc.mean[r%cols] // exercise the dp == 0 skip
			}
			if err := acc.Add(rows[r]); err != nil {
				t.Fatal(err)
			}
		}
		acc.flush()
		mean, s := naiveMoments(rows, l)
		for j := range mean {
			if acc.mean[j] != mean[j] {
				t.Fatalf("λ=%v mean[%d]: %v != naive %v", l, j, acc.mean[j], mean[j])
			}
		}
		for p := 0; p < cols; p++ {
			for q := p; q < cols; q++ {
				if acc.s[p*cols+q] != s[p*cols+q] {
					t.Fatalf("λ=%v S(%d,%d): %v != naive %v", l, p, q, acc.s[p*cols+q], s[p*cols+q])
				}
			}
		}
	}
}

// TestCovarianceBlockedExact covers every remainder of the 4-row block
// (n mod 4 = 0..3) at the paper's 53 variables, with a constant column,
// whose δ is 0 in every row after the first, so the δ_p == 0 skip runs
// inside full blocks and in the tail, and entries at their running mean:
// the covariance must equal the per-row update's, bit for bit.
func TestCovarianceBlockedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const cols = 53
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 40, 41, 42, 43} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = randSlice(rng, cols)
			rows[i][7] = 2.5 // constant column: every δ is 0
			// Column 11 runs 1, −1, 0, −1, 1, −1, 0, …: after the first
			// two rows its running mean is exactly 0, so row 2's 0 sits
			// at it.
			rows[i][11] = float64(1 - 2*(i%2))
			if i%4 == 2 {
				rows[i][11] = 0
			}
			rows[i][20] = 3 // 3 except one entry
		}
		rows[n/2][20] = 5
		acc, err := NewMoments(cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := acc.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		got, err := acc.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		_, s := naiveMoments(rows, 1)
		for p := 0; p < cols; p++ {
			for q := p; q < cols; q++ {
				want := s[p*cols+q] / float64(n-1)
				if got.At(p, q) != want || got.At(q, p) != want {
					t.Fatalf("n=%d (%d,%d): Covariance=%v, per-row update=%v", n, p, q, got.At(p, q), want)
				}
			}
		}
	}
}

// refMoments is the two-pass reference: column means first, then the
// centred products, divided by N−1.
func refMoments(m *Matrix) ([]float64, *Matrix) {
	means := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.RowView(i) {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(m.rows)
	}
	c := MustNew(m.cols, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.RowView(i)
		for p := 0; p < m.cols; p++ {
			for q := 0; q < m.cols; q++ {
				c.data[p*m.cols+q] += (row[p] - means[p]) * (row[q] - means[q])
			}
		}
	}
	for k := range c.data {
		c.data[k] /= float64(m.rows - 1)
	}
	return means, c
}

// TestCovarianceKeepsZeroSkip pins that a centred value of exactly 0 still
// skips its row's products: with an infinite entry in the same row, adding
// 0·(−Inf) would turn that cell into NaN, so a channel at its mean in every
// row keeps an exactly-zero covariance with the infinite one. Every other
// cell, infinite and NaN ones included, must equal the per-row update's.
func TestCovarianceKeepsZeroSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const cols = 9
	for _, rows := range []int{4, 5, 6, 7, 8} {
		acc, err := NewMoments(cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]float64, rows)
		for i := range data {
			data[i] = randSlice(rng, cols)
			data[i][1] = 4 // at its mean in every row
		}
		data[rows-1][2] = math.Inf(1)
		for _, row := range data {
			if err := acc.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		got, err := acc.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		_, s := naiveMoments(data, 1)
		for p := 0; p < cols; p++ {
			for q := 0; q < cols; q++ {
				w := s[min(p, q)*cols+max(p, q)] / float64(rows-1)
				if g := got.At(p, q); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("rows=%d (%d,%d): Covariance=%v, per-row update=%v", rows, p, q, g, w)
				}
			}
		}
		if v := got.At(1, 2); v != 0 {
			t.Fatalf("rows=%d: cov(const, inf col) = %v, want 0 (zero skip lost)", rows, v)
		}
	}
}
