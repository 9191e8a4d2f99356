package mat

import (
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
// naive scalar loops, not merely close. Lengths cover every unroll
// remainder (0..3 tail elements) plus the empty and sub-width cases.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 129}

func TestDotUnrolledExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range kernelLens {
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		want, err := Dot(x, y)
		if err != nil {
			t.Fatalf("Dot: %v", err)
		}
		if got := DotUnrolled(x, y); got != want {
			t.Fatalf("n=%d: DotUnrolled=%v, Dot=%v", n, got, want)
		}
	}
}

// TestMulVecIntoExact covers every remainder of the 4-row block, the
// paper's 53 variables and the A=20 and A=23 projections the monitors run.
func TestMulVecIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, r := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 20, 23} {
		for _, c := range append(kernelLens, 53) {
			if c == 0 {
				continue
			}
			a := MustNew(r, c)
			for i := 0; i < r; i++ {
				copy(a.RowView(i), randSlice(rng, c))
			}
			x := randSlice(rng, c)
			want, err := MulVec(a, x)
			if err != nil {
				t.Fatalf("MulVec: %v", err)
			}
			dst := make([]float64, r)
			if err := MulVecInto(a, x, dst); err != nil {
				t.Fatalf("MulVecInto: %v", err)
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("%dx%d row %d: MulVecInto=%v, MulVec=%v", r, c, i, dst[i], want[i])
				}
			}
		}
	}
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

func TestSubDivIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range kernelLens {
		x := randSlice(rng, n)
		sub := randSlice(rng, n)
		div := randSlice(rng, n)
		for i := range div {
			if div[i] == 0 {
				div[i] = 1
			}
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = (x[i] - sub[i]) / div[i]
		}
		got := make([]float64, n)
		SubDivInto(got, x, sub, div)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: SubDivInto=%v, naive=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestAxpyIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range kernelLens {
		x := randSlice(rng, n)
		base := randSlice(rng, n)
		a := rng.Float64()*10 - 5
		want := make([]float64, n)
		copy(want, base)
		for i := range want {
			want[i] += a * x[i]
		}
		got := make([]float64, n)
		copy(got, base)
		AxpyInto(got, a, x)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: AxpyInto=%v, naive=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFMAIntoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range kernelLens {
		x := randSlice(rng, n)
		base := randSlice(rng, n)
		a := rng.Float64()
		b := rng.Float64()*10 - 5
		want := make([]float64, n)
		copy(want, base)
		for i := range want {
			want[i] = a*want[i] + b*x[i]
		}
		got := make([]float64, n)
		copy(got, base)
		FMAInto(got, a, x, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: FMAInto=%v, naive=%v", n, i, got[i], want[i])
			}
		}
	}
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
		{"SubDivInto", func() { SubDivInto(dst, x, sub, div) }},
		{"AxpyInto", func() { AxpyInto(dst, 1.5, x) }},
		{"FMAInto", func() { FMAInto(dst, 0.99, x, 1.5) }},
	}
	for _, avx2 := range mulTVecPaths() {
		checks = append(checks, check{"MulTVecInto/" + pathName(avx2), func() {
			withPath(avx2, func() {
				if err := MulTVecInto(lanes, x[:53], scores); err != nil {
					t.Fatal(err)
				}
			})
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
