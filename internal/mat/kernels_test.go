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

// TestAccumulatorsMatchNaive pins that the kernel-backed covariance
// accumulators still produce bit-identical cross-product sums.
func TestAccumulatorsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const cols, rows = 13, 40
	cov, err := NewCovAccumulator(cols)
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := NewEWMACovAccumulator(cols, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	naiveCross := make([]float64, cols*cols)
	naiveEwma := make([]float64, cols*cols)
	const l = 0.97
	for r := 0; r < rows; r++ {
		row := randSlice(rng, cols)
		if r%7 == 0 {
			row[r%cols] = 0 // exercise the vp==0 skip
		}
		if err := cov.Add(row); err != nil {
			t.Fatal(err)
		}
		if err := ewma.Add(row); err != nil {
			t.Fatal(err)
		}
		for p, vp := range row {
			for q := p; q < cols; q++ {
				if vp != 0 {
					naiveCross[p*cols+q] += vp * row[q]
				}
				naiveEwma[p*cols+q] = l*naiveEwma[p*cols+q] + vp*row[q]
			}
		}
	}
	for p := 0; p < cols; p++ {
		for q := p; q < cols; q++ {
			if cov.cross[p*cols+q] != naiveCross[p*cols+q] {
				t.Fatalf("CovAccumulator cross (%d,%d): %v != naive %v",
					p, q, cov.cross[p*cols+q], naiveCross[p*cols+q])
			}
			if ewma.cross[p*cols+q] != naiveEwma[p*cols+q] {
				t.Fatalf("EWMACovAccumulator cross (%d,%d): %v != naive %v",
					p, q, ewma.cross[p*cols+q], naiveEwma[p*cols+q])
			}
		}
	}
}

// refCovariance is the one-row-at-a-time upper-triangle loop Covariance
// replaced, kept verbatim as the exactness oracle.
func refCovariance(m *Matrix) *Matrix {
	means := ColMeans(m)
	c := MustNew(m.cols, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for p := 0; p < m.cols; p++ {
			dp := row[p] - means[p]
			if dp == 0 {
				continue
			}
			crow := c.data[p*m.cols : (p+1)*m.cols]
			for q := p; q < m.cols; q++ {
				crow[q] += dp * (row[q] - means[q])
			}
		}
	}
	inv := 1 / float64(m.rows-1)
	for p := 0; p < m.cols; p++ {
		for q := p; q < m.cols; q++ {
			v := c.data[p*m.cols+q] * inv
			c.data[p*m.cols+q] = v
			c.data[q*m.cols+p] = v
		}
	}
	return c
}

// TestCovarianceBlockedExact covers every remainder of the 4-row block
// (n mod 4 = 0..3) at the paper's 53 variables, with a constant column and
// entries exactly at their column mean so the dp == 0 skip runs inside
// full blocks and in the tail.
func TestCovarianceBlockedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const cols = 53
	for _, rows := range []int{2, 3, 4, 5, 6, 7, 8, 9, 40, 41, 42, 43} {
		m := MustNew(rows, cols)
		for i := 0; i < rows; i++ {
			copy(m.RowView(i), randSlice(rng, cols))
			m.Set(i, 7, 2.5) // constant column: every dp is 0
		}
		// Column 11 holds -1, 1, -1, 1, …, 0: its mean is exactly 0 for
		// an odd count, so the zero entries sit exactly at the mean.
		for i := 0; i < rows; i++ {
			v := float64(1 - 2*(i%2))
			if rows%2 == 1 && i == rows-1 {
				v = 0
			}
			m.Set(i, 11, v)
		}
		// Column 20 is 3 except one entry: the others sit at the mean
		// only when the exception happens to be 3 too, so give the
		// exception the same value in half the cases.
		for i := 0; i < rows; i++ {
			m.Set(i, 20, 3)
		}
		if rows%2 == 0 {
			m.Set(rows/2, 20, 5)
		}
		got, err := Covariance(m)
		if err != nil {
			t.Fatal(err)
		}
		want := refCovariance(m)
		for p := 0; p < cols; p++ {
			for q := 0; q < cols; q++ {
				if got.At(p, q) != want.At(p, q) {
					t.Fatalf("rows=%d (%d,%d): Covariance=%v, reference=%v", rows, p, q, got.At(p, q), want.At(p, q))
				}
			}
		}
	}
}

// TestCovarianceKeepsZeroSkip pins that a centred value of exactly 0 still
// skips its row's products: with an infinite entry in the same row, adding
// 0·(−Inf) would turn that cell into NaN, so the blocked kernel must skip
// exactly where the reference loop does.
func TestCovarianceKeepsZeroSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const cols = 9
	for _, rows := range []int{4, 5, 6, 7, 8} {
		m := MustNew(rows, cols)
		for i := 0; i < rows; i++ {
			copy(m.RowView(i), randSlice(rng, cols))
			m.Set(i, 1, 4) // at its mean in every row
		}
		m.Set(rows-1, 2, math.Inf(1))
		got, err := Covariance(m)
		if err != nil {
			t.Fatal(err)
		}
		want := refCovariance(m)
		for p := 0; p < cols; p++ {
			for q := 0; q < cols; q++ {
				g, w := got.At(p, q), want.At(p, q)
				if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("rows=%d (%d,%d): Covariance=%v, reference=%v", rows, p, q, g, w)
				}
			}
		}
		if v := got.At(1, 2); v != 0 {
			t.Fatalf("rows=%d: cov(const, inf col) = %v, want 0 (zero skip lost)", rows, v)
		}
	}
}
