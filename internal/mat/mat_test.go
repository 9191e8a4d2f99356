package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func matsAlmostEqual(t *testing.T, a, b *Matrix, eps float64) bool {
	t.Helper()
	ar, ac := a.rows, a.cols
	br, bc := b.rows, b.cols
	if ar != br || ac != bc {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", ar, ac, br, bc)
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			if !almostEqual(a.At(i, j), b.At(i, j), eps) {
				t.Logf("element (%d,%d): %g vs %g", i, j, a.At(i, j), b.At(i, j))
				return false
			}
		}
	}
	return true
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := MustNew(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	s := MustNew(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, (a.At(i, j)+a.At(j, i))/2)
		}
	}
	return s
}

func TestNewRejectsNegativeDims(t *testing.T) {
	for _, dims := range [][2]int{{-1, 2}, {2, -1}, {-3, -3}} {
		if _, err := New(dims[0], dims[1]); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("New(%d,%d): want ErrDimMismatch, got %v", dims[0], dims[1], err)
		}
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if r, c := m.rows, m.cols; r != 2 || c != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", r, c)
	}
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %g, want 6", got)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("ragged FromRows: want ErrDimMismatch, got %v", err)
	}
}

func TestFromRowsCopiesData(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	m, err := FromRows(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("FromRows aliased caller data; want a copy")
	}
}

func TestAtSetPanicOutOfRange(t *testing.T) {
	m := MustNew(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.RowView(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestTransposeKnown(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	want, _ := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !matsAlmostEqual(t, m.T(), want, tol) {
		t.Error("transpose mismatch")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !matsAlmostEqual(t, got, want, tol) {
		t.Error("mul mismatch")
	}
}

func TestMulDimMismatch(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(2, 3)
	if _, err := Mul(a, b); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("want ErrDimMismatch, got %v", err)
	}
}

func TestMulVecKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := MulVec(a, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", got)
	}
}

func TestVecMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := VecMul([]float64{1, 1}, a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("VecMul[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 13, 5)
	explicit, err := Mul(a.T(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !matsAlmostEqual(t, Gram(a), explicit, 1e-10) {
		t.Error("Gram != AᵀA")
	}
}

func TestDotAndNorm(t *testing.T) {
	d, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d != 32 {
		t.Errorf("Dot = %g, want 32", d)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("want ErrDimMismatch, got %v", err)
	}
	if n := Norm2([]float64{3, 4}); n != 5 {
		t.Errorf("Norm2 = %g, want 5", n)
	}
}

func TestColMeansStds(t *testing.T) {
	means, cov, err := streamMoments([][]float64{{1, 10}, {3, 30}, {5, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if means[0] != 3 || means[1] != 20 {
		t.Errorf("means = %v, want [3 20]", means)
	}
	// Standard deviations are the square roots of the covariance diagonal.
	if s0, s1 := math.Sqrt(cov.At(0, 0)), math.Sqrt(cov.At(1, 1)); !almostEqual(s0, 2, tol) || !almostEqual(s1, 10, tol) {
		t.Errorf("stds = [%v %v], want [2 10]", s0, s1)
	}
}

// TestColMeansConstantColumnExact: a column that holds one value c must
// have mean exactly c — not c plus the rounding of a 19 201-term sum — and
// therefore an exactly-zero covariance row and column, whatever the
// magnitude of c. Columns alternate held values with noisy ones. The rows
// are folded both in one pass and as two parts merged, split at an odd
// row.
func TestColMeansConstantColumnExact(t *testing.T) {
	held := []float64{22.21, 40.064, 0.1, -0.3, 3.3e-7, 2748.25123, 1e6 + 0.1, -7.77e12}
	const n = 19201
	cols := 2 * len(held)
	whole, err := NewMoments(cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	head, _ := NewMoments(cols, 1)
	tail, _ := NewMoments(cols, 1)
	rng := rand.New(rand.NewSource(19201))
	row := make([]float64, cols)
	for i := 0; i < n; i++ {
		for k, c := range held {
			row[2*k] = c
			row[2*k+1] = c + rng.NormFloat64()
		}
		part := head
		if i >= 7777 {
			part = tail
		}
		if err := whole.Add(row); err != nil {
			t.Fatal(err)
		}
		if err := part.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.Merge(tail); err != nil {
		t.Fatal(err)
	}
	for name, acc := range map[string]*Moments{"one pass": whole, "merged": head} {
		means := acc.Means()
		cov, err := acc.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range held {
			j := 2 * k
			if means[j] != c {
				t.Errorf("%s: mean of a column of %v = %v (off by %g)", name, c, means[j], means[j]-c)
			}
			for q := 0; q < cols; q++ {
				if cov.At(j, q) != 0 || cov.At(q, j) != 0 {
					t.Errorf("%s, column of %v: covariance (%d,%d) = %g, (%d,%d) = %g, want 0", name, c, j, q, cov.At(j, q), q, j, cov.At(q, j))
				}
			}
		}
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Perfectly correlated columns: covariance matrix is rank one.
	_, c, err := streamMoments([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c.At(0, 0), 1, tol) {
		t.Errorf("var(x) = %g, want 1", c.At(0, 0))
	}
	if !almostEqual(c.At(1, 1), 4, tol) {
		t.Errorf("var(y) = %g, want 4", c.At(1, 1))
	}
	if !almostEqual(c.At(0, 1), 2, tol) || !almostEqual(c.At(1, 0), 2, tol) {
		t.Errorf("cov(x,y) = %g/%g, want 2", c.At(0, 1), c.At(1, 0))
	}
}

func TestCovarianceNeedsRows(t *testing.T) {
	if _, _, err := streamMoments([][]float64{{1, 2, 3}}); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

// TestCovAccumulatorMatchesBatch: the streaming moments agree with the
// two-pass reference (means first, then centred products).
func TestCovAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomMatrix(rng, 200, 7)
	for i := 0; i < m.Rows(); i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = 1000*float64(j) + row[j] // offsets the one-pass form loses digits to
		}
	}
	wantMeans, want := refMoments(m)
	acc, err := NewMoments(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows(); i++ {
		if err := acc.Add(m.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	if acc.N() != 200 {
		t.Fatalf("N = %d, want 200", acc.N())
	}
	streamed, err := acc.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	if !matsAlmostEqual(t, want, streamed, 1e-10) {
		t.Error("streamed covariance != two-pass covariance")
	}
	am := acc.Means()
	for j := range wantMeans {
		if !almostEqual(wantMeans[j], am[j], 1e-14) {
			t.Errorf("mean[%d]: %g vs %g", j, wantMeans[j], am[j])
		}
	}
}

// TestMomentsMergeMatchesOnePass: merging the moments of consecutive
// parts, in order, gives the moments of the whole — count, weight, means
// and covariance — for every split, with empty parts merging as the
// identity; the merged-in part is left untouched.
func TestMomentsMergeMatchesOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const rows, cols = 60, 9
	m := randomMatrix(rng, rows, cols)
	for i := 0; i < rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = 50*float64(j) + 3*row[j]
		}
	}
	fold := func(lo, hi int) *Moments {
		acc, err := NewMoments(cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			if err := acc.Add(m.RowView(i)); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}
	whole := fold(0, rows)
	wantCov, err := whole.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	for _, cuts := range [][]int{{0}, {rows}, {1}, {30}, {7, 19, 44}, {0, 0, 31, rows}} {
		parts := make([]*Moments, 0, len(cuts)+1)
		lo := 0
		for _, c := range append(cuts, rows) {
			parts = append(parts, fold(lo, c))
			lo = c
		}
		last := parts[len(parts)-1]
		lastMeans := last.Means()
		merged := parts[0]
		for _, p := range parts[1:] {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if merged.N() != rows || merged.Weight() != rows || merged.ESS() != rows {
			t.Errorf("cuts %v: N %d, weight %v, ESS %v, want %d", cuts, merged.N(), merged.Weight(), merged.ESS(), rows)
		}
		got, err := merged.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		if !matsAlmostEqual(t, wantCov, got, 1e-12) {
			t.Errorf("cuts %v: merged covariance != one-pass covariance", cuts)
		}
		for j, v := range merged.Means() {
			if !almostEqual(v, whole.mean[j], 1e-14) {
				t.Errorf("cuts %v: mean[%d] %v, one pass %v", cuts, j, v, whole.mean[j])
			}
		}
		if len(parts) > 1 {
			for j, v := range last.Means() {
				if v != lastMeans[j] {
					t.Fatalf("cuts %v: Merge changed its argument", cuts)
				}
			}
		}
	}
	// An empty part merges as the identity, on either side, bit for bit.
	empty, _ := NewMoments(cols, 1)
	if err := whole.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if err := empty.Merge(whole); err != nil {
		t.Fatal(err)
	}
	for _, acc := range []*Moments{whole, empty} {
		got, _ := acc.Covariance()
		for p := 0; p < cols; p++ {
			for q := 0; q < cols; q++ {
				if got.At(p, q) != wantCov.At(p, q) {
					t.Fatalf("merging an empty part moved cov(%d,%d): %v, want %v", p, q, got.At(p, q), wantCov.At(p, q))
				}
			}
		}
	}
	other, _ := NewMoments(cols+1, 1)
	if err := whole.Merge(other); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("merging %d cols into %d: %v, want ErrDimMismatch", cols+1, cols, err)
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	s, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 3, tol) || !almostEqual(vals[1], 1, tol) {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	// First eigenvector should be ±[1,1]/√2.
	v0 := []float64{vecs.At(0, 0), vecs.At(1, 0)}
	if !almostEqual(math.Abs(v0[0]), 1/math.Sqrt2, 1e-8) || !almostEqual(math.Abs(v0[1]), 1/math.Sqrt2, 1e-8) {
		t.Errorf("first eigenvector = %v", v0)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	s, _ := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 3}})
	vals, _, err := EigenSym(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, -2}
	for i := range want {
		if !almostEqual(vals[i], want[i], tol) {
			t.Errorf("vals[%d] = %g, want %g", i, vals[i], want[i])
		}
	}
}

func TestEigenSymRejectsNonSymmetric(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigenSym(s); err == nil {
		t.Error("want error for non-symmetric input")
	}
	if _, _, err := EigenSym(MustNew(2, 3)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("want ErrDimMismatch for non-square, got %v", err)
	}
}

// TestEigenSymReconstruction checks S ≈ V·diag(λ)·Vᵀ and VᵀV ≈ I over a
// range of random symmetric matrices.
func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 10, 25, 53} {
		s := randomSymmetric(rng, n)
		vals, vecs, err := EigenSym(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Eigenvalues are sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-10 {
				t.Errorf("n=%d: eigenvalues not descending at %d: %v > %v", n, i, vals[i], vals[i-1])
			}
		}
		// Orthonormality.
		gram := Gram(vecs)
		eye := Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(gram.At(i, j)-eye.At(i, j)) > 1e-8 {
					t.Fatalf("n=%d: VᵀV not identity at (%d,%d): %g", n, i, j, gram.At(i, j))
				}
			}
		}
		// Reconstruction.
		lam := MustNew(n, n)
		for i, v := range vals {
			lam.Set(i, i, v)
		}
		vl, err := Mul(vecs, lam)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Mul(vl, vecs.T())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(rec.At(i, j)-s.At(i, j)) > 1e-7 {
					t.Fatalf("n=%d: reconstruction off at (%d,%d): %g vs %g", n, i, j, rec.At(i, j), s.At(i, j))
				}
			}
		}
	}
}

func TestEigenSymTraceInvariant(t *testing.T) {
	// Σλᵢ must equal trace(S) for any symmetric S.
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		s := randomSymmetric(rng, n)
		vals, _, err := EigenSym(s)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += s.At(i, i)
			sum += vals[i]
		}
		return math.Abs(trace-sum) < 1e-8*math.Max(1, math.Abs(trace))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		tt := m.T().T()
		r, c := m.rows, m.cols
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if m.At(i, j) != tt.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulTransposeProperty(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(9))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		ba, err := Mul(b.T(), a.T())
		if err != nil {
			return false
		}
		abT := ab.T()
		for i := 0; i < c; i++ {
			for j := 0; j < r; j++ {
				if !almostEqual(abT.At(i, j), ba.At(i, j), 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestStringPreview(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if s := m.String(); s == "" {
		t.Error("String() empty")
	}
	big := MustNew(20, 20)
	if s := big.String(); s == "" {
		t.Error("String() empty for big matrix")
	}
}

func TestIdentityAndIsEmpty(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(3) at (%d,%d) = %g", i, j, id.At(i, j))
			}
		}
	}
	if id.IsEmpty() {
		t.Error("Identity(3).IsEmpty() = true")
	}
	var zero Matrix
	if !zero.IsEmpty() {
		t.Error("zero Matrix should be empty")
	}
}

// TestEWMACovAccumulatorLambdaOneMatchesPlain: with forget factor 1 the
// weights are plain counts — Weight and ESS are exactly N and the
// covariance divisor is exactly N−1 — so the moments are the equally
// weighted ones, the identity the adaptive layer's "adaptation disabled"
// parity rests on.
func TestEWMACovAccumulatorLambdaOneMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 120, 5
	x := MustNew(n, m)
	acc, err := NewMoments(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		for j := range row {
			row[j] = 10*rng.NormFloat64() + float64(j)
		}
		if err := acc.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if acc.N() != n || acc.Weight() != n || acc.ESS() != n {
		t.Errorf("N %d, weight %v, ESS %v, want %d", acc.N(), acc.Weight(), acc.ESS(), n)
	}
	pm, pc := refMoments(x)
	em := acc.Means()
	for j := range pm {
		if math.Abs(pm[j]-em[j]) > 1e-9 {
			t.Errorf("mean[%d] %g vs %g", j, em[j], pm[j])
		}
	}
	ec, err := acc.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < m; p++ {
		for q := 0; q < m; q++ {
			if d := math.Abs(pc.At(p, q) - ec.At(p, q)); d > 1e-8 {
				t.Errorf("cov(%d,%d) differs by %g", p, q, d)
			}
		}
	}
}

// TestEWMACovAccumulatorTracksShift: with forgetting enabled the estimated
// mean must track a level shift, converging to the new level — the property
// that lets the adaptive layer follow slow plant aging.
func TestEWMACovAccumulatorTracksShift(t *testing.T) {
	acc, err := NewMoments(2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	row := make([]float64, 2)
	for i := 0; i < 200; i++ {
		row[0] = 5 + 0.1*rng.NormFloat64()
		row[1] = -3 + 0.1*rng.NormFloat64()
		if err := acc.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		row[0] = 9 + 0.1*rng.NormFloat64()
		row[1] = 1 + 0.1*rng.NormFloat64()
		if err := acc.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	m := acc.Means()
	if math.Abs(m[0]-9) > 0.2 || math.Abs(m[1]-1) > 0.2 {
		t.Errorf("means %v did not track the shift to (9, 1)", m)
	}
	// Effective memory ~1/(1-λ): the old level must be essentially gone.
	if ess := acc.ESS(); ess < 10 || ess > 50 {
		t.Errorf("ESS %g outside the expected band for λ=0.95", ess)
	}
	if _, err := acc.Covariance(); err != nil {
		t.Errorf("covariance after tracking: %v", err)
	}
}

// TestEWMACovAccumulatorValidation covers constructor and degenerate-state
// errors; a forget factor outside (0,1], NaN and infinities included, has
// its own sentinel.
func TestEWMACovAccumulatorValidation(t *testing.T) {
	if _, err := NewMoments(0, 0.9); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("cols=0: %v", err)
	}
	for _, l := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewMoments(3, l); !errors.Is(err, ErrBadForget) || errors.Is(err, ErrDimMismatch) {
			t.Errorf("lambda=%g: %v, want ErrBadForget alone", l, err)
		}
	}
	acc, err := NewMoments(3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add([]float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("short row: %v", err)
	}
	if _, err := acc.Covariance(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty covariance: %v", err)
	}
	if err := acc.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Covariance(); !errors.Is(err, ErrEmpty) {
		t.Errorf("single-row covariance: %v", err)
	}
}

// streamMoments folds rows, in order, into the streaming moments and
// returns their means and covariance.
func streamMoments(rows [][]float64) ([]float64, *Matrix, error) {
	acc, err := NewMoments(len(rows[0]), 1)
	if err != nil {
		return nil, nil, err
	}
	for _, row := range rows {
		if err := acc.Add(row); err != nil {
			return nil, nil, err
		}
	}
	cov, err := acc.Covariance()
	return acc.Means(), cov, err
}
