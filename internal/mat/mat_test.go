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
	ar, ac := a.Dims()
	br, bc := b.Dims()
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
	if r, c := m.Dims(); r != 2 || c != 3 {
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
		func() { m.Col(9) },
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

func TestAddSub(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(1, 1) != 44 {
		t.Errorf("Add(1,1) = %g, want 44", sum.At(1, 1))
	}
	diff, err := Sub(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if diff.At(0, 0) != 9 {
		t.Errorf("Sub(0,0) = %g, want 9", diff.At(0, 0))
	}
	if _, err := Add(a, MustNew(3, 3)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("want ErrDimMismatch, got %v", err)
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
	m, _ := FromRows([][]float64{{1, 10}, {3, 30}, {5, 20}})
	means := ColMeans(m)
	if means[0] != 3 || means[1] != 20 {
		t.Errorf("means = %v, want [3 20]", means)
	}
	stds, err := ColStds(m, means)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(stds[0], 2, tol) || !almostEqual(stds[1], 10, tol) {
		t.Errorf("stds = %v, want [2 10]", stds)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Perfectly correlated columns: covariance matrix is rank one.
	m, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	c, err := Covariance(m)
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
	m := MustNew(1, 3)
	if _, err := Covariance(m); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestCovAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomMatrix(rng, 200, 7)
	batch, err := Covariance(m)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewCovAccumulator(7)
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
	if !matsAlmostEqual(t, batch, streamed, 1e-8) {
		t.Error("streamed covariance != batch covariance")
	}
	bm := ColMeans(m)
	am := acc.Means()
	for j := range bm {
		if !almostEqual(bm[j], am[j], 1e-10) {
			t.Errorf("mean[%d]: %g vs %g", j, bm[j], am[j])
		}
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
	v0 := vecs.Col(0)
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
		r, c := m.Dims()
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

func TestScale(t *testing.T) {
	m, _ := FromRows([][]float64{{1, -2}})
	m.Scale(3)
	if m.At(0, 0) != 3 || m.At(0, 1) != -6 {
		t.Errorf("Scale result %v", m.RowView(0))
	}
}

func TestSetRow(t *testing.T) {
	m := MustNew(2, 3)
	if err := m.SetRow(1, []float64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 9 {
		t.Errorf("SetRow not applied: %v", m.Row(1))
	}
	if err := m.SetRow(0, []float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("want ErrDimMismatch, got %v", err)
	}
}

func TestRowColCopies(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row returned aliasing slice")
	}
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Error("Col returned aliasing slice")
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
// EWMA accumulator must reproduce the plain accumulator (and hence the
// batch covariance) exactly — the identity the adaptive layer's
// "adaptation disabled" parity rests on.
func TestEWMACovAccumulatorLambdaOneMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 120, 5
	plain, err := NewCovAccumulator(m)
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := NewEWMACovAccumulator(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, m)
		for j := range row {
			row[j] = 10*rng.NormFloat64() + float64(j)
		}
		if err := plain.Add(row); err != nil {
			t.Fatal(err)
		}
		if err := ewma.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ewma.ESS(), float64(n); math.Abs(got-want) > 1e-9 {
		t.Errorf("ESS %g, want %g", got, want)
	}
	pm, em := plain.Means(), ewma.Means()
	for j := range pm {
		if math.Abs(pm[j]-em[j]) > 1e-9 {
			t.Errorf("mean[%d] %g vs %g", j, em[j], pm[j])
		}
	}
	pc, err := plain.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := ewma.Covariance()
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
	acc, err := NewEWMACovAccumulator(2, 0.95)
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
// errors.
func TestEWMACovAccumulatorValidation(t *testing.T) {
	if _, err := NewEWMACovAccumulator(0, 0.9); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("cols=0: %v", err)
	}
	for _, l := range []float64{0, -0.5, 1.5} {
		if _, err := NewEWMACovAccumulator(3, l); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("lambda=%g: %v", l, err)
		}
	}
	acc, err := NewEWMACovAccumulator(3, 0.9)
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
