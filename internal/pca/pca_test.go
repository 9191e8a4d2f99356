package pca

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pcsmon/internal/mat"
	"pcsmon/internal/stat"
)

// lowRankData generates n observations of m variables driven by k latent
// factors plus isotropic noise, then autoscales — a canonical PCA testbed.
func lowRankData(rng *rand.Rand, n, m, k int, noise float64) *mat.Matrix {
	w := mat.MustNew(k, m)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			w.Set(i, j, rng.NormFloat64())
		}
	}
	x := mat.MustNew(n, m)
	z := make([]float64, k)
	for i := 0; i < n; i++ {
		for f := range z {
			z[f] = rng.NormFloat64() * float64(k-f) // decaying factor scales
		}
		row, _ := mat.VecMul(z, w)
		for j := 0; j < m; j++ {
			x.Set(i, j, row[j]+noise*rng.NormFloat64())
		}
	}
	sc, err := stat.FitScaler(x)
	if err != nil {
		panic(err)
	}
	scaled, err := sc.Apply(x)
	if err != nil {
		panic(err)
	}
	return scaled
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil: want ErrBadInput, got %v", err)
	}
	if _, err := Fit(mat.MustNew(1, 3), 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("1 row: want ErrBadInput, got %v", err)
	}
	x := lowRankData(rand.New(rand.NewSource(1)), 20, 5, 2, 0.1)
	if _, err := Fit(x, 0); !errors.Is(err, ErrBadComponents) {
		t.Errorf("a=0: want ErrBadComponents, got %v", err)
	}
	if _, err := Fit(x, 6); !errors.Is(err, ErrBadComponents) {
		t.Errorf("a=6 > m: want ErrBadComponents, got %v", err)
	}
}

func TestLoadingsOrthonormal(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(2)), 100, 8, 3, 0.2)
	model, err := Fit(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := model.Loadings()
	gram := mat.Gram(p)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(gram.At(i, j)-want) > 1e-8 {
				t.Errorf("PᵀP at (%d,%d) = %g, want %g", i, j, gram.At(i, j), want)
			}
		}
	}
}

func TestScoreVariancesMatchEigenvalues(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(3)), 300, 10, 3, 0.3)
	model, err := Fit(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := model.Scores(x)
	if err != nil {
		t.Fatal(err)
	}
	eig := model.Eigenvalues()
	for a := 0; a < 4; a++ {
		v, err := stat.Variance(scores.Col(a))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-eig[a]) > 1e-6*math.Max(1, eig[a]) {
			t.Errorf("score var[%d] = %g, eigenvalue = %g", a, v, eig[a])
		}
	}
}

func TestScoresUncorrelated(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(4)), 400, 8, 3, 0.2)
	model, err := Fit(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := model.Scores(x)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := mat.Covariance(scores)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			if math.Abs(cov.At(i, j)) > 1e-6 {
				t.Errorf("score covariance (%d,%d) = %g, want ~0", i, j, cov.At(i, j))
			}
		}
	}
}

func TestResidualOrthogonalToReconstruction(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(5)), 50, 7, 2, 0.5)
	model, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		row := x.RowView(i)
		rec, err := model.Reconstruct(row)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.Residual(row)
		if err != nil {
			t.Fatal(err)
		}
		dot, err := mat.Dot(rec, res)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dot) > 1e-8 {
			t.Fatalf("row %d: residual not orthogonal to reconstruction (dot=%g)", i, dot)
		}
		// x = rec + res exactly.
		for j := range row {
			if math.Abs(rec[j]+res[j]-row[j]) > 1e-10 {
				t.Fatalf("row %d col %d: rec+res != x", i, j)
			}
		}
	}
}

func TestExplainedVarianceSumsBelowOne(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(6)), 200, 9, 3, 0.4)
	model, err := Fit(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := model.ExplainedVariance()
	var sum float64
	for i, v := range ev {
		if v < 0 || v > 1 {
			t.Errorf("explained variance[%d] = %g out of [0,1]", i, v)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("explained variance sum = %g > 1", sum)
	}
	// 3 latent factors with noise: 3 PCs should explain most variance.
	if sum < 0.7 {
		t.Errorf("3 PCs explain only %.2f of variance on rank-3 data", sum)
	}
	// Full spectrum sums to total variance (M for autoscaled data).
	var tot float64
	for _, v := range append(model.Eigenvalues(), model.ResidualEigenvalues()...) {
		tot += v
	}
	if math.Abs(tot-9) > 1e-6 {
		t.Errorf("Σλ = %g, want 9 (autoscaled, M=9)", tot)
	}
}

func TestResidualEigenvaluesPartition(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(7)), 100, 6, 2, 0.3)
	model, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(model.ResidualEigenvalues()); got != 4 {
		t.Errorf("len(residual eig) = %d, want 4", got)
	}
	if model.NComponents() != 2 || model.NVars() != 6 || model.NObs() != 100 {
		t.Errorf("dims: A=%d M=%d N=%d", model.NComponents(), model.NVars(), model.NObs())
	}
}

func TestFitCovMatchesFit(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(8)), 150, 7, 3, 0.2)
	m1, err := Fit(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := mat.Covariance(x)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitCov(cov, x.Rows(), 3)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := m1.Eigenvalues(), m2.Eigenvalues()
	for i := range e1 {
		if math.Abs(e1[i]-e2[i]) > 1e-10 {
			t.Errorf("eig[%d]: %g vs %g", i, e1[i], e2[i])
		}
	}
}

func TestFitAutoRules(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(9)), 300, 10, 3, 0.15)
	model, err := FitAuto(x, CumVarianceRule(0.85))
	if err != nil {
		t.Fatal(err)
	}
	if a := model.NComponents(); a < 1 || a > 10 {
		t.Errorf("CumVarianceRule chose %d components", a)
	}
	if _, err := FitAuto(x, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil rule: want ErrBadInput, got %v", err)
	}
}

func TestComponentRulesDirect(t *testing.T) {
	eig := []float64{5, 3, 1.5, 0.3, 0.2}
	if a := CumVarianceRule(0.5)(eig); a != 1 {
		t.Errorf("CumVariance(0.5) = %d, want 1 (5/10)", a)
	}
	if a := CumVarianceRule(0.8)(eig); a != 2 {
		t.Errorf("CumVariance(0.8) = %d, want 2 (8/10)", a)
	}
	if a := CumVarianceRule(1.0)(eig); a != 5 {
		t.Errorf("CumVariance(1.0) = %d, want 5", a)
	}
}

func TestProjectDimensionError(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(10)), 30, 5, 2, 0.2)
	model, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Project([]float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Errorf("want ErrBadInput, got %v", err)
	}
	if _, err := model.Scores(mat.MustNew(3, 2)); !errors.Is(err, ErrBadInput) {
		t.Errorf("want ErrBadInput, got %v", err)
	}
}

// TestProjectionIdempotent checks P·Pᵀ·(P·Pᵀ·x) = P·Pᵀ·x — the model
// projection is idempotent for any observation.
func TestProjectionIdempotentProperty(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(13)), 80, 6, 2, 0.4)
	model, err := Fit(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(14))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		row := make([]float64, 6)
		for j := range row {
			row[j] = rng.NormFloat64() * 3
		}
		once, err := model.Reconstruct(row)
		if err != nil {
			return false
		}
		twice, err := model.Reconstruct(once)
		if err != nil {
			return false
		}
		for j := range once {
			if math.Abs(once[j]-twice[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestVarianceDecompositionProperty: ‖x‖² = ‖x̂‖² + ‖e‖² (Pythagoras in the
// model/residual split) for any observation.
func TestVarianceDecompositionProperty(t *testing.T) {
	x := lowRankData(rand.New(rand.NewSource(15)), 60, 5, 2, 0.3)
	model, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(16))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.NormFloat64() * 2
		}
		rec, err := model.Reconstruct(row)
		if err != nil {
			return false
		}
		res, err := model.Residual(row)
		if err != nil {
			return false
		}
		lhs := mat.Norm2(row)
		rhs := math.Sqrt(mat.Norm2(rec)*mat.Norm2(rec) + mat.Norm2(res)*mat.Norm2(res))
		return math.Abs(lhs-rhs) < 1e-9*math.Max(1, lhs)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
