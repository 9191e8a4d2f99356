package omeda

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pcsmon/internal/mat"
	"pcsmon/internal/pca"
	"pcsmon/internal/stat"
)

// fixture builds a PCA model on correlated NOC data and returns the model,
// the scaler and a generator of preprocessed anomalous observations with a
// chosen variable shifted by a chosen amount (in calibration sigmas).
type fixture struct {
	model  *pca.Model
	scaler *stat.Scaler
	base   *mat.Matrix // calibration data, engineering units
	rng    *rand.Rand
}

func newFixture(t *testing.T, seed int64, n, m, k int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, m)
		for j := range w[i] {
			w[i][j] = rng.NormFloat64()
		}
	}
	x := mat.MustNew(n, m)
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		for f := 0; f < k; f++ {
			z := rng.NormFloat64()
			for j := 0; j < m; j++ {
				row[j] += z * w[f][j]
			}
		}
		for j := 0; j < m; j++ {
			row[j] = row[j]*2 + 0.4*rng.NormFloat64() + 50
		}
	}
	scaler, err := stat.FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := scaler.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	model, err := pca.Fit(scaled, k)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{model: model, scaler: scaler, base: x, rng: rng}
}

// anomalousScaled returns count preprocessed observations with variable v
// shifted by sigmas calibration standard deviations.
func (f *fixture) anomalousScaled(t *testing.T, count, v int, sigmas float64) *mat.Matrix {
	t.Helper()
	stds := f.scaler.Stds()
	out := mat.MustNew(count, f.base.Cols())
	for i := 0; i < count; i++ {
		row := f.base.Row(f.rng.Intn(f.base.Rows()))
		row[v] += sigmas * stds[v]
		scaled, err := f.scaler.ApplyRow(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.SetRow(i, scaled); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func allOnes(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	return d
}

func TestComputeIdentifiesShiftedVariable(t *testing.T) {
	f := newFixture(t, 51, 400, 8, 3)
	const shifted = 5
	x := f.anomalousScaled(t, 20, shifted, 8)
	vals, err := Compute(f.model, x, allOnes(20))
	if err != nil {
		t.Fatal(err)
	}
	ranked := Rank(vals)
	if ranked[0] != shifted {
		t.Errorf("top oMEDA variable = %d, want %d (values %v)", ranked[0], shifted, vals)
	}
	// Positive shift must give a positive bar.
	if vals[shifted] <= 0 {
		t.Errorf("bar for positively shifted variable = %g, want > 0", vals[shifted])
	}
}

func TestComputeNegativeShiftGivesNegativeBar(t *testing.T) {
	f := newFixture(t, 52, 400, 8, 3)
	const shifted = 2
	x := f.anomalousScaled(t, 20, shifted, -8)
	vals, err := Compute(f.model, x, allOnes(20))
	if err != nil {
		t.Fatal(err)
	}
	if Rank(vals)[0] != shifted {
		t.Errorf("top variable = %d, want %d", Rank(vals)[0], shifted)
	}
	if vals[shifted] >= 0 {
		t.Errorf("bar for negatively shifted variable = %g, want < 0", vals[shifted])
	}
}

func TestComputeGroupMatchesCompute(t *testing.T) {
	f := newFixture(t, 53, 300, 6, 2)
	x := f.anomalousScaled(t, 10, 3, 6)
	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = x.Row(i)
	}
	v1, err := ComputeGroup(f.model, rows)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Compute(f.model, x, allOnes(10))
	if err != nil {
		t.Fatal(err)
	}
	for j := range v1 {
		if math.Abs(v1[j]-v2[j]) > 1e-12 {
			t.Errorf("var %d: %g vs %g", j, v1[j], v2[j])
		}
	}
}

func TestDummyNormalizationScaleInvariant(t *testing.T) {
	f := newFixture(t, 54, 300, 6, 2)
	x := f.anomalousScaled(t, 10, 1, 6)
	d1 := allOnes(10)
	d2 := make([]float64, 10)
	for i := range d2 {
		d2[i] = 7.5 // any positive constant
	}
	v1, err := Compute(f.model, x, d1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Compute(f.model, x, d2)
	if err != nil {
		t.Fatal(err)
	}
	for j := range v1 {
		if math.Abs(v1[j]-v2[j]) > 1e-10 {
			t.Errorf("var %d: %g vs %g (dummy scaling changed result)", j, v1[j], v2[j])
		}
	}
}

func TestContrastGroupsCancel(t *testing.T) {
	// Same observations in the +1 and −1 groups: bars must cancel to zero.
	f := newFixture(t, 55, 300, 6, 2)
	x := f.anomalousScaled(t, 10, 1, 6)
	both := mat.MustNew(20, 6)
	for i := 0; i < 10; i++ {
		if err := both.SetRow(i, x.RowView(i)); err != nil {
			t.Fatal(err)
		}
		if err := both.SetRow(10+i, x.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := make([]float64, 20)
	for i := 0; i < 10; i++ {
		d[i] = 1
		d[10+i] = -1
	}
	vals, err := Compute(f.model, both, d)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range vals {
		if math.Abs(v) > 1e-9 {
			t.Errorf("var %d: %g, want 0 (identical contrast groups)", j, v)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	f := newFixture(t, 56, 100, 5, 2)
	x := mat.MustNew(4, 5)
	if _, err := Compute(nil, x, allOnes(4)); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil model: want ErrBadInput, got %v", err)
	}
	if _, err := Compute(f.model, mat.MustNew(4, 3), allOnes(4)); !errors.Is(err, ErrBadInput) {
		t.Errorf("wrong cols: want ErrBadInput, got %v", err)
	}
	if _, err := Compute(f.model, x, allOnes(3)); !errors.Is(err, ErrBadInput) {
		t.Errorf("wrong dummy len: want ErrBadInput, got %v", err)
	}
	if _, err := Compute(f.model, x, make([]float64, 4)); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("zero dummy: want ErrEmptyGroup, got %v", err)
	}
	if _, err := ComputeGroup(f.model, nil); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("no rows: want ErrEmptyGroup, got %v", err)
	}
}

func TestHomogeneityProperty(t *testing.T) {
	// Scaling all observations by c > 0 scales every oMEDA bar by c²: the
	// index is quadratic in the data.
	f := newFixture(t, 57, 200, 5, 2)
	x := f.anomalousScaled(t, 12, 2, 5)
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(58))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 0.5 + 2*rng.Float64()
		scaled := x.Clone()
		scaled.Scale(c)
		v1, err := Compute(f.model, x, allOnes(12))
		if err != nil {
			return false
		}
		v2, err := Compute(f.model, scaled, allOnes(12))
		if err != nil {
			return false
		}
		for j := range v1 {
			if math.Abs(v2[j]-c*c*v1[j]) > 1e-8*math.Max(1, math.Abs(v2[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestAntisymmetryUnderGroupNegation(t *testing.T) {
	// Moving the group from the +1 side of the dummy to the −1 side flips
	// the sign of every bar and nothing else.
	f := newFixture(t, 60, 200, 5, 2)
	x := f.anomalousScaled(t, 12, 2, 5)
	dPos := allOnes(12)
	dNeg := make([]float64, 12)
	for i := range dNeg {
		dNeg[i] = -1
	}
	vPos, err := Compute(f.model, x, dPos)
	if err != nil {
		t.Fatal(err)
	}
	vNeg, err := Compute(f.model, x, dNeg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range vPos {
		if math.Abs(vPos[j]+vNeg[j]) > 1e-9*math.Max(1, math.Abs(vPos[j])) {
			t.Errorf("var %d: +group %g, −group %g; want opposite", j, vPos[j], vNeg[j])
		}
	}
}

func TestRankOrdersByMagnitude(t *testing.T) {
	vals := []float64{0.5, -3, 2, -0.1}
	ranked := Rank(vals)
	want := []int{1, 2, 0, 3}
	for i := range want {
		if ranked[i] != want[i] {
			t.Errorf("Rank = %v, want %v", ranked, want)
			break
		}
	}
}

func TestTopVariables(t *testing.T) {
	vals := []float64{10, -9, 3, 0.5}
	top, err := TopVariables(vals, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0] != 0 || top[1] != 1 {
		t.Errorf("TopVariables = %v, want [0 1]", top)
	}
	if _, err := TopVariables(vals, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("frac=0: want ErrBadInput, got %v", err)
	}
	if _, err := TopVariables(nil, 0.5); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty: want ErrBadInput, got %v", err)
	}
	zero, err := TopVariables([]float64{0, 0}, 0.5)
	if err != nil || zero != nil {
		t.Errorf("all-zero: got %v, %v", zero, err)
	}
}

func TestDominanceRatio(t *testing.T) {
	// One dominant bar → high ratio; flat bars → ratio ≈ 1.
	dominant := []float64{0.1, -0.05, 8, 0.12, -0.08, 0.1, 0.07}
	flat := []float64{1, -1.1, 0.9, -1, 1.05, -0.95, 1}
	if r := DominanceRatio(dominant); r < 10 {
		t.Errorf("dominant ratio = %g, want ≥ 10", r)
	}
	if r := DominanceRatio(flat); r > 2 {
		t.Errorf("flat ratio = %g, want ≤ 2", r)
	}
	if DominanceRatio(nil) != 0 {
		t.Error("nil should give 0")
	}
	if DominanceRatio([]float64{0, 0}) != 0 {
		t.Error("all-zero should give 0")
	}
}
