package stat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pcsmon/internal/mat"
)

// scalerFor freezes the column means and sample standard deviations of x,
// the standard deviations as the square roots of the covariance diagonal —
// the way mspc.CalibrateCov builds its scaler.
func scalerFor(x *mat.Matrix) (*Scaler, error) {
	acc, err := mat.NewMoments(x.Cols(), 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < x.Rows(); i++ {
		if err := acc.Add(x.RowView(i)); err != nil {
			return nil, err
		}
	}
	cov, err := acc.Covariance()
	if err != nil {
		return nil, err
	}
	stds := make([]float64, x.Cols())
	for j := range stds {
		stds[j] = math.Sqrt(max(cov.At(j, j), 0))
	}
	return NewScaler(acc.Means(), stds)
}

// applyAll scales every row of x.
func applyAll(t *testing.T, sc *Scaler, x *mat.Matrix) *mat.Matrix {
	t.Helper()
	out := mat.MustNew(x.Rows(), x.Cols())
	for i := 0; i < x.Rows(); i++ {
		if _, err := sc.ApplyRow(x.RowView(i), out.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestScalerAutoscalesCalibration(t *testing.T) {
	x, err := mat.FromRows([][]float64{
		{1, 100},
		{3, 300},
		{5, 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scalerFor(x)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", sc.Dim())
	}
	scaled := applyAll(t, sc, x)
	// After autoscaling, each column must have zero mean and unit sample std.
	for j := 0; j < 2; j++ {
		m, sd := colMeanStd(scaled, j)
		if math.Abs(m) > 1e-12 {
			t.Errorf("col %d mean = %g, want 0", j, m)
		}
		if math.Abs(sd-1) > 1e-12 {
			t.Errorf("col %d std = %g, want 1", j, sd)
		}
	}
}

// colMeanStd returns the mean and sample standard deviation (divisor N-1)
// of column j.
func colMeanStd(x *mat.Matrix, j int) (mean, sd float64) {
	n := float64(x.Rows())
	for i := 0; i < x.Rows(); i++ {
		mean += x.At(i, j)
	}
	mean /= n
	var ss float64
	for i := 0; i < x.Rows(); i++ {
		d := x.At(i, j) - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// invert maps a scaled observation back to engineering units.
func invert(sc *Scaler, row []float64) []float64 {
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = v*sc.stds[j] + sc.means[j]
	}
	return out
}

func TestScalerConstantColumn(t *testing.T) {
	x, err := mat.FromRows([][]float64{
		{1, 7},
		{2, 7},
		{3, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scalerFor(x)
	if err != nil {
		t.Fatal(err)
	}
	scaled := applyAll(t, sc, x)
	// Constant column: centered to zero, not scaled (divisor 1), no NaN/Inf.
	for i := 0; i < 3; i++ {
		v := scaled.At(i, 1)
		if v != 0 {
			t.Errorf("constant column row %d = %g, want 0", i, v)
		}
	}
}

func TestScalerApplyRowAndInvertRoundTrip(t *testing.T) {
	x, err := mat.FromRows([][]float64{
		{1, 10, -5},
		{2, 20, -3},
		{3, 35, -1},
		{4, 41, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scalerFor(x)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{2.5, 28, 0}
	scaled, err := sc.ApplyRow(row, nil)
	if err != nil {
		t.Fatal(err)
	}
	back := invert(sc, scaled)
	for j := range row {
		if math.Abs(back[j]-row[j]) > 1e-10 {
			t.Errorf("round trip col %d: %g -> %g", j, row[j], back[j])
		}
	}
}

func TestScalerApplyRowReusesDst(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{0, 0}, {2, 4}})
	sc, err := scalerFor(x)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 2)
	out, err := sc.ApplyRow([]float64{1, 2}, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Error("ApplyRow did not reuse dst")
	}
}

func TestScalerDimensionErrors(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	sc, err := scalerFor(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ApplyRow([]float64{1}, nil); !errors.Is(err, ErrDomain) {
		t.Errorf("ApplyRow wrong len: want ErrDomain, got %v", err)
	}
	if _, err := sc.ApplyRow([]float64{1, 2}, make([]float64, 3)); !errors.Is(err, ErrDomain) {
		t.Errorf("ApplyRow wrong dst len: want ErrDomain, got %v", err)
	}
}

func TestNewScalerValidation(t *testing.T) {
	if _, err := NewScaler([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDomain) {
		t.Errorf("mismatched lens: want ErrDomain, got %v", err)
	}
	if _, err := NewScaler(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: want ErrEmpty, got %v", err)
	}
	sc, err := NewScaler([]float64{5}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	// Zero std must be replaced with 1.
	out, err := sc.ApplyRow([]float64{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("ApplyRow with zero-std divisor = %g, want 2", out[0])
	}
}

func TestNewScalerCopiesInputs(t *testing.T) {
	means := []float64{1, 2}
	stds := []float64{3, 4}
	sc, err := NewScaler(means, stds)
	if err != nil {
		t.Fatal(err)
	}
	means[0] = 99
	stds[0] = 99
	if sc.Means()[0] != 1 || sc.Stds()[0] != 3 {
		t.Error("NewScaler aliased caller slices")
	}
}

func TestScalerRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(14))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		m := 1 + rng.Intn(8)
		x := mat.MustNew(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				x.Set(i, j, rng.NormFloat64()*float64(j+1)+float64(j)*10)
			}
		}
		sc, err := scalerFor(x)
		if err != nil {
			return false
		}
		row := x.RowView(rng.Intn(n))
		scaled, err := sc.ApplyRow(row, nil)
		if err != nil {
			return false
		}
		back := invert(sc, scaled)
		for j := range row {
			if math.Abs(back[j]-row[j]) > 1e-9*math.Max(1, math.Abs(row[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
