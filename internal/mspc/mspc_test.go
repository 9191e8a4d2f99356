package mspc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pcsmon/internal/mat"
	"pcsmon/internal/stat"
)

// correlatedNormal generates n observations of m correlated Gaussian
// variables: k latent factors + noise, in "engineering units" (shifted and
// scaled per column).
func correlatedNormal(rng *rand.Rand, n, m, k int, noise float64) *mat.Matrix {
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
			row[j] = row[j]*float64(j+1) + noise*rng.NormFloat64() + 100*float64(j)
		}
	}
	return x
}

// calibrate fits x through CalibrateCov from its batch covariance and
// column means, as core.Calibrate does.
func calibrate(x *mat.Matrix, opts ...Option) (*Monitor, error) {
	cov, err := mat.Covariance(x)
	if err != nil {
		return nil, err
	}
	return CalibrateCov(cov, mat.ColMeans(x), x.Rows(), opts...)
}

func calibrated(t *testing.T, rng *rand.Rand, n, m, k, a int) (*Monitor, *mat.Matrix) {
	t.Helper()
	x := correlatedNormal(rng, n, m, k, 0.5)
	mon, err := calibrate(x, WithComponents(a))
	if err != nil {
		t.Fatalf("CalibrateCov: %v", err)
	}
	return mon, x
}

func TestCalibrateRejectsBadInput(t *testing.T) {
	if _, err := CalibrateCov(nil, nil, 10); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil covariance: want ErrBadInput, got %v", err)
	}
	if _, err := CalibrateCov(mat.MustNew(2, 3), []float64{0, 0}, 10); !errors.Is(err, ErrBadInput) {
		t.Errorf("2×3 covariance: want ErrBadInput, got %v", err)
	}
	if _, err := CalibrateCov(mat.Identity(3), []float64{0, 0}, 10); !errors.Is(err, ErrBadInput) {
		t.Errorf("2 means for 3 variables: want ErrBadInput, got %v", err)
	}
	if _, err := CalibrateCov(mat.Identity(3), []float64{0, 0, 0}, 1, WithComponents(1)); err == nil {
		t.Error("one observation: want an error")
	}
}

func TestDLimitKnownFormula(t *testing.T) {
	// Cross-check against the formula computed directly.
	n, a := 100, 3
	f, err := stat.FQuantile(0.99, float64(a), float64(n-a))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(a) * float64(n*n-1) / (float64(n) * float64(n-a)) * f
	got, err := DLimit(n, a, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DLimit = %g, want %g", got, want)
	}
	// Monotone in alpha.
	lo, err := DLimit(n, a, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= got {
		t.Errorf("DLimit(0.95)=%g should be < DLimit(0.99)=%g", lo, got)
	}
}

func TestDLimitErrors(t *testing.T) {
	if _, err := DLimit(3, 3, 0.99); !errors.Is(err, ErrBadInput) {
		t.Errorf("n=a: want ErrBadInput, got %v", err)
	}
	if _, err := DLimit(10, 2, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("alpha=0: want ErrBadInput, got %v", err)
	}
}

func TestQLimitBoxEqualEigenvalues(t *testing.T) {
	// With all residual eigenvalues equal to λ, SPE/λ ~ χ²(r) exactly, and
	// Box's approximation becomes exact: g=λ, h=r.
	lambda := 0.7
	r := 6
	resid := make([]float64, r)
	for i := range resid {
		resid[i] = lambda
	}
	chi, err := stat.ChiSquareQuantile(0.99, float64(r))
	if err != nil {
		t.Fatal(err)
	}
	want := lambda * chi
	got, err := QLimitBox(resid, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Box limit = %g, want %g", got, want)
	}
}

func TestQLimitJMCloseToBox(t *testing.T) {
	// JM and Box should agree within a few percent on a decaying spectrum.
	resid := []float64{1.2, 0.8, 0.5, 0.3, 0.2, 0.1, 0.05}
	for _, alpha := range []float64{0.95, 0.99} {
		jm, err := QLimitJacksonMudholkar(resid, alpha)
		if err != nil {
			t.Fatal(err)
		}
		box, err := QLimitBox(resid, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if jm <= 0 || box <= 0 {
			t.Fatalf("non-positive limits: jm=%g box=%g", jm, box)
		}
		if rel := math.Abs(jm-box) / box; rel > 0.10 {
			t.Errorf("alpha=%g: JM=%g vs Box=%g differ by %.1f%%", alpha, jm, box, rel*100)
		}
	}
}

func TestQLimitEmptyResidualSpace(t *testing.T) {
	got, err := QLimitJacksonMudholkar(nil, 0.99)
	if err != nil || got != 0 {
		t.Errorf("JM with no residual space = %g, %v; want 0", got, err)
	}
	got, err = QLimitBox(nil, 0.99)
	if err != nil || got != 0 {
		t.Errorf("Box with no residual space = %g, %v; want 0", got, err)
	}
	if _, err := QLimitBox([]float64{1}, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("alpha=0: want ErrBadInput, got %v", err)
	}
}

func TestFalseAlarmRateNearAlpha(t *testing.T) {
	// Monitor calibrated on NOC data must flag roughly (1-alpha) of fresh
	// NOC observations. Tolerances are loose: this is a statistical test.
	// Calibration and fresh data must share the same latent structure, so
	// draw one dataset and split it.
	rng := rand.New(rand.NewSource(21))
	all := correlatedNormal(rng, 6000, 10, 3, 0.5)
	calib := mat.MustNew(2000, 10)
	fresh := mat.MustNew(4000, 10)
	for i := 0; i < 2000; i++ {
		copy(calib.RowView(i), all.RowView(i))
	}
	for i := 0; i < 4000; i++ {
		copy(fresh.RowView(i), all.RowView(2000+i))
	}
	mon, err := calibrate(calib, WithComponents(3))
	if err != nil {
		t.Fatal(err)
	}
	overD99, overQ99 := 0, 0
	for i := 0; i < fresh.Rows(); i++ {
		s, err := mon.Compute(fresh.RowView(i))
		if err != nil {
			t.Fatal(err)
		}
		lim := mon.Limits()
		if s.D > lim.D99 {
			overD99++
		}
		if s.Q > lim.Q99 {
			overQ99++
		}
	}
	rateD := float64(overD99) / float64(fresh.Rows())
	rateQ := float64(overQ99) / float64(fresh.Rows())
	if rateD > 0.05 {
		t.Errorf("D false alarm rate at 99%% = %.3f, want ≲0.05", rateD)
	}
	if rateQ > 0.05 {
		t.Errorf("Q false alarm rate at 99%% = %.3f, want ≲0.05", rateQ)
	}
	// And not absurdly conservative either: some alarms should occur in
	// 4000 samples at a nominal 1% rate.
	if overD99 == 0 && overQ99 == 0 {
		t.Error("no false alarms at all in 4000 NOC samples; limits look too wide")
	}
}

func TestShiftedDataExceedsLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mon, x := calibrated(t, rng, 1000, 8, 3, 3)
	// Take a calibration row and shift one variable by 10 calibration sigmas.
	row := append([]float64(nil), x.RowView(0)...)
	stds := mon.Scaler().Stds()
	row[4] += 10 * stds[4]
	s, err := mon.Compute(row)
	if err != nil {
		t.Fatal(err)
	}
	lim := mon.Limits()
	if s.D <= lim.D99 && s.Q <= lim.Q99 {
		t.Errorf("10σ shift not flagged: D=%g (lim %g), Q=%g (lim %g)", s.D, lim.D99, s.Q, lim.Q99)
	}
}

func TestCalibrationDStatisticMean(t *testing.T) {
	// For autoscaled calibration data, mean of D over calibration points is
	// exactly A·(N-1)/N.
	rng := rand.New(rand.NewSource(23))
	mon, x := calibrated(t, rng, 500, 8, 3, 3)
	var meanD float64
	for i := 0; i < x.Rows(); i++ {
		s, err := mon.Compute(x.RowView(i))
		if err != nil {
			t.Fatal(err)
		}
		meanD += s.D
	}
	meanD /= float64(x.Rows())
	want := 3.0 * 499.0 / 500.0
	if math.Abs(meanD-want) > 0.05*want {
		t.Errorf("mean calibration D = %g, want ≈ %g", meanD, want)
	}
}

func TestComputeDimensionError(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	mon, _ := calibrated(t, rng, 100, 5, 2, 2)
	if _, err := mon.Compute([]float64{1, 2}); err == nil {
		t.Error("want error for wrong dimension")
	}
}

// TestCalibrateCovMatchesCalibrate: the moments of a streaming accumulator
// and of the batch covariance give the same monitor up to rounding.
func TestCalibrateCovMatchesCalibrate(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	x := correlatedNormal(rng, 800, 7, 3, 0.4)
	m1, err := calibrate(x, WithComponents(3))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := mat.NewCovAccumulator(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		if err := acc.Add(x.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	cov, err := acc.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := CalibrateCov(cov, acc.Means(), acc.N(), WithComponents(3))
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := m1.Limits(), m2.Limits()
	if math.Abs(l1.D99-l2.D99) > 1e-9*l1.D99 {
		t.Errorf("D99: %g vs %g", l1.D99, l2.D99)
	}
	if math.Abs(l1.Q99-l2.Q99) > 1e-6*math.Max(1, l1.Q99) {
		t.Errorf("Q99: %g vs %g", l1.Q99, l2.Q99)
	}
	// Same statistics on a probe row.
	probe := append([]float64(nil), x.RowView(13)...)
	s1, err := m1.Compute(probe)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Compute(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.D-s2.D) > 1e-8*math.Max(1, s1.D) || math.Abs(s1.Q-s2.Q) > 1e-8*math.Max(1, s1.Q) {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
}

func TestSPEMethodString(t *testing.T) {
	if SPEJacksonMudholkar.String() != "jackson-mudholkar" ||
		SPEBox.String() != "box" {
		t.Error("SPEMethod.String mismatch")
	}
	if SPEMethod(99).String() == "" {
		t.Error("unknown method should still render")
	}
}

func TestChartString(t *testing.T) {
	if ChartD.String() != "D" || ChartQ.String() != "Q" {
		t.Error("Chart.String mismatch")
	}
	if Chart(9).String() == "" {
		t.Error("unknown chart should still render")
	}
}
