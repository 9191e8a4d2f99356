package stat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func closeTo(got, want, eps float64) bool {
	return math.Abs(got-want) <= eps*math.Max(1, math.Abs(want))
}

func TestNormalCDFKnown(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{2.326347874, 0.99},
		{1.644853627, 0.95},
		{-3, 0.001349898},
	}
	for _, tc := range tests {
		if got := NormalCDF(tc.x); !closeTo(got, tc.want, 1e-7) {
			t.Errorf("NormalCDF(%g) = %.9f, want %.9f", tc.x, got, tc.want)
		}
	}
}

func TestNormalQuantileKnown(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963985},
		{0.99, 2.326347874},
		{0.95, 1.644853627},
		{0.025, -1.959963985},
		{0.001, -3.090232306},
	}
	for _, tc := range tests {
		got, err := NormalQuantile(tc.p)
		if err != nil {
			t.Fatalf("NormalQuantile(%g): %v", tc.p, err)
		}
		if math.Abs(got-tc.want) > 1e-8 {
			t.Errorf("NormalQuantile(%g) = %.9f, want %.9f", tc.p, got, tc.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if v, err := NormalQuantile(0); err != nil || !math.IsInf(v, -1) {
		t.Errorf("NormalQuantile(0) = %v, %v; want -Inf", v, err)
	}
	if v, err := NormalQuantile(1); err != nil || !math.IsInf(v, 1) {
		t.Errorf("NormalQuantile(1) = %v, %v; want +Inf", v, err)
	}
	if _, err := NormalQuantile(-0.1); !errors.Is(err, ErrDomain) {
		t.Errorf("NormalQuantile(-0.1): want ErrDomain, got %v", err)
	}
	if _, err := NormalQuantile(1.1); !errors.Is(err, ErrDomain) {
		t.Errorf("NormalQuantile(1.1): want ErrDomain, got %v", err)
	}
}

func TestNormalRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 0.001 + 0.998*rng.Float64()
		x, err := NormalQuantile(p)
		if err != nil {
			return false
		}
		return math.Abs(NormalCDF(x)-p) < 1e-10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRegIncGammaPKnown(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := RegIncGammaP(1, x)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-x)
		if !closeTo(got, want, 1e-12) {
			t.Errorf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	// P(a, 0) = 0.
	if got, err := RegIncGammaP(3, 0); err != nil || got != 0 {
		t.Errorf("P(3,0) = %g, %v", got, err)
	}
	if _, err := RegIncGammaP(-1, 1); !errors.Is(err, ErrDomain) {
		t.Errorf("want ErrDomain, got %v", err)
	}
}

func TestRegIncBetaKnownAndSymmetry(t *testing.T) {
	// I_x(1, 1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, err := RegIncBeta(x, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(got, x, 1e-12) {
			t.Errorf("I_%g(1,1) = %g", x, got)
		}
	}
	// I_x(a,b) = 1 - I_{1-x}(b,a).
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := rng.Float64()
		a := 0.5 + 9.5*rng.Float64()
		b := 0.5 + 9.5*rng.Float64()
		lhs, err1 := RegIncBeta(x, a, b)
		rhs, err2 := RegIncBeta(1-x, b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(lhs-(1-rhs)) < 1e-10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestChiSquareKnown(t *testing.T) {
	tests := []struct {
		p, df, want float64
	}{
		{0.95, 1, 3.841458821},
		{0.95, 2, 5.991464547},
		{0.99, 5, 15.08627247},
		{0.99, 1, 6.634896601},
	}
	for _, tc := range tests {
		got, err := ChiSquareQuantile(tc.p, tc.df)
		if err != nil {
			t.Fatalf("ChiSquareQuantile(%g,%g): %v", tc.p, tc.df, err)
		}
		if !closeTo(got, tc.want, 1e-7) {
			t.Errorf("ChiSquareQuantile(%g,%g) = %.9f, want %.9f", tc.p, tc.df, got, tc.want)
		}
		// Round trip.
		back, err := ChiSquareCDF(got, tc.df)
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(back, tc.p, 1e-9) {
			t.Errorf("ChiSquareCDF(quantile) = %g, want %g", back, tc.p)
		}
	}
}

func TestChiSquareCDFAtZeroAndDomain(t *testing.T) {
	if v, err := ChiSquareCDF(0, 3); err != nil || v != 0 {
		t.Errorf("ChiSquareCDF(0,3) = %g, %v", v, err)
	}
	if v, err := ChiSquareCDF(-1, 3); err != nil || v != 0 {
		t.Errorf("ChiSquareCDF(-1,3) = %g, %v", v, err)
	}
	if _, err := ChiSquareCDF(1, 0); !errors.Is(err, ErrDomain) {
		t.Errorf("want ErrDomain, got %v", err)
	}
}

func TestFQuantileKnown(t *testing.T) {
	tests := []struct {
		p, d1, d2, want float64
	}{
		{0.95, 5, 10, 3.325835074},
		{0.95, 2, 10, 4.102821015},
		{0.99, 1, 10, 10.04429},
	}
	for _, tc := range tests {
		got, err := FQuantile(tc.p, tc.d1, tc.d2)
		if err != nil {
			t.Fatalf("FQuantile(%g,%g,%g): %v", tc.p, tc.d1, tc.d2, err)
		}
		if !closeTo(got, tc.want, 1e-5) {
			t.Errorf("FQuantile(%g,%g,%g) = %.7f, want %.7f", tc.p, tc.d1, tc.d2, got, tc.want)
		}
	}
}

func TestFMatchesStudentTSquared(t *testing.T) {
	// F_p(1, ν) = t_{(1+p)/2}(ν)², against published Student-t quantiles.
	tq := map[float64][3]float64{ // ν → t_{0.95}, t_{0.975}, t_{0.995}
		3:   {2.353363435, 3.182446305, 5.840909310},
		10:  {1.812461123, 2.228138852, 3.169272673},
		27:  {1.703288446, 2.051830516, 2.770682946},
		100: {1.660234326, 1.983971519, 2.625890521},
	}
	for _, df := range []float64{3, 10, 27, 100} {
		for i, p := range []float64{0.9, 0.95, 0.99} {
			f, err := FQuantile(p, 1, df)
			if err != nil {
				t.Fatal(err)
			}
			tq := tq[df][i]
			if !closeTo(f, tq*tq, 1e-8) {
				t.Errorf("df=%g p=%g: F=%g, t²=%g", df, p, f, tq*tq)
			}
		}
	}
}

func TestFRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(4))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 0.01 + 0.98*rng.Float64()
		d1 := 1 + float64(rng.Intn(30))
		d2 := 1 + float64(rng.Intn(60))
		q, err := FQuantile(p, d1, d2)
		if err != nil {
			return false
		}
		back, err := FCDF(q, d1, d2)
		if err != nil {
			return false
		}
		return math.Abs(back-p) < 1e-8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestChiSquareRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(6))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 0.01 + 0.98*rng.Float64()
		df := 1 + float64(rng.Intn(100))
		q, err := ChiSquareQuantile(p, df)
		if err != nil {
			return false
		}
		back, err := ChiSquareCDF(q, df)
		if err != nil {
			return false
		}
		return math.Abs(back-p) < 1e-8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFCDFDomain(t *testing.T) {
	if v, err := FCDF(-2, 3, 3); err != nil || v != 0 {
		t.Errorf("FCDF(-2) = %g, %v; want 0", v, err)
	}
	if _, err := FCDF(1, 0, 3); !errors.Is(err, ErrDomain) {
		t.Errorf("want ErrDomain, got %v", err)
	}
	if _, err := FQuantile(0.5, 1, -1); !errors.Is(err, ErrDomain) {
		t.Errorf("want ErrDomain, got %v", err)
	}
	if v, err := FQuantile(0, 3, 3); err != nil || v != 0 {
		t.Errorf("FQuantile(0) = %g, %v; want 0", v, err)
	}
}
