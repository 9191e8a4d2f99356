// Package stat implements the scalar statistics and probability
// distributions required by PCA-based multivariate statistical process
// control: Normal, chi-squared, Student-t and F distributions (CDFs and
// quantiles), the regularized incomplete beta and gamma functions they rest
// on, descriptive statistics, and the autoscaling preprocessor that freezes
// calibration means/standard deviations (from the calibration covariance)
// for phase-II monitoring.
//
// Everything is implemented from the standard library alone. Accuracy is on
// the order of 1e-10 for the special functions, far beyond what control
// limits need.
package stat

import (
	"errors"
	"fmt"
	"math"
)

// Package-level sentinel errors.
var (
	// ErrDomain is returned when an argument lies outside a function's domain.
	ErrDomain = errors.New("stat: argument out of domain")
	// ErrNotConverged is returned when an iterative routine fails to converge.
	ErrNotConverged = errors.New("stat: iteration did not converge")
	// ErrEmpty is returned when a computation needs a non-empty sample.
	ErrEmpty = errors.New("stat: empty sample")
)

const (
	epsRel   = 1e-14
	maxIters = 300
)

// NormalCDF returns Φ(x), the standard normal CDF, via math.Erfc for
// accuracy in both tails.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) using Acklam's rational approximation
// refined by one Halley step. It returns ±Inf at p = 0, 1 and an error
// outside [0,1].
func NormalQuantile(p float64) (float64, error) {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN(), fmt.Errorf("stat: NormalQuantile(%g): %w", p, ErrDomain)
	case p == 0:
		return math.Inf(-1), nil
	case p == 1:
		return math.Inf(1), nil
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x, nil
}

// RegIncGammaP returns the regularized lower incomplete gamma function
// P(a,x) = γ(a,x)/Γ(a), computed by series expansion for x < a+1 and by
// continued fraction otherwise (Numerical Recipes gammp/gammq scheme).
func RegIncGammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN(), fmt.Errorf("stat: RegIncGammaP(%g,%g): %w", a, x, ErrDomain)
	}
	if x == 0 {
		return 0, nil
	}
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < maxIters; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*epsRel {
				lg, _ := math.Lgamma(a)
				return sum * math.Exp(-x+a*math.Log(x)-lg), nil
			}
		}
		return math.NaN(), fmt.Errorf("stat: RegIncGammaP series: %w", ErrNotConverged)
	}
	// Continued fraction for Q(a,x) = 1 - P(a,x), modified Lentz.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIters; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsRel {
			lg, _ := math.Lgamma(a)
			q := math.Exp(-x+a*math.Log(x)-lg) * h
			return 1 - q, nil
		}
	}
	return math.NaN(), fmt.Errorf("stat: RegIncGammaP continued fraction: %w", ErrNotConverged)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a,b),
// using the continued-fraction expansion with the symmetry transform for
// numerical stability.
func RegIncBeta(x, a, b float64) (float64, error) {
	if a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x) {
		return math.NaN(), fmt.Errorf("stat: RegIncBeta(%g,%g,%g): %w", x, a, b, ErrDomain)
	}
	if x == 0 {
		return 0, nil
	}
	if x == 1 {
		return 1, nil
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		cf, err := betaCF(x, a, b)
		if err != nil {
			return math.NaN(), err
		}
		return front * cf / a, nil
	}
	cf, err := betaCF(1-x, b, a)
	if err != nil {
		return math.NaN(), err
	}
	return 1 - front*cf/b, nil
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(x, a, b float64) (float64, error) {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIters; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsRel {
			return h, nil
		}
	}
	return math.NaN(), fmt.Errorf("stat: betaCF: %w", ErrNotConverged)
}

// ChiSquareCDF returns P(X ≤ x) for X ~ χ²(df).
func ChiSquareCDF(x, df float64) (float64, error) {
	if df <= 0 {
		return math.NaN(), fmt.Errorf("stat: ChiSquareCDF df=%g: %w", df, ErrDomain)
	}
	if x <= 0 {
		return 0, nil
	}
	return RegIncGammaP(df/2, x/2)
}

// ChiSquareQuantile returns the p-quantile of the χ²(df) distribution.
func ChiSquareQuantile(p, df float64) (float64, error) {
	if p < 0 || p > 1 || df <= 0 {
		return math.NaN(), fmt.Errorf("stat: ChiSquareQuantile(%g,%g): %w", p, df, ErrDomain)
	}
	cdf := func(x float64) (float64, error) { return ChiSquareCDF(x, df) }
	// Wilson–Hilferty starting point.
	z, err := NormalQuantile(p)
	if err != nil {
		return math.NaN(), err
	}
	h := 2 / (9 * df)
	start := df * math.Pow(1-h+z*math.Sqrt(h), 3)
	if start <= 0 {
		start = df
	}
	return invertCDF(cdf, p, start)
}

// FCDF returns P(X ≤ x) for X ~ F(d1, d2).
func FCDF(x, d1, d2 float64) (float64, error) {
	if d1 <= 0 || d2 <= 0 {
		return math.NaN(), fmt.Errorf("stat: FCDF(%g,%g): %w", d1, d2, ErrDomain)
	}
	if x <= 0 {
		return 0, nil
	}
	return RegIncBeta(d1*x/(d1*x+d2), d1/2, d2/2)
}

// FQuantile returns the p-quantile of the F(d1, d2) distribution.
func FQuantile(p, d1, d2 float64) (float64, error) {
	if p == 0 && d1 > 0 && d2 > 0 {
		return 0, nil
	}
	if p < 0 || p >= 1 || d1 <= 0 || d2 <= 0 {
		return math.NaN(), fmt.Errorf("stat: FQuantile(%g,%g,%g): %w", p, d1, d2, ErrDomain)
	}
	cdf := func(x float64) (float64, error) { return FCDF(x, d1, d2) }
	start := 1.0
	if d2 > 2 {
		start = d2 / (d2 - 2) // the mean, when defined
	}
	return invertCDF(cdf, p, start)
}

// invertCDF finds x with cdf(x) = p for a continuous, increasing CDF on
// (0, ∞) by exponential bracketing followed by bisection.
func invertCDF(cdf func(float64) (float64, error), p, start float64) (float64, error) {
	if start <= 0 || math.IsNaN(start) || math.IsInf(start, 0) {
		start = 1
	}
	lo, hi := 0.0, start
	for i := 0; ; i++ {
		v, err := cdf(hi)
		if err != nil {
			return math.NaN(), err
		}
		if v >= p {
			break
		}
		lo = hi
		hi *= 2
		if i > 200 {
			return math.NaN(), fmt.Errorf("stat: invertCDF bracketing: %w", ErrNotConverged)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		v, err := cdf(mid)
		if err != nil {
			return math.NaN(), err
		}
		if v < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*math.Max(1, hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}
