package stat

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the p-quantile of xs using linear interpolation between
// order statistics (the common "type 7" definition used by R, NumPy and
// MATLAB's linear method). The input is not modified.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), fmt.Errorf("stat: Quantile: %w", ErrEmpty)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN(), fmt.Errorf("stat: Quantile p=%g: %w", p, ErrDomain)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1], nil
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }
