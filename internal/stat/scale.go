package stat

import "fmt"

// Scaler freezes per-variable centering and scaling parameters learned from
// calibration data (the means and the square roots of the covariance
// diagonal) and applies them to new observations. This is the
// "mean-centered and auto-scaled" preprocessing of PCA-based MSPC: phase-II
// observations must be scaled with the *calibration* statistics, never their
// own.
//
// Variables with (numerically) zero calibration variance are centered but
// left unscaled, so constant channels cannot blow up the scaled data.
type Scaler struct {
	means []float64
	stds  []float64 // scale divisors; 1 where calibration variance ≈ 0
}

// minStd is the threshold under which a calibration standard deviation is
// considered zero and replaced by a unit divisor.
const minStd = 1e-12

// NewScaler builds a Scaler from calibration means and standard
// deviations. Standard deviations below minStd are replaced by 1.
func NewScaler(means, stds []float64) (*Scaler, error) {
	if len(means) != len(stds) {
		return nil, fmt.Errorf("stat: NewScaler means len %d != stds len %d: %w",
			len(means), len(stds), ErrDomain)
	}
	if len(means) == 0 {
		return nil, fmt.Errorf("stat: NewScaler: %w", ErrEmpty)
	}
	m := make([]float64, len(means))
	s := make([]float64, len(stds))
	copy(m, means)
	for j, v := range stds {
		if v < minStd {
			v = 1
		}
		s[j] = v
	}
	return &Scaler{means: m, stds: s}, nil
}

// Dim returns the number of variables the scaler was fitted on.
func (sc *Scaler) Dim() int { return len(sc.means) }

// Means returns a copy of the frozen means.
func (sc *Scaler) Means() []float64 {
	out := make([]float64, len(sc.means))
	copy(out, sc.means)
	return out
}

// Stds returns a copy of the frozen scale divisors.
func (sc *Scaler) Stds() []float64 {
	out := make([]float64, len(sc.stds))
	copy(out, sc.stds)
	return out
}

// ApplyRow scales a single observation into dst (allocated when nil) and
// returns it.
func (sc *Scaler) ApplyRow(row, dst []float64) ([]float64, error) {
	if len(row) != len(sc.means) {
		return nil, fmt.Errorf("stat: Scaler.ApplyRow len %d != dim %d: %w",
			len(row), len(sc.means), ErrDomain)
	}
	if dst == nil {
		dst = make([]float64, len(row))
	}
	if len(dst) != len(row) {
		return nil, fmt.Errorf("stat: Scaler.ApplyRow dst len %d != dim %d: %w",
			len(dst), len(sc.means), ErrDomain)
	}
	for j, v := range row {
		dst[j] = (v - sc.means[j]) / sc.stds[j]
	}
	return dst, nil
}
