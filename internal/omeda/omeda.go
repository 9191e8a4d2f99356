// Package omeda implements oMEDA (observation-based Missing-data methods
// for Exploratory Data Analysis, Camacho 2011), the anomaly-diagnosis tool
// the paper uses: a bar plot over the original variables whose largest
// (absolute) bars identify the variables implicated in a group of anomalous
// observations.
//
// The implementation follows the MEDA Toolbox formulation: with X the
// preprocessed observations, X_A = X·P·Pᵀ their projection onto the model
// subspace and d the (normalized) dummy vector selecting the group, the
// per-variable index is built from the dummy-weighted column sums
//
//	s = Xᵀ·d        (raw deviation of the group)
//	ŝ = X_Aᵀ·d      (model-explained deviation of the group)
//	d²_A = (2·s − ŝ) ∘ |ŝ| / √(dᵀd)
//
// where ∘ is the element-wise product. The sign of a bar follows the
// direction of the group's deviation: variables whose values are *below*
// normal get negative bars (the paper's IDV(6) plots show a large negative
// XMEAS(1) bar as feed A collapses), variables above normal get positive
// bars.
package omeda

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pcsmon/internal/mat"
	"pcsmon/internal/pca"
	"pcsmon/internal/stat"
)

// Package-level sentinel errors.
var (
	// ErrBadInput is returned for malformed inputs.
	ErrBadInput = errors.New("omeda: invalid input")
	// ErrEmptyGroup is returned when the dummy vector selects no
	// observations.
	ErrEmptyGroup = errors.New("omeda: dummy selects no observations")
)

// Compute returns the oMEDA vector (one signed value per original variable)
// for the observation group coded by dummy over the preprocessed data x.
//
// The dummy vector may contain positive entries (the group of interest),
// negative entries (an optional contrast group) and zeros. It is normalized
// as in the MEDA Toolbox: positive entries are divided by the maximum
// positive entry, negative entries by the absolute value of the most
// negative entry.
func Compute(model *pca.Model, x *mat.Matrix, dummy []float64) ([]float64, error) {
	if model == nil || x == nil || x.IsEmpty() {
		return nil, fmt.Errorf("omeda: nil model or empty data: %w", ErrBadInput)
	}
	if x.Cols() != model.NVars() {
		return nil, fmt.Errorf("omeda: data cols %d != model vars %d: %w", x.Cols(), model.NVars(), ErrBadInput)
	}
	if len(dummy) != x.Rows() {
		return nil, fmt.Errorf("omeda: dummy len %d != rows %d: %w", len(dummy), x.Rows(), ErrBadInput)
	}
	d, err := normalizeDummy(dummy)
	if err != nil {
		return nil, err
	}
	m := model.NVars()
	s := make([]float64, m)    // dummy-weighted raw column sums
	sHat := make([]float64, m) // dummy-weighted reconstructed column sums
	var dd float64
	for i := 0; i < x.Rows(); i++ {
		if d[i] == 0 {
			continue
		}
		dd += d[i] * d[i]
		row := x.RowView(i)
		rec, err := model.Reconstruct(row)
		if err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			s[j] += d[i] * row[j]
			sHat[j] += d[i] * rec[j]
		}
	}
	out := make([]float64, m)
	norm := math.Sqrt(dd)
	for j := 0; j < m; j++ {
		out[j] = (2*s[j] - sHat[j]) * math.Abs(sHat[j]) / norm
	}
	return out, nil
}

// ComputeGroup is a convenience wrapper: it computes oMEDA with a dummy of
// all ones over the given preprocessed observations — the paper's usage,
// where the group is "the first observations that surpass control limits".
func ComputeGroup(model *pca.Model, rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("omeda: no observations: %w", ErrEmptyGroup)
	}
	x, err := mat.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("omeda: %w", err)
	}
	dummy := make([]float64, len(rows))
	for i := range dummy {
		dummy[i] = 1
	}
	return Compute(model, x, dummy)
}

func normalizeDummy(dummy []float64) ([]float64, error) {
	var maxPos, maxNeg float64
	for _, v := range dummy {
		if v > maxPos {
			maxPos = v
		}
		if -v > maxNeg {
			maxNeg = -v
		}
	}
	if maxPos == 0 && maxNeg == 0 {
		return nil, ErrEmptyGroup
	}
	out := make([]float64, len(dummy))
	for i, v := range dummy {
		switch {
		case v > 0:
			out[i] = v / maxPos
		case v < 0:
			out[i] = v / maxNeg
		}
	}
	return out, nil
}

// Rank returns variable indices sorted by decreasing |value|.
func Rank(values []float64) []int {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(values[idx[a]]) > math.Abs(values[idx[b]])
	})
	return idx
}

// TopVariables returns the indices of variables whose |value| is at least
// frac times the maximum |value|, ordered by decreasing |value|. frac must
// lie in (0, 1].
func TopVariables(values []float64, frac float64) ([]int, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("omeda: frac=%g not in (0,1]: %w", frac, ErrBadInput)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("omeda: empty values: %w", ErrBadInput)
	}
	var maxAbs float64
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return nil, nil
	}
	ranked := Rank(values)
	out := make([]int, 0, 4)
	for _, j := range ranked {
		if math.Abs(values[j]) >= frac*maxAbs {
			out = append(out, j)
		} else {
			break
		}
	}
	return out, nil
}

// DominanceRatio measures how strongly the largest bar dominates the rest:
// max|v| divided by the median of |v|. A clearly diagnosed anomaly (one or
// two implicated variables) has a high ratio; the paper's DoS case — where
// "neither of the oMEDA plots show a variable that stands out clearly" —
// has a low one. Returns 0 for an all-zero vector.
func DominanceRatio(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	abs := make([]float64, len(values))
	var maxAbs float64
	for i, v := range values {
		abs[i] = math.Abs(v)
		if abs[i] > maxAbs {
			maxAbs = abs[i]
		}
	}
	if maxAbs == 0 {
		return 0
	}
	med, err := stat.Median(abs)
	if err != nil {
		return 0
	}
	const eps = 1e-12
	return maxAbs / (med + eps)
}
