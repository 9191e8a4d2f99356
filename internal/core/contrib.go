package core

import (
	"fmt"
	"math"
)

// Contributions holds classical MSPC contribution analyses of an
// observation group: how much each original variable contributes to the
// group's D (T²) and Q (SPE) statistics. They are the textbook alternative
// to oMEDA (MacGregor & Kourti 1995) and are provided for comparison;
// diagnostic conclusions in this package are drawn from oMEDA, as in the
// paper.
type Contributions struct {
	// D is the mean per-variable contribution to Hotelling's T²:
	// c_j = x_j · Σ_a (t_a/λ_a)·p_{ja}. Contributions sum to the group's
	// mean T² (they may be individually negative).
	D []float64
	// Q is the signed mean per-variable contribution to the SPE:
	// sign(ē_j)·mean(e_j²). The absolute values sum to the mean SPE.
	Q []float64
}

// ContribScratch holds the reusable working buffers of ContributeInto, so
// repeated diagnosis calls (one per view per finished stream) never clone
// the loading matrix or allocate per-row vectors. The zero value is ready to
// use; buffers grow on demand and are not safe for concurrent use.
type ContribScratch struct {
	scaled []float64 // preprocessed observation
	scores []float64 // PCA scores t
	tl     []float64 // t_a/λ_a (zero where λ_a ≈ 0)
	work   []float64 // P·(t/λ) weight vector, then reconstruction x̂
	dSum   []float64
	qSum   []float64
	eSign  []float64
}

func (cs *ContribScratch) ensure(nvars, ncomp int) {
	if cap(cs.scaled) < nvars {
		cs.scaled = make([]float64, nvars)
		cs.work = make([]float64, nvars)
		cs.dSum = make([]float64, nvars)
		cs.qSum = make([]float64, nvars)
		cs.eSign = make([]float64, nvars)
	}
	cs.scaled = cs.scaled[:nvars]
	cs.work = cs.work[:nvars]
	cs.dSum = cs.dSum[:nvars]
	cs.qSum = cs.qSum[:nvars]
	cs.eSign = cs.eSign[:nvars]
	if cap(cs.scores) < ncomp {
		cs.scores = make([]float64, ncomp)
		cs.tl = make([]float64, ncomp)
	}
	cs.scores = cs.scores[:ncomp]
	cs.tl = cs.tl[:ncomp]
	for j := range cs.dSum {
		cs.dSum[j] = 0
		cs.qSum[j] = 0
		cs.eSign[j] = 0
	}
}

// ContributeInto is Contribute with caller-provided scratch: the same
// profiles, bit for bit, without cloning the loading matrix or allocating
// per-row vectors. A nil scratch is allowed (one is created locally). Only
// the returned Contributions is newly allocated.
func (s *System) ContributeInto(rows [][]float64, cs *ContribScratch) (*Contributions, error) {
	if s == nil || s.monitor == nil {
		return nil, ErrNotCalibrated
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no observations: %w", ErrBadInput)
	}
	if cs == nil {
		cs = &ContribScratch{}
	}
	model := s.monitor.Model()
	scaler := s.monitor.Scaler()
	m := model.NVars()
	eig := model.Eigenvalues()
	cs.ensure(m, model.NComponents())

	for i, r := range rows {
		x, err := scaler.ApplyRow(r, cs.scaled)
		if err != nil {
			return nil, fmt.Errorf("core: scaling row %d: %w", i, err)
		}
		if err := model.ProjectInto(x, cs.scores); err != nil {
			return nil, fmt.Errorf("core: projecting row %d: %w", i, err)
		}
		// w = P·(t/λ); D contribution c_j = x_j·w_j. Deflating the scores by
		// their eigenvalues first keeps the per-component association order
		// of the naive loop, so the profile is bit-identical to Contribute.
		for a, tv := range cs.scores {
			if eig[a] > 1e-12 {
				cs.tl[a] = tv / eig[a]
			} else {
				cs.tl[a] = 0
			}
		}
		if err := model.ReconstructInto(cs.tl, cs.work); err != nil {
			return nil, fmt.Errorf("core: weighting row %d: %w", i, err)
		}
		for j := 0; j < m; j++ {
			cs.dSum[j] += x[j] * cs.work[j]
		}
		// Residual e = x − P·t from the scores already in hand.
		if err := model.ReconstructInto(cs.scores, cs.work); err != nil {
			return nil, fmt.Errorf("core: residual row %d: %w", i, err)
		}
		for j := 0; j < m; j++ {
			e := x[j] - cs.work[j]
			cs.qSum[j] += e * e
			cs.eSign[j] += e
		}
	}
	n := float64(len(rows))
	out := &Contributions{D: make([]float64, m), Q: make([]float64, m)}
	for j := 0; j < m; j++ {
		out.D[j] = cs.dSum[j] / n
		q := cs.qSum[j] / n
		if cs.eSign[j] < 0 {
			q = -q
		}
		out.Q[j] = q
	}
	return out, nil
}

// Contribute computes contribution profiles for a group of observations in
// engineering units.
//
//pcslint:ignore dead-export -- oracle: TestContributeIntoMatchesContributeExact checks ContributeInto against it
func (s *System) Contribute(rows [][]float64) (*Contributions, error) {
	if s == nil || s.monitor == nil {
		return nil, ErrNotCalibrated
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no observations: %w", ErrBadInput)
	}
	model := s.monitor.Model()
	scaler := s.monitor.Scaler()
	m := model.NVars()
	loadings := model.Loadings()
	eig := model.Eigenvalues()

	dSum := make([]float64, m)
	qSum := make([]float64, m)
	eSign := make([]float64, m)
	for i, r := range rows {
		x, err := scaler.ApplyRow(r, nil)
		if err != nil {
			return nil, fmt.Errorf("core: scaling row %d: %w", i, err)
		}
		t, err := model.Project(x)
		if err != nil {
			return nil, fmt.Errorf("core: projecting row %d: %w", i, err)
		}
		// w_j = Σ_a (t_a/λ_a) p_{ja}; D contribution c_j = x_j·w_j.
		for j := 0; j < m; j++ {
			var w float64
			for a := range t {
				if eig[a] > 1e-12 {
					w += t[a] / eig[a] * loadings.At(j, a)
				}
			}
			dSum[j] += x[j] * w
		}
		res, err := model.Residual(x)
		if err != nil {
			return nil, fmt.Errorf("core: residual row %d: %w", i, err)
		}
		for j, e := range res {
			qSum[j] += e * e
			eSign[j] += e
		}
	}
	n := float64(len(rows))
	out := &Contributions{D: make([]float64, m), Q: make([]float64, m)}
	for j := 0; j < m; j++ {
		out.D[j] = dSum[j] / n
		q := qSum[j] / n
		if eSign[j] < 0 {
			q = -q
		}
		out.Q[j] = q
	}
	return out, nil
}

// TopD returns the indices of the largest positive D contributions, in
// decreasing order, up to n entries.
//
//pcslint:ignore dead-export -- ROADMAP item 4 puts the top-k variables into the unit report
func (c *Contributions) TopD(n int) []int { return topPositive(c.D, n) }

// TopQ returns the indices of the largest |Q| contributions, in decreasing
// order, up to n entries.
//
//pcslint:ignore dead-export -- ROADMAP item 4 puts the top-k variables into the unit report
func (c *Contributions) TopQ(n int) []int {
	idx := make([]int, len(c.Q))
	for i := range idx {
		idx[i] = i
	}
	// Selection sort on |Q| — n is small.
	if n > len(idx) {
		n = len(idx)
	}
	for i := 0; i < n; i++ {
		best := i
		for k := i + 1; k < len(idx); k++ {
			if math.Abs(c.Q[idx[k]]) > math.Abs(c.Q[idx[best]]) {
				best = k
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:n]
}

func topPositive(vals []float64, n int) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	if n > len(idx) {
		n = len(idx)
	}
	for i := 0; i < n; i++ {
		best := i
		for k := i + 1; k < len(idx); k++ {
			if vals[idx[k]] > vals[idx[best]] {
				best = k
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:n]
}
