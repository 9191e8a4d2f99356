package adapt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pcsmon/internal/core"
	"pcsmon/internal/mat"
)

// Stats is a snapshot of a Tracker's counters — the observability surface
// of the drift guards.
type Stats struct {
	// Learned counts observations absorbed into the EWMA statistics.
	Learned uint64
	// Rejected counts observations the learn guard refused because the
	// current model scored them out of control (the never-learn-an-attack
	// guarantee, made measurable).
	Rejected uint64
	// Refits counts candidate fits attempted; Accepted counts the ones that
	// passed the swap guards and became the current model; Vetoes the ones
	// the guards rejected.
	Refits, Accepted, Vetoes uint64
	// LastVeto is the human-readable reason of the most recent veto.
	LastVeto string
	// Generation is the current model generation (0 = the calibration-time
	// model).
	Generation uint64
	// Weight is the current EWMA weight of the accumulator.
	Weight float64
}

// generation pairs a calibrated system with its generation number so both
// are published atomically.
type generation struct {
	sys *core.System
	gen uint64
}

// Tracker maintains the EWMA-weighted model statistics, refits candidate
// systems on the configured cadence and guards every update. It is safe for
// concurrent use: many scoring goroutines may Observe while others read
// System — the fleet pool shares one Tracker across all its workers.
type Tracker struct {
	cfg  Options
	base core.Config
	cols int

	// priorCov is the persistent calibration prior: the generation-0
	// covariance, blended into every candidate at weight priorW =
	// min(calibration N, 1/(1−Forget)) (recursive-PCA style): candidate
	// covariance = (priorW·calibration + liveWeight·EWMA)/(priorW +
	// liveWeight), while the candidate means track the live EWMA alone.
	// Aging moves the operating point much faster than it changes the
	// noise/correlation structure, and a short single-stream memory
	// systematically underestimates the NOC variance (in-control samples
	// are autocorrelated; the calibration campaign spans runs): the
	// persistent prior keeps that bias from quietly tightening the control
	// limits refit after refit. Nil for a system without calibration
	// moments.
	priorCov *mat.Matrix
	priorW   float64

	cur atomic.Pointer[generation]

	// Lock-free counters: rejection happens before the mutex, so a hot
	// fleet only contends on the lock for observations that are actually
	// learned.
	rejected atomic.Uint64
	learned  atomic.Uint64

	mu        sync.Mutex
	acc       *mat.EWMACovAccumulator
	sinceFit  int
	refitting bool
	stats     Stats
}

// NewTracker starts the adaptive layer from a calibrated incumbent system
// (generation 0). The candidate refits reuse the incumbent's monitoring
// configuration, so every generation is swap-compatible by construction.
func NewTracker(sys *core.System, cfg Options) (*Tracker, error) {
	if sys == nil || sys.Monitor() == nil {
		return nil, fmt.Errorf("adapt: nil system: %w", ErrBadConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cols := sys.Monitor().Scaler().Dim()
	if cfg.MinWeight == 0 {
		cfg.MinWeight = 4 * float64(cols)
	}
	// The EWMA weight w ← λw + 1 approaches 1/(1−λ) from below: a forget
	// factor whose ceiling is at or under MinWeight would veto every refit.
	if cfg.Forget < 1 && 1/(1-cfg.Forget) <= cfg.MinWeight {
		return nil, fmt.Errorf("adapt: forget factor %g caps the EWMA weight at 1/(1−λ) = %.1f, not above the minimum weight %.1f, so no refit could ever be accepted: %w",
			cfg.Forget, 1/(1-cfg.Forget), cfg.MinWeight, ErrBadConfig)
	}
	acc, err := mat.NewEWMACovAccumulator(cols, cfg.Forget)
	if err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	t := &Tracker{cfg: cfg, base: sys.Config(), cols: cols, acc: acc}
	if cov, _, n := sys.CalibrationMoments(); cov != nil && n > 1 {
		t.priorCov, t.priorW = cov.Clone(), float64(n)
		if cfg.Forget < 1 {
			t.priorW = min(t.priorW, 1/(1-cfg.Forget))
		}
	}
	t.cur.Store(&generation{sys: sys})
	return t, nil
}

// System returns the current model and its generation.
func (t *Tracker) System() (*core.System, uint64) {
	g := t.cur.Load()
	return g.sys, g.gen
}

// Generation returns the current model generation — the cheap check a
// stream performs at every window boundary before attempting a swap.
func (t *Tracker) Generation() uint64 { return t.cur.Load().gen }

// Observe offers one observation to the learn guard. inControl must report
// whether the *current* model scored the observation inside its 99 % limits
// in every view with no alarm latched — the caller has that knowledge from
// the scoring step the observation just went through. Out-of-control
// observations are counted and dropped, never learned.
//
// It returns true when a refit is due (the cadence elapsed); the caller
// should then call Refit — from the same goroutine or any other.
func (t *Tracker) Observe(row []float64, inControl bool) bool {
	if !inControl {
		t.rejected.Add(1)
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.acc.Add(row); err != nil {
		// Dimension mismatch is a programmer error upstream; count it as a
		// rejection rather than poisoning the accumulator.
		t.rejected.Add(1)
		return false
	}
	t.learned.Add(1)
	t.sinceFit++
	return t.sinceFit >= t.cfg.Every && !t.refitting
}

// Refit fits a candidate system from the accumulated statistics, runs the
// swap guards against the incumbent and — on pass — installs the candidate
// as the next generation. It returns whether a new generation was
// installed. At most one refit runs at a time; concurrent callers return
// false immediately. A Refit before the cadence has elapsed is a no-op.
func (t *Tracker) Refit() bool {
	t.mu.Lock()
	if t.refitting || t.sinceFit < t.cfg.Every {
		t.mu.Unlock()
		return false
	}
	t.refitting = true
	t.sinceFit = 0
	t.stats.Refits++
	weight := t.acc.Weight()
	var (
		cov   *mat.Matrix
		means []float64
		ess   float64
		err   error
	)
	if weight >= t.cfg.MinWeight {
		cov, err = t.acc.Covariance()
		means = t.acc.Means()
		ess = t.acc.ESS()
	}
	t.mu.Unlock()

	if weight < t.cfg.MinWeight {
		return t.finishRefit(nil, fmt.Sprintf("weight %.1f below minimum %.1f", weight, t.cfg.MinWeight))
	}
	if err != nil {
		return t.finishRefit(nil, fmt.Sprintf("covariance: %v", err))
	}
	n := int(ess)
	if t.priorCov != nil {
		// Blend the persistent calibration prior into the covariance shape;
		// the means stay pure live EWMA (aging moves the operating point,
		// not the noise structure).
		wl := 1 / (t.priorW + weight)
		for p := 0; p < t.cols; p++ {
			for q := 0; q < t.cols; q++ {
				cov.Set(p, q, (t.priorW*t.priorCov.At(p, q)+weight*cov.At(p, q))*wl)
			}
		}
		n += int(t.priorW)
	}
	cand, err := core.CalibrateCov(cov, means, n, t.base)
	if err != nil {
		return t.finishRefit(nil, fmt.Sprintf("fit: %v", err))
	}
	if reason := t.vetCandidate(cand); reason != "" {
		return t.finishRefit(nil, reason)
	}
	return t.finishRefit(cand, "")
}

// vetCandidate applies the swap sanity guards, returning a veto reason or
// "" on pass.
func (t *Tracker) vetCandidate(cand *core.System) string {
	var explained float64
	for _, v := range cand.Monitor().Model().ExplainedVariance() {
		explained += v
	}
	if explained < t.cfg.MinExplainedVar {
		return fmt.Sprintf("explained variance %.3f below floor %.3f", explained, t.cfg.MinExplainedVar)
	}
	inc, _ := t.System()
	cl, il := cand.Monitor().Limits(), inc.Monitor().Limits()
	for _, lim := range []struct {
		name     string
		cand, in float64
	}{{"D99", cl.D99, il.D99}, {"Q99", cl.Q99, il.Q99}} {
		if lim.in <= 0 || lim.cand <= 0 {
			return fmt.Sprintf("%s limit degenerate (candidate %.4g, incumbent %.4g)", lim.name, lim.cand, lim.in)
		}
		if r := lim.cand / lim.in; r > maxLimitDrift || r < 1/maxLimitDrift {
			return fmt.Sprintf("%s limit moved %.2f× (band %.1f×)", lim.name, r, maxLimitDrift)
		}
	}
	if math.IsNaN(cl.D99) || math.IsNaN(cl.Q99) {
		return "candidate limits are NaN"
	}
	return ""
}

// finishRefit records the outcome and, for an accepted candidate, publishes
// the next generation.
func (t *Tracker) finishRefit(cand *core.System, veto string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refitting = false
	if cand == nil {
		t.stats.Vetoes++
		t.stats.LastVeto = veto
		return false
	}
	next := &generation{sys: cand, gen: t.cur.Load().gen + 1}
	t.cur.Store(next)
	t.stats.Accepted++
	t.stats.Generation = next.gen
	return true
}

// Step runs the per-observation adaptive protocol for one stream the
// caller owns: the learn guard (Observe with the in-control predicate over
// the scoring result), a due Refit, and — at a core.DiagnoseWindow
// boundary — the migration to the current generation. It returns the
// stream's (possibly advanced) generation and, when a swap landed, the
// event reporting it. Every fleet worker drives its streams through this
// one implementation, so the never-learn-an-attack guard and the swap
// protocol live in one place.
func (t *Tracker) Step(oa *core.OnlineAnalyzer, res core.StepResult, ctrl, proc []float64, gen uint64) (uint64, *core.ModelSwapped) {
	// Learn from the process view (the ground-truth side the calibration
	// campaign uses); a single-view feed learns from what it has.
	row := proc
	if row == nil {
		row = ctrl
	}
	if row != nil {
		inControl := !oa.Detected() &&
			(res.Ctrl == nil || !res.Ctrl.Over()) &&
			(res.Proc == nil || !res.Proc.Over())
		if t.Observe(row, inControl) {
			t.Refit()
		}
	}
	if oa.N()%core.DiagnoseWindow != 0 {
		return gen, nil
	}
	sys, cur := t.System()
	if cur == gen {
		return gen, nil
	}
	swapped, err := oa.TrySwap(sys)
	if err != nil || !swapped {
		return gen, nil // not quiescent (or incompatible): retry at a later boundary
	}
	lim := sys.Monitor().Limits()
	return cur, &core.ModelSwapped{Index: oa.N(), Generation: cur, D99: lim.D99, Q99: lim.Q99}
}

// Stats snapshots the tracker's counters.
func (t *Tracker) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Learned = t.learned.Load()
	s.Rejected = t.rejected.Load()
	s.Generation = t.cur.Load().gen
	s.Weight = t.acc.Weight()
	return s
}
