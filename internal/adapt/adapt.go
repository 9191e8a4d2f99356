// Package adapt is the adaptive recalibration layer between calibration and
// monitoring: it keeps a long-running monitor's reference model matched to
// the plant's slowly moving normal operating conditions without ever
// learning an attack into the baseline.
//
// The paper (Iturbe et al., DSN 2016) freezes the PCA model at calibration;
// under slow plant aging the frozen NOC region eventually drifts away from
// reality and the monitor degenerates into a false-alarm generator. MSPC
// practice treats periodic model maintenance as essential (Bersimis et al.),
// and kernel-MSPC work (Duma et al.) shows detection quality hinges on
// keeping the reference model matched to current normal operation. This
// package implements that maintenance online, in three pieces:
//
//   - A Tracker accumulates EWMA-weighted covariance/mean statistics
//     (mat.EWMACovAccumulator) from observations and refits a candidate
//     core.System on a configurable cadence.
//   - Drift guards keep the baseline honest. The learn guard only feeds the
//     accumulator observations the *current* model scores in control —
//     out-of-control samples (an attack or disturbance in progress) are
//     rejected, so an intrusion can never teach the model to accept itself.
//     The swap guards sanity-check every candidate against the incumbent
//     (explained variance floor, control-limit stability band) before it is
//     allowed to take over.
//   - A swap protocol migrates live analyzers atomically: swaps land only at
//     a diagnosis-window boundary and only when the stream is quiescent
//     (core.OnlineAnalyzer.TrySwap), carrying the run-rule/detector state
//     across, and emit a typed event so operators can audit every model
//     generation.
//
// When NOT to adapt: short-horizon forensic replays (the frozen model *is*
// the evidence), plants whose "drift" is actually an unresolved fault, or
// deployments without enough in-control traffic between refits — the
// MinWeight guard vetoes candidates in that last case, but the operator
// should prefer a frozen model outright.
package adapt

import (
	"errors"
	"fmt"

	"pcsmon/internal/core"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid adaptation options.
	ErrBadConfig = errors.New("adapt: invalid configuration")
)

// Options parameterizes the adaptive layer. The zero value is disabled;
// set Enabled and leave the rest zero for the defaults.
type Options struct {
	// Enabled switches the adaptive layer on.
	Enabled bool
	// Every is the refit cadence: a candidate model is fitted after this
	// many learned (in-control) observations (0 = 512).
	Every int
	// Forget is the EWMA forget factor λ per learned observation (0 =
	// 0.999, an effective memory of ~1000 observations; 1 = infinite
	// memory, i.e. a plain growing average).
	Forget float64
	// LearnEvery thins learning to one in N in-control observations
	// (0 or 1 = every one) — the knob trading tracker freshness against
	// accumulator cost on very hot fleets.
	LearnEvery int
	// MinWeight is the minimum accumulated EWMA weight before a candidate
	// may be fitted (0 = 4×NumVars). Below it every refit is vetoed.
	MinWeight float64
	// MinExplainedVar is the explained-variance floor: a candidate whose
	// retained components explain less than this fraction of total variance
	// is vetoed (0 = 0.5). Values above 1 veto every candidate — the
	// always-veto configuration the parity tests use.
	MinExplainedVar float64
	// MaxLimitDrift is the stability band: a candidate whose 99 % D or Q
	// limit differs from the incumbent's by more than this factor is vetoed
	// (0 = 8). A model that moves its limits an order of magnitude in one
	// cadence is tracking an incident, not aging.
	MaxLimitDrift float64
	// PriorWeight blends the calibration covariance into every candidate at
	// this persistent weight (recursive-PCA style): candidate covariance =
	// (PriorWeight·calibration + liveWeight·EWMA)/(PriorWeight+liveWeight),
	// while the candidate means track the live EWMA alone. Aging moves the
	// operating point much faster than it changes the noise/correlation
	// structure, and a short single-stream memory systematically
	// *underestimates* the NOC variance (in-control samples are
	// autocorrelated; the calibration campaign spans runs) — the persistent
	// prior is what keeps that bias from quietly tightening the control
	// limits refit after refit. 0 = min(calibration N, 1/(1−Forget)).
	PriorWeight float64
	// NoPrior fits candidates from the live statistics alone — for streams
	// whose covariance structure is known to differ from the calibration
	// campaign's.
	NoPrior bool
}

func (o Options) withDefaults() Options {
	if o.Every == 0 {
		o.Every = 512
	}
	if o.Forget == 0 {
		o.Forget = 0.999
	}
	if o.LearnEvery == 0 {
		o.LearnEvery = 1
	}
	if o.MinExplainedVar == 0 {
		o.MinExplainedVar = 0.5
	}
	if o.MaxLimitDrift == 0 {
		o.MaxLimitDrift = 8
	}
	return o
}

// Validate rejects meaningless option values with wrapped ErrBadConfig
// errors (zero values select defaults and are always valid).
func (o Options) Validate() error {
	switch {
	case o.Every < 0:
		return fmt.Errorf("adapt: refit cadence %d: %w", o.Every, ErrBadConfig)
	case o.Forget < 0 || o.Forget > 1:
		return fmt.Errorf("adapt: forget factor %g not in (0,1]: %w", o.Forget, ErrBadConfig)
	case o.LearnEvery < 0:
		return fmt.Errorf("adapt: learn-every %d: %w", o.LearnEvery, ErrBadConfig)
	case o.MinWeight < 0:
		return fmt.Errorf("adapt: min weight %g: %w", o.MinWeight, ErrBadConfig)
	case o.MinExplainedVar < 0:
		return fmt.Errorf("adapt: explained-variance floor %g: %w", o.MinExplainedVar, ErrBadConfig)
	case o.MaxLimitDrift != 0 && o.MaxLimitDrift < 1:
		return fmt.Errorf("adapt: limit-drift band %g < 1: %w", o.MaxLimitDrift, ErrBadConfig)
	case o.PriorWeight < 0:
		return fmt.Errorf("adapt: prior weight %g: %w", o.PriorWeight, ErrBadConfig)
	}
	return nil
}

// Swap describes one accepted model swap on one stream — the payload of the
// ModelSwapped events the facade and fleet emit.
type Swap struct {
	// At is the stream index of the diagnosis-window boundary at which the
	// swap landed.
	At int
	// Generation is the model generation the stream migrated to (the
	// calibration-time model is generation 0).
	Generation uint64
	// D99 and Q99 are the new model's 99 % control limits, for audit logs.
	D99, Q99 float64
}

// Event converts the swap into the stream event that reports it.
func (s Swap) Event() core.ModelSwapped {
	return core.ModelSwapped{Index: s.At, Generation: s.Generation, D99: s.D99, Q99: s.Q99}
}
