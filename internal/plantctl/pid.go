// Package control implements discrete PI controllers with anti-windup and
// the Ricker-style decentralized multiloop control layer for the
// Tennessee-Eastman plant: flow, pressure, level and temperature loops plus
// the slow cascades (stripper-level → production trim, feed-composition →
// A-feed setpoint trim) that give the paper's attack scenarios their
// closed-loop behaviour.
package plantctl

import (
	"errors"
	"fmt"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid controller parameters.
	ErrBadConfig = errors.New("control: invalid configuration")
)

// PI is a discrete proportional-integral controller in positional form with
// conditional-integration anti-windup and output clamping.
//
// The controller convention is out = bias + Kc·e + (Kc/Ti)·∫e·dt with
// e = SP − PV. A negative Kc gives reverse action (output rises when the
// process variable rises above setpoint), which is what cooling, venting
// and level-draining loops need.
type PI struct {
	kc   float64 // proportional gain (may be negative for reverse action)
	ti   float64 // integral time [h]; 0 disables integral action
	sp   float64
	bias float64
	lo   float64
	hi   float64

	integ float64 // integral term accumulator (in output units)
}

// NewPI builds a PI controller. ti is the integral time in hours (0 for
// P-only), [lo, hi] the output clamp, bias the output at zero error
// (typically the base-case actuator position — bumpless start).
func NewPI(kc, ti, sp, lo, hi, bias float64) (*PI, error) {
	if hi <= lo {
		return nil, fmt.Errorf("control: clamp [%g,%g]: %w", lo, hi, ErrBadConfig)
	}
	if ti < 0 {
		return nil, fmt.Errorf("control: negative integral time %g: %w", ti, ErrBadConfig)
	}
	if kc == 0 {
		return nil, fmt.Errorf("control: zero gain: %w", ErrBadConfig)
	}
	return &PI{kc: kc, ti: ti, sp: sp, bias: bias, lo: lo, hi: hi}, nil
}

// Update advances the controller by dt hours given the measured process
// value pv and returns the clamped output.
func (c *PI) Update(pv, dt float64) float64 {
	e := c.sp - pv
	raw := c.bias + c.kc*e + c.integ
	out := raw
	if out < c.lo {
		out = c.lo
	}
	if out > c.hi {
		out = c.hi
	}
	if c.ti > 0 && dt > 0 {
		// Conditional integration: freeze the integral when it would push
		// the output further into saturation.
		dI := c.kc / c.ti * e * dt
		saturatedHigh := raw > c.hi && dI > 0
		saturatedLow := raw < c.lo && dI < 0
		if !saturatedHigh && !saturatedLow {
			c.integ += dI
		}
	}
	return out
}

// SetSP changes the setpoint.
func (c *PI) SetSP(sp float64) { c.sp = sp }

// Reset clears the integral accumulator.
func (c *PI) Reset() { c.integ = 0 }

// Clone returns an independent copy including the integrator state, so a
// warmed-up controller can be reused as the starting point of many runs.
func (c *PI) Clone() *PI {
	cp := *c
	return &cp
}
