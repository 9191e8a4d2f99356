package te

import (
	"math"
	"math/rand"
)

// ou is an Ornstein–Uhlenbeck (mean-reverting random walk) process — the
// building block of the "added randomness" model of Krotofil et al.: slow,
// correlated variation of the true process inputs, as opposed to white
// measurement noise. Discretized exactly for a step dt:
//
//	x ← μ + (x−μ)·e^{−dt/τ} + σ·√(1−e^{−2dt/τ})·N(0,1)
type ou struct {
	mean  float64 // long-run mean μ
	tau   float64 // correlation time τ [h]
	sigma float64 // stationary standard deviation σ
	x     float64
}

func newOU(mean, tau, sigma float64) *ou {
	return &ou{mean: mean, tau: tau, sigma: sigma, x: mean}
}

// step advances the process by dt hours using rng and returns the new
// value.
func (o *ou) step(dt float64, rng *rand.Rand) float64 {
	if o.tau <= 0 {
		return o.x
	}
	decay := math.Exp(-dt / o.tau)
	o.x = o.mean + (o.x-o.mean)*decay + o.sigma*math.Sqrt(1-decay*decay)*rng.NormFloat64()
	return o.x
}

// value returns the current value without advancing.
func (o *ou) value() float64 { return o.x }

// lag is a first-order lag y' = (u−y)/τ, used for valve actuators and
// analyzer dynamics. A zero τ passes the input through.
type lag struct {
	tau float64 // time constant [h]
	y   float64
	set bool
}

func newLag(tau float64) *lag { return &lag{tau: tau} }

// step advances toward u by dt hours and returns the output.
func (l *lag) step(u, dt float64) float64 {
	if !l.set {
		l.y = u
		l.set = true
		return l.y
	}
	if l.tau <= 0 {
		l.y = u
		return l.y
	}
	a := dt / l.tau
	if a > 1 {
		a = 1
	}
	l.y += a * (u - l.y)
	return l.y
}

// force sets the output directly (used to initialize at the base case).
func (l *lag) force(v float64) { l.y = v; l.set = true }

// stiction models a sticking valve (IDV 14/15/19): the output only moves
// when the command differs from the last moved-to position by more than the
// band, then jumps (Karnopp-style simplification).
type stiction struct {
	band   float64
	pos    float64
	primed bool
}

func (s *stiction) apply(cmd float64) float64 {
	if !s.primed {
		s.pos = cmd
		s.primed = true
		return s.pos
	}
	if s.band <= 0 {
		s.pos = cmd
		return s.pos
	}
	if math.Abs(cmd-s.pos) > s.band {
		s.pos = cmd
	}
	return s.pos
}
