// Package attack implements the adversary model of Krotofil et al. (ASIA
// CCS'15) used by the paper: a man-in-the-middle on the fieldbus between
// controllers and the physical process who can forge sensor values on their
// way to the controller and/or actuator commands on their way to the
// process.
//
// An integrity attack substitutes the transmitted value Y(t) with Yᵃ(t) for
// t within the attack interval Ta (paper Eq. 2); a DoS attack freezes the
// channel at the last value received before the attack began, Yᵃ(t) =
// Y(ta−1) (paper Eq. 3).
package attack

import (
	"errors"
	"fmt"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid attack specifications.
	ErrBadConfig = errors.New("attack: invalid configuration")
)

// Direction identifies which link the attacker sits on.
type Direction int

// The two attackable links of the control loop.
const (
	// SensorLink is the sensor→controller direction: the controller
	// receives forged XMEAS values while the process remains honest.
	SensorLink Direction = iota + 1
	// ActuatorLink is the controller→actuator direction: the process
	// receives forged XMV values while the controller believes its own
	// commands were delivered.
	ActuatorLink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case SensorLink:
		return "sensor-link"
	case ActuatorLink:
		return "actuator-link"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Kind is the attack payload family.
type Kind int

// Supported attack kinds.
const (
	// Integrity replaces the value with a constant (paper Eq. 2 with a
	// constant Yᵃ; the paper's scenarios use 0 — "close the valve" /
	// "report zero flow").
	Integrity Kind = iota + 1
	// DoS freezes the channel at the last pre-attack value (paper Eq. 3).
	DoS
	// Bias adds a constant offset to the true value (extension).
	Bias
	// Scale multiplies the true value by a constant (extension).
	Scale
	// Replay replays the value observed Window samples before the attack
	// started, looping over the recorded window (extension).
	Replay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Integrity:
		return "integrity"
	case DoS:
		return "dos"
	case Bias:
		return "bias"
	case Scale:
		return "scale"
	case Replay:
		return "replay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one attack on one channel.
type Spec struct {
	// Kind selects the payload family.
	Kind Kind
	// Direction selects the link (sensor→controller or
	// controller→actuator).
	Direction Direction
	// Channel is the 0-based index of the attacked variable: an XMEAS
	// index for SensorLink, an XMV index for ActuatorLink.
	Channel int
	// StartHour and EndHour bound the attack interval Ta in simulation
	// hours. EndHour ≤ 0 means "until the end of the run".
	StartHour, EndHour float64
	// Value is the injected constant for Integrity, the offset for Bias
	// and the factor for Scale. Ignored for DoS and Replay.
	Value float64
	// Window is the number of samples replayed cyclically (Replay only).
	Window int
}

// Validate checks the specification.
func (s Spec) Validate() error {
	switch s.Kind {
	case Integrity, DoS, Bias, Scale:
	case Replay:
		if s.Window <= 0 {
			return fmt.Errorf("attack: replay window %d: %w", s.Window, ErrBadConfig)
		}
	default:
		return fmt.Errorf("attack: unknown kind %d: %w", int(s.Kind), ErrBadConfig)
	}
	switch s.Direction {
	case SensorLink, ActuatorLink:
	default:
		return fmt.Errorf("attack: unknown direction %d: %w", int(s.Direction), ErrBadConfig)
	}
	if s.Channel < 0 {
		return fmt.Errorf("attack: negative channel: %w", ErrBadConfig)
	}
	if s.StartHour < 0 {
		return fmt.Errorf("attack: negative start hour: %w", ErrBadConfig)
	}
	if s.EndHour > 0 && s.EndHour <= s.StartHour {
		return fmt.Errorf("attack: end %.3g ≤ start %.3g: %w", s.EndHour, s.StartHour, ErrBadConfig)
	}
	return nil
}

// String renders a compact description for reports.
func (s Spec) String() string {
	return fmt.Sprintf("%s on %s channel %d @ %.3gh", s.Kind, s.Direction, s.Channel, s.StartHour)
}

// Injector applies a set of attack Specs to a stream of channel values. It
// maintains the per-channel history needed by DoS (last clean value) and
// Replay (recorded window). One Injector handles one direction.
//
// The zero value is not usable; call NewInjector.
type Injector struct {
	direction Direction
	specs     []Spec
	last      map[int]float64   // channel → last clean value seen
	history   map[int][]float64 // channel → pre-attack samples for replay
	replayPos map[int]int       // channel → next replay offset
	frozen    map[int]float64   // channel → value frozen at attack start
	active    map[int]bool      // channel → attack was active last sample
}

// NewInjector builds an injector for the given direction from the subset of
// specs matching that direction. Specs for other directions are ignored, so
// one scenario's spec list can be passed to both injectors.
func NewInjector(direction Direction, specs []Spec) (*Injector, error) {
	inj := &Injector{
		direction: direction,
		last:      make(map[int]float64),
		history:   make(map[int][]float64),
		replayPos: make(map[int]int),
		frozen:    make(map[int]float64),
		active:    make(map[int]bool),
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Direction == direction {
			inj.specs = append(inj.specs, s)
		}
	}
	return inj, nil
}

func inWindow(s Spec, hour float64) bool {
	if hour < s.StartHour {
		return false
	}
	if s.EndHour > 0 && hour >= s.EndHour {
		return false
	}
	return true
}

// Apply rewrites the channel values in place according to the active
// attacks and returns values. It must be called once per sample, in sample
// order, with the clean (true) values; it maintains the history state DoS
// and Replay need.
func (inj *Injector) Apply(values []float64, hour float64) []float64 {
	// Pass 1: apply active attacks using the state recorded from previous
	// samples — the frozen value of a DoS must be the last value *before*
	// the attack window, never the current sample.
	attacked := make(map[int]bool, len(inj.specs))
	clean := make(map[int]float64, len(inj.specs))
	for _, s := range inj.specs {
		if s.Channel >= len(values) {
			continue
		}
		if _, ok := clean[s.Channel]; !ok {
			clean[s.Channel] = values[s.Channel]
		}
		if !inWindow(s, hour) {
			continue
		}
		attacked[s.Channel] = true
		if !inj.active[s.Channel] {
			inj.active[s.Channel] = true
			inj.frozen[s.Channel] = inj.last[s.Channel]
			inj.replayPos[s.Channel] = 0
		}
		switch s.Kind {
		case Integrity:
			values[s.Channel] = s.Value
		case DoS:
			values[s.Channel] = inj.frozen[s.Channel]
		case Bias:
			values[s.Channel] += s.Value
		case Scale:
			values[s.Channel] *= s.Value
		case Replay:
			h := inj.history[s.Channel]
			if len(h) > 0 {
				values[s.Channel] = h[inj.replayPos[s.Channel]%len(h)]
				inj.replayPos[s.Channel]++
			}
		}
	}
	// Pass 2: update the clean history for channels not under attack this
	// sample.
	for _, s := range inj.specs {
		if s.Channel >= len(values) || attacked[s.Channel] {
			continue
		}
		inj.last[s.Channel] = clean[s.Channel]
		if s.Kind == Replay {
			h := append(inj.history[s.Channel], clean[s.Channel])
			if len(h) > s.Window {
				h = h[len(h)-s.Window:]
			}
			inj.history[s.Channel] = h
		}
		inj.active[s.Channel] = false
	}
	return values
}
