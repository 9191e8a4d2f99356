// Package plant wires the full closed loop of the paper's Figure 2: the TE
// process, the decentralized controllers, the insecure fieldbus in between
// (with the attacker's MitM taps on both directions), the disturbance
// schedule, and the two-view historian.
//
// The expensive part of every experiment — warming the plant up to its
// settled operating point — is done once per Template; each experiment Run
// then clones the settled state with its own noise seed, so runs are cheap,
// independent and statistically identical under NOC.
package plant

import (
	"errors"
	"fmt"

	"pcsmon/internal/attack"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
	"pcsmon/internal/plantctl"
	"pcsmon/internal/te"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid configuration.
	ErrBadConfig = errors.New("plant: invalid configuration")
	// ErrWarmupFailed is returned when the plant trips during warmup.
	ErrWarmupFailed = errors.New("plant: warmup failed")
)

// Config parameterizes a Template.
type Config struct {
	// StepSeconds is the sampling interval (default 1.8 s — the paper's
	// 2000 samples/hour).
	StepSeconds float64
	// WarmupHours is the deterministic settling time before the operating
	// point is frozen (default 60 h).
	WarmupHours float64
}

// IDVEvent schedules a process disturbance: IDV index (0-based; 5 = the
// paper's IDV(6)) active from StartHour until EndHour (≤ 0 = until the
// run ends).
type IDVEvent struct {
	Index              int
	StartHour, EndHour float64
}

// Template is a warmed-up plant: settled process state plus settled
// controller state, cloneable into experiment runs.
type Template struct {
	cfg       Config
	proc      *te.Process
	ctrl      *plantctl.TEController
	baseXMEAS []float64
	baseXMV   []float64
}

// NewTemplate builds the plant and runs the deterministic warmup under
// closed-loop control, then re-centers the slow loops on the settled
// operating point.
func NewTemplate(cfg Config) (*Template, error) {
	if cfg.StepSeconds == 0 {
		cfg.StepSeconds = 1.8
	}
	if cfg.WarmupHours == 0 {
		cfg.WarmupHours = 60
	}
	if cfg.StepSeconds < 0 || cfg.WarmupHours < 0 {
		return nil, fmt.Errorf("plant: negative step or warmup: %w", ErrBadConfig)
	}
	proc, err := te.New(te.Config{
		Seed:               0,
		StepSeconds:        cfg.StepSeconds,
		NoProcessNoise:     true,
		NoMeasurementNoise: true,
	})
	if err != nil {
		return nil, fmt.Errorf("plant: process: %w", err)
	}
	ctrl, err := plantctl.NewTEController()
	if err != nil {
		return nil, fmt.Errorf("plant: controller: %w", err)
	}
	dt := cfg.StepSeconds / 3600
	steps := int(cfg.WarmupHours / dt)
	// Startup bypass: the cold-start transient may graze level interlocks;
	// they are re-armed before the template is used.
	proc.SetInterlocks(false)
	defer proc.SetInterlocks(true)
	measBuf := make([]float64, te.NumXMEAS)
	cmdBuf := make([]float64, te.NumXMV)
	for i := 0; i < steps; i++ {
		cmds, err := ctrl.StepInto(proc.MeasurementsInto(measBuf), dt, cmdBuf)
		if err != nil {
			return nil, fmt.Errorf("plant: warmup control: %w", err)
		}
		for j, v := range cmds {
			if err := proc.SetXMV(j, v); err != nil {
				return nil, fmt.Errorf("plant: warmup actuation: %w", err)
			}
		}
		if err := proc.Step(); err != nil {
			return nil, fmt.Errorf("%w at %.2f h: %v", ErrWarmupFailed, proc.Hours(), err)
		}
	}
	settled := proc.TrueMeasurements()
	if err := ctrl.Retarget(settled); err != nil {
		return nil, fmt.Errorf("plant: retarget: %w", err)
	}
	return &Template{
		cfg:       cfg,
		proc:      proc,
		ctrl:      ctrl,
		baseXMEAS: settled,
		baseXMV:   proc.XMVs(),
	}, nil
}

// BaseXMEAS returns the settled operating point (noiseless XMEAS).
func (t *Template) BaseXMEAS() []float64 {
	return append([]float64(nil), t.baseXMEAS...)
}

// StepSeconds returns the sampling interval of runs created from this
// template.
func (t *Template) StepSeconds() float64 { return t.cfg.StepSeconds }

// DriftSpec models gradual plant/sensor aging as seen by the monitoring
// layer: from StartHour, observation column j of BOTH recorded views is
// offset by PerHour[j]·(hour−StartHour). The offset is applied at record
// time only — identical in the two views (aging is not an attack, so it
// must never create cross-view divergence) and invisible to the control
// loop, which keeps regulating the true process.
type DriftSpec struct {
	// StartHour is when the aging begins.
	StartHour float64
	// PerHour is the additive drift rate per observation column
	// ([XMEAS(1..41), XMV(1..12)] layout, len historian.NumVars); nil
	// disables drift.
	PerHour []float64
}

func (d DriftSpec) active() bool { return len(d.PerHour) > 0 }

// RunConfig parameterizes one experiment run.
type RunConfig struct {
	// Seed drives all stochastic behaviour of this run.
	Seed int64
	// IDVs schedules process disturbances.
	IDVs []IDVEvent
	// Attacks is the adversary's plan (see attack.Spec); sensor-link specs
	// forge XMEAS toward the controller, actuator-link specs forge XMV
	// toward the process.
	Attacks []attack.Spec
	// Decimate keeps one of every N samples in the historian (≤1 keeps
	// all).
	Decimate int
	// Drift schedules gradual NOC aging of the recorded observations.
	Drift DriftSpec
}

// Run is one closed-loop simulation with optional disturbances and
// attacks.
type Run struct {
	proc  *te.Process
	ctrl  *plantctl.TEController
	link  *fieldbus.Link
	sens  *attack.Injector
	act   *attack.Injector
	views *historian.TwoView
	idvs  []IDVEvent
	drift DriftSpec
	dt    float64

	// Drift scratch: aged copies of the four recorded blocks, so the
	// control loop's own slices are never mutated.
	agedCX, agedCM, agedPX, agedPM []float64

	// Per-step scratch for the closed-loop blocks (measurement sample,
	// link deliveries, controller commands): the loop reuses them every
	// sample, so steady-state stepping performs no allocation. The
	// historian copies what it retains, so reuse is safe.
	measBuf, sensBuf, cmdBuf, actBuf []float64
}

// NewRun clones the template into a fresh run.
func (t *Template) NewRun(cfg RunConfig) (*Run, error) {
	sens, err := attack.NewInjector(attack.SensorLink, cfg.Attacks)
	if err != nil {
		return nil, fmt.Errorf("plant: sensor injector: %w", err)
	}
	act, err := attack.NewInjector(attack.ActuatorLink, cfg.Attacks)
	if err != nil {
		return nil, fmt.Errorf("plant: actuator injector: %w", err)
	}
	for _, ev := range cfg.IDVs {
		if ev.Index < 0 || ev.Index >= te.NumIDV {
			return nil, fmt.Errorf("plant: IDV index %d: %w", ev.Index, ErrBadConfig)
		}
		if ev.StartHour < 0 || (ev.EndHour > 0 && ev.EndHour <= ev.StartHour) {
			return nil, fmt.Errorf("plant: IDV window [%g,%g): %w", ev.StartHour, ev.EndHour, ErrBadConfig)
		}
	}
	if cfg.Drift.active() {
		if len(cfg.Drift.PerHour) != historian.NumVars {
			return nil, fmt.Errorf("plant: drift rates len %d, want %d: %w",
				len(cfg.Drift.PerHour), historian.NumVars, ErrBadConfig)
		}
		if cfg.Drift.StartHour < 0 {
			return nil, fmt.Errorf("plant: drift start %g: %w", cfg.Drift.StartHour, ErrBadConfig)
		}
	}
	views, err := historian.NewTwoView(cfg.Decimate)
	if err != nil {
		return nil, fmt.Errorf("plant: historian: %w", err)
	}
	proc := t.proc.Clone(cfg.Seed)
	proc.EnableNoise(true, true)
	r := &Run{
		proc:  proc,
		ctrl:  t.ctrl.Clone(),
		link:  fieldbus.NewLink(),
		sens:  sens,
		act:   act,
		views: views,
		idvs:  append([]IDVEvent(nil), cfg.IDVs...),
		drift: DriftSpec{StartHour: cfg.Drift.StartHour, PerHour: append([]float64(nil), cfg.Drift.PerHour...)},
		dt:    t.cfg.StepSeconds / 3600,
	}
	if r.drift.active() {
		r.agedCX = make([]float64, te.NumXMEAS)
		r.agedPX = make([]float64, te.NumXMEAS)
		r.agedCM = make([]float64, te.NumXMV)
		r.agedPM = make([]float64, te.NumXMV)
	}
	r.measBuf = make([]float64, te.NumXMEAS)
	r.sensBuf = make([]float64, te.NumXMEAS)
	r.cmdBuf = make([]float64, te.NumXMV)
	r.actBuf = make([]float64, te.NumXMV)
	// The attacker sits on the fieldbus: taps rewrite frames in transit.
	r.link.SetSensorTap(func(f *fieldbus.Frame) {
		r.sens.Apply(f.Values, r.proc.Hours())
	})
	r.link.SetActuatorTap(func(f *fieldbus.Frame) {
		r.act.Apply(f.Values, r.proc.Hours())
	})
	return r, nil
}

// Step advances the closed loop by one sample:
//
//	sensors → [MitM] → controller → [MitM] → actuators → process
//
// recording both views. It returns te.ErrShutdown (wrapped) once the plant
// has tripped.
func (r *Run) Step() error {
	hour := r.proc.Hours()
	// Disturbance schedule.
	for _, ev := range r.idvs {
		active := hour >= ev.StartHour && (ev.EndHour <= 0 || hour < ev.EndHour)
		if r.proc.IDV(ev.Index) != active {
			if err := r.proc.SetIDV(ev.Index, active); err != nil {
				return err
			}
		}
	}

	procXMEAS := r.proc.MeasurementsInto(r.measBuf)
	ctrlXMEAS, err := r.link.SendSensorsInto(procXMEAS, r.sensBuf)
	if err != nil {
		return fmt.Errorf("plant: sensor link: %w", err)
	}
	ctrlXMV, err := r.ctrl.StepInto(ctrlXMEAS, r.dt, r.cmdBuf)
	if err != nil {
		return fmt.Errorf("plant: control: %w", err)
	}
	procXMV, err := r.link.SendActuatorsInto(ctrlXMV, r.actBuf)
	if err != nil {
		return fmt.Errorf("plant: actuator link: %w", err)
	}
	for j, v := range procXMV {
		if err := r.proc.SetXMV(j, v); err != nil {
			return err
		}
	}
	if r.drift.active() && hour >= r.drift.StartHour {
		// Plant aging: both recorded views receive the same slow offset
		// (after the control loop consumed the true signals, so aging never
		// feeds back) — identical in the two views, so it can never mimic a
		// forged channel.
		dh := hour - r.drift.StartHour
		ctrlXMEAS = agedInto(r.agedCX, ctrlXMEAS, r.drift.PerHour[:te.NumXMEAS], dh)
		procXMEAS = agedInto(r.agedPX, procXMEAS, r.drift.PerHour[:te.NumXMEAS], dh)
		ctrlXMV = agedInto(r.agedCM, ctrlXMV, r.drift.PerHour[te.NumXMEAS:], dh)
		procXMV = agedInto(r.agedPM, procXMV, r.drift.PerHour[te.NumXMEAS:], dh)
	}
	if err := r.views.Record(ctrlXMEAS, ctrlXMV, procXMEAS, procXMV); err != nil {
		return fmt.Errorf("plant: record: %w", err)
	}
	return r.proc.Step()
}

// agedInto writes src + rates·dh into dst and returns dst.
func agedInto(dst, src, rates []float64, dh float64) []float64 {
	for j, v := range src {
		dst[j] = v + rates[j]*dh
	}
	return dst
}

// RunHours steps until the given simulated duration has elapsed or the
// plant shuts down. It reports whether the run completed without a trip.
func (r *Run) RunHours(hours float64) (completed bool, err error) {
	for r.proc.Hours() < hours {
		if err := r.Step(); err != nil {
			if errors.Is(err, te.ErrShutdown) {
				return false, nil
			}
			return false, err
		}
	}
	return true, nil
}

// Views returns the two-view historian of this run.
func (r *Run) Views() *historian.TwoView { return r.views }

// Hours returns the simulated time.
func (r *Run) Hours() float64 { return r.proc.Hours() }

// Shutdown reports whether the plant tripped.
func (r *Run) Shutdown() bool { return r.proc.Shutdown() }

// ShutdownReason returns the interlock message, or "".
func (r *Run) ShutdownReason() string { return r.proc.ShutdownReason() }
