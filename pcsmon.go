// Package pcsmon is a Go reproduction of "On the Feasibility of
// Distinguishing Between Process Disturbances and Intrusions in Process
// Control Systems Using Multivariate Statistical Process Control" (Iturbe,
// Camacho, Garitano, Zurutuza, Uribeetxeberria — DSN 2016).
//
// It bundles a reduced-order Tennessee-Eastman plant simulator with a
// Ricker-style decentralized control layer, an insecure fieldbus with a
// man-in-the-middle attacker (integrity and DoS attacks per Krotofil et
// al.), and the paper's two-view MSPC anomaly detection and diagnosis
// pipeline: PCA, Hotelling's T² (D) and SPE (Q) control charts, oMEDA
// diagnosis, and a classifier that tells process disturbances apart from
// intrusions.
//
// The package exposes what the examples and commands drive — the lab, the
// paper's scenarios, the streaming analyzer and Fleet, the library wrapper
// over the scoring pool; the building blocks live in the internal packages
// (te, plantctl, fieldbus, attack, plant, mspc, pca, omeda, core, scenario,
// fleet, obs).
// The live frame pipeline — dedup, two-view pairing, scoring on
// internal/fleet's Pool, capture and the ops API over internal/obs — is
// assembled once, by internal/control's Plane, which the socket and
// capture examples and mspctool's fleet, replay and serve commands run on;
// it does not go through the facade.
//
// A minimal session:
//
//	lab, err := pcsmon.NewLab(pcsmon.LabConfig{})
//	…
//	res, err := lab.RunScenarioFor(pcsmon.PaperScenarios(10)[0], 10, 26)
//	fmt.Println(res.Runs[0].Report.Verdict)
package pcsmon

import (
	"fmt"

	"pcsmon/internal/core"
	"pcsmon/internal/historian"
	"pcsmon/internal/plant"
	"pcsmon/internal/scenario"
)

// ErrBadConfig is returned (wrapped) for invalid LabConfig values; it is
// the same value as the control plane's and the commands' sentinel.
var ErrBadConfig = core.ErrBadConfig

// Re-exported types: the stable public surface over the internal packages.
type (
	// Report is the two-view detection/diagnosis result of one run.
	Report = core.Report
	// MonitorConfig tunes the MSPC pipeline.
	MonitorConfig = core.Config
	// System is a calibrated two-view monitoring system.
	System = core.System
	// Scenario describes one anomalous situation (disturbance and/or
	// attacks).
	Scenario = scenario.Scenario
	// ScenarioResult aggregates a scenario over several runs.
	ScenarioResult = scenario.Result
)

// Verdict values.
const (
	VerdictNormal          = core.VerdictNormal
	VerdictDisturbance     = core.VerdictDisturbance
	VerdictIntegrityAttack = core.VerdictIntegrityAttack
	VerdictDoS             = core.VerdictDoS
	VerdictAnomaly         = core.VerdictAnomaly
)

// VarName returns the canonical name of observation column j
// ("XMEAS(1)"…"XMV(12)").
func VarName(j int) string { return historian.VarName(j) }

// PaperScenarios returns the paper's four evaluation scenarios with the
// anomaly starting at onsetHour: IDV(6), integrity on XMV(3), integrity on
// XMEAS(1), DoS on XMV(3).
func PaperScenarios(onsetHour float64) []Scenario {
	return scenario.PaperScenarios(onsetHour)
}

// LabConfig parameterizes NewLab. The zero value gives a laptop-friendly
// setup: 4.5-second sampling, 60 h warmup, 5 calibration runs of 24 h
// decimated by 2.
type LabConfig struct {
	// StepSeconds is the plant sampling interval (0 = 4.5; the paper's
	// cadence is 1.8).
	StepSeconds float64
	// WarmupHours settles the plant before experiments (0 = 60).
	WarmupHours float64
	// CalibrationRuns is the number of NOC runs (0 = 5; paper: 30).
	CalibrationRuns int
	// CalibrationHours is the duration of each (0 = 24; paper: 72).
	CalibrationHours float64
	// Decimate keeps one in N samples for monitoring (0 = 2).
	Decimate int
	// Seed drives all randomness (calibration runs use Seed+i).
	Seed int64
	// Monitor tunes the MSPC pipeline.
	Monitor MonitorConfig
}

// Lab is a ready-to-experiment bundle: a warmed-up plant template plus a
// calibrated two-view monitoring system.
type Lab struct {
	Template *plant.Template
	System   *core.System
	cfg      LabConfig
}

// validate rejects meaningless parameter values with wrapped ErrBadConfig
// errors (zero values select defaults and are always valid).
func (cfg LabConfig) validate() error {
	switch {
	case cfg.StepSeconds < 0:
		return fmt.Errorf("pcsmon: step seconds %g: %w", cfg.StepSeconds, ErrBadConfig)
	case cfg.WarmupHours < 0:
		return fmt.Errorf("pcsmon: warmup hours %g: %w", cfg.WarmupHours, ErrBadConfig)
	case cfg.CalibrationRuns < 0:
		return fmt.Errorf("pcsmon: calibration runs %d: %w", cfg.CalibrationRuns, ErrBadConfig)
	case cfg.CalibrationHours < 0:
		return fmt.Errorf("pcsmon: calibration hours %g: %w", cfg.CalibrationHours, ErrBadConfig)
	case cfg.Decimate < 0:
		return fmt.Errorf("pcsmon: decimate %d: %w", cfg.Decimate, ErrBadConfig)
	}
	return nil
}

// NewLab builds the plant, warms it up, runs the NOC calibration campaign
// and calibrates the monitoring system.
func NewLab(cfg LabConfig) (*Lab, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.StepSeconds == 0 {
		cfg.StepSeconds = 4.5
	}
	if cfg.WarmupHours == 0 {
		cfg.WarmupHours = 60
	}
	if cfg.CalibrationRuns == 0 {
		cfg.CalibrationRuns = 5
	}
	if cfg.CalibrationHours == 0 {
		cfg.CalibrationHours = 24
	}
	if cfg.Decimate == 0 {
		cfg.Decimate = 2
	}
	tmpl, err := plant.NewTemplate(plant.Config{
		StepSeconds: cfg.StepSeconds,
		WarmupHours: cfg.WarmupHours,
	})
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	cal, err := scenario.Calibrate(tmpl, cfg.CalibrationRuns, cfg.CalibrationHours,
		cfg.Decimate, cfg.Seed, cfg.Monitor)
	if err != nil {
		return nil, fmt.Errorf("pcsmon: %w", err)
	}
	return &Lab{Template: tmpl, System: cal.System, cfg: cfg}, nil
}

// RunScenarioFor executes a scenario runs times (the paper uses 10), each
// run lasting hours (0 = 16 h past the scenario's onset), with anomalies
// starting per the scenario definition.
func (l *Lab) RunScenarioFor(sc Scenario, runs int, hours float64) (*ScenarioResult, error) {
	if hours <= 0 {
		hours = onsetOf(sc) + 16
	}
	exp := &scenario.Experiment{
		Template:  l.Template,
		System:    l.System,
		Hours:     hours,
		OnsetHour: onsetOf(sc),
		Decimate:  l.cfg.Decimate,
		SeedBase:  l.cfg.Seed + 7777,
	}
	return exp.Run(sc, runs)
}

// onsetOf extracts the earliest anomaly start from a scenario (0 when the
// scenario is pure NOC).
func onsetOf(sc Scenario) float64 {
	onset := -1.0
	for _, ev := range sc.IDVs {
		if onset < 0 || ev.StartHour < onset {
			onset = ev.StartHour
		}
	}
	for _, a := range sc.Attacks {
		if onset < 0 || a.StartHour < onset {
			onset = a.StartHour
		}
	}
	if sc.Drift.SigmaPerHour > 0 && len(sc.Drift.Channels) > 0 {
		if onset < 0 || sc.Drift.StartHour < onset {
			onset = sc.Drift.StartHour
		}
	}
	if onset < 0 {
		return 0
	}
	return onset
}
