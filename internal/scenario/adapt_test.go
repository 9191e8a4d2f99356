package scenario

import (
	"testing"

	"pcsmon/internal/adapt"
	"pcsmon/internal/core"
	"pcsmon/internal/fleet"
	"pcsmon/internal/te"
)

// adaptOptions are the adaptive settings the scenario tests share: refit
// about once a simulated hour, remember ~2.5 h of in-control traffic.
func adaptOptions() adapt.Options {
	return adapt.Options{
		Enabled:   true,
		Every:     200,
		Forget:    0.999,
		MinWeight: 600,
	}
}

// SlowDriftScenario returns the plant-aging situation the adaptive
// recalibration layer exists for: from onsetHour a handful of correlated
// process channels drift at a small fraction of a calibration σ per hour —
// no disturbance, no attacker. A frozen model eventually walks out of its
// own NOC region and false-alarms on healthy operation; an adaptive model
// tracks the aging and stays quiet, which is why the ground-truth verdict
// is Normal.
func SlowDriftScenario(onsetHour float64) Scenario {
	return Scenario{
		Key:  "slow-drift",
		Name: "Slow NOC aging: correlated sensor drift, no anomaly",
		Drift: DriftSpec{
			StartHour:    onsetHour,
			SigmaPerHour: 0.06,
			Channels: []int{
				te.XmeasReactorTemp,
				te.XmeasReactorPress,
				te.XmeasSepTemp,
				te.XmeasStripTemp,
			},
		},
		Expected:    core.VerdictNormal,
		AttackedVar: -1,
	}
}

// TestSlowDriftFrozenVsAdaptive is the subsystem's reason to exist, run on
// the real plant: under gradual NOC aging (no disturbance, no attacker) the
// frozen model must false-alarm strictly more than the adaptive model on
// the same seeded run, and the adaptive verdict must stay Normal while the
// model demonstrably swaps generations.
func TestSlowDriftFrozenVsAdaptive(t *testing.T) {
	exp, _ := fixture(t)
	sc := SlowDriftScenario(testOnsetHour)

	// overCount scores the run on a one-worker pool, counting post-onset
	// observations over a 99 % limit in either view and accepted swaps.
	overCount := func(ao adapt.Options) (over, swaps int, rep *core.Report) {
		reports, _ := runFleet(t, exp, []Scenario{sc}, 1, fleet.Config{Workers: 1, Adapt: ao}, func(ev fleet.Event) {
			switch e := ev.(type) {
			case *fleet.Scored:
				res := e.Step
				if res.Index < exp.OnsetIndex() {
					return
				}
				if (res.Ctrl != nil && res.Ctrl.Over()) || (res.Proc != nil && res.Proc.Over()) {
					over++
				}
			case fleet.ModelSwapped:
				swaps++
			}
		})
		return over, swaps, reports[sc.Key+"/00"]
	}

	frozenOver, _, fr := overCount(adapt.Options{})
	adaptiveOver, swaps, ar := overCount(adaptOptions())

	t.Logf("post-onset over-limit observations: frozen=%d adaptive=%d (swaps=%d)",
		frozenOver, adaptiveOver, swaps)
	if frozenOver <= adaptiveOver {
		t.Errorf("frozen model false-alarm count %d not strictly above adaptive %d",
			frozenOver, adaptiveOver)
	}
	// The frozen model walks out of its own NOC region: it latches a
	// detection on healthy (aging) operation.
	if !fr.Controller.Detected && !fr.Process.Detected {
		t.Error("frozen model never false-alarmed under slow drift (drift too mild for the test to mean anything)")
	}
	// The adaptive model tracks the aging and stays quiet.
	if got := ar.Verdict; got != core.VerdictNormal {
		t.Errorf("adaptive verdict under pure aging: %v (%s)", got, ar.Explanation)
	}
	if swaps == 0 {
		t.Error("adaptive run never swapped models")
	}
}

// TestAdaptiveStillDetectsPaperScenarios: adaptation must not cost the
// paper's results — with the adaptive layer enabled, each of the four §V
// scenarios is still detected and classified as its ground truth (the
// drift guard keeps the incident out of the baseline, so the model the
// incident is judged against is still a NOC model).
func TestAdaptiveStillDetectsPaperScenarios(t *testing.T) {
	exp, _ := fixture(t)
	for _, sc := range PaperScenarios(testOnsetHour) {
		t.Run(sc.Key, func(t *testing.T) {
			reports, _ := runFleet(t, exp, []Scenario{sc}, 1, fleet.Config{
				Workers: 1, EmitEvery: -1, Adapt: adaptOptions(),
			}, nil)
			rep := reports[sc.Key+"/00"]
			if !rep.Controller.Detected && !rep.Process.Detected {
				t.Fatalf("%s: not detected under adaptation", sc.Key)
			}
			if rep.Verdict != sc.Expected {
				t.Errorf("%s: verdict %v, want %v (%s)", sc.Key, rep.Verdict, sc.Expected, rep.Explanation)
			}
		})
	}
}

// TestDriftSpecValidation: malformed drift specs must be rejected with
// ErrBadConfig before any simulation runs.
func TestDriftSpecValidation(t *testing.T) {
	exp, _ := fixture(t)
	for _, sc := range []Scenario{
		{Key: "bad-ch", Drift: DriftSpec{SigmaPerHour: 0.1, Channels: []int{999}}},
		{Key: "bad-rate", Drift: DriftSpec{SigmaPerHour: -0.1, Channels: []int{0}}},
		{Key: "bad-start", Drift: DriftSpec{StartHour: -2, SigmaPerHour: 0.1, Channels: []int{0}}},
	} {
		e := *exp
		if _, err := e.runConfig(sc, 1, 1); err == nil {
			t.Errorf("%s: accepted", sc.Key)
		}
	}
}
