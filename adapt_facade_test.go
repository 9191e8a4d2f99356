package pcsmon_test

import (
	"reflect"
	"testing"

	"pcsmon"
)

// TestStreamScenarioAdaptiveParity is the facade half of the swap-parity
// golden test: StreamScenario with adaptation configured but every
// candidate vetoed must produce a report bit-identical to the frozen-model
// run of the same seed, and must emit no ModelSwapped events.
func TestStreamScenarioAdaptiveParity(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.PaperScenarios(3)[1] // integrity on XMV(3)
	base := pcsmon.StreamOptions{Seed: 0, EarlyStop: true}

	frozen, err := l.StreamScenario(sc, base, nil)
	if err != nil {
		t.Fatal(err)
	}

	opts := base
	opts.Adaptive = pcsmon.AdaptiveOptions{
		Enabled: true, Every: 64, Forget: 1.0,
		MinWeight: 1, MinExplainedVar: 2, // always veto
	}
	adaptive, err := l.StreamScenario(sc, opts, func(ev pcsmon.StreamEvent) {
		if s, ok := ev.(pcsmon.ModelSwapped); ok {
			t.Errorf("always-veto stream swapped: %+v", s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frozen, adaptive) {
		t.Errorf("vetoed-adaptive report differs from frozen:\nfrozen:   %+v\nadaptive: %+v", frozen, adaptive)
	}
	if frozen.Verdict != pcsmon.VerdictIntegrityAttack {
		t.Errorf("golden verdict %v (%s)", frozen.Verdict, frozen.Explanation)
	}
}

// TestSlowDriftScenarioAdaptive: the facade wiring end to end — the
// slow-drift scenario under real adaptation stays Normal and surfaces its
// model swaps as typed events.
func TestSlowDriftScenarioAdaptive(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.SlowDriftScenario(3)
	swaps := 0
	rep, err := l.StreamScenario(sc, pcsmon.StreamOptions{
		EmitEvery: -1,
		Adaptive:  pcsmon.AdaptiveOptions{Enabled: true, Every: 256, Forget: 0.999},
	}, func(ev pcsmon.StreamEvent) {
		if s, ok := ev.(pcsmon.ModelSwapped); ok {
			swaps++
			if s.Generation == 0 || s.D99 <= 0 || s.Q99 <= 0 {
				t.Errorf("malformed swap event: %+v", s)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != pcsmon.VerdictNormal {
		t.Errorf("adaptive slow-drift verdict %v (%s)", rep.Verdict, rep.Explanation)
	}
	if swaps == 0 {
		t.Error("no ModelSwapped events")
	}
}

// TestRunFleetAdaptive: fleet-wide adaptation through the facade — the
// merged event stream carries per-plant ModelSwapped events and the drift
// run still ends Normal. One stream keeps the shared tracker's learning
// order deterministic (concurrent multi-stream adaptation is covered by
// the engine-level -race stress test, where verdict statistics are
// controlled by per-stream seeds).
func TestRunFleetAdaptive(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.SlowDriftScenario(3)
	swapPlants := map[string]int{}
	res, err := l.RunFleet([]pcsmon.Scenario{sc}, 1, pcsmon.FleetRunOptions{
		Hours: 12,
		FleetOptions: pcsmon.FleetOptions{
			EmitEvery: -1,
			Adapt:     pcsmon.AdaptiveOptions{Enabled: true, Every: 256, Forget: 0.999},
		},
	}, func(ev pcsmon.FleetEvent) {
		if _, ok := ev.Event.(pcsmon.ModelSwapped); ok {
			swapPlants[ev.Plant]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports: %d", len(res.Reports))
	}
	for id, rep := range res.Reports {
		if rep.Verdict != pcsmon.VerdictNormal {
			t.Errorf("%s: verdict %v (%s)", id, rep.Verdict, rep.Explanation)
		}
	}
	if len(swapPlants) == 0 {
		t.Error("no plant ever swapped models")
	}
	if res.Stats.ModelSwaps == 0 || res.Stats.ModelGeneration == 0 {
		t.Errorf("fleet stats show no adaptation: %+v", res.Stats)
	}
}
