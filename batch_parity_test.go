package pcsmon_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pcsmon"
)

// TestRunFleetBatchedParityScenarios is the scenario-level half of the
// batching contract: every §V scenario scored through the fleet — at
// per-observation delivery, the default 16-observation batches, and small
// batches racing an aggressive flush ticker — must be bit-identical to the
// single-plant batch protocol (AnalyzeViews). Batching changes message
// granularity, never results.
func TestRunFleetBatchedParityScenarios(t *testing.T) {
	l := testLab(t)
	scs := pcsmon.PaperScenarios(3)
	const hours = 8

	golden := make(map[string]*pcsmon.Report, len(scs))
	for _, sc := range scs {
		res, err := l.RunScenarioFor(sc, 1, hours)
		if err != nil {
			t.Fatal(err)
		}
		golden[fmt.Sprintf("%s/00", sc.Key)] = res.Runs[0].Report
	}

	for _, cfg := range []struct {
		name  string
		batch int
		flush time.Duration
	}{
		{"unbatched", 1, -1},
		{"batch-16", 16, -1},
		{"batch-5-ticker", 5, 100 * time.Microsecond},
	} {
		res, err := l.RunFleet(scs, 1, pcsmon.FleetRunOptions{
			Hours: hours,
			FleetOptions: pcsmon.FleetOptions{
				Workers: 2, EmitEvery: -1,
				Batch: cfg.batch, FlushEvery: cfg.flush,
			},
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if len(res.Reports) != len(golden) {
			t.Fatalf("%s: %d reports, want %d", cfg.name, len(res.Reports), len(golden))
		}
		for id, want := range golden {
			if got := res.Reports[id]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s differs from batch-protocol golden:\nfleet: %+v\nbatch: %+v",
					cfg.name, id, got, want)
			}
		}
	}
}

// TestRunFleetBatchedAdaptiveParity: batching must stay invisible through
// adaptive model swaps — the slow-drift run with recalibration enabled
// produces a bit-identical report whether observations travel one per
// message or sixteen, and both paths actually swap models along the way.
func TestRunFleetBatchedAdaptiveParity(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.SlowDriftScenario(3)
	run := func(batch int) (map[string]*pcsmon.Report, int) {
		swaps := 0
		res, err := l.RunFleet([]pcsmon.Scenario{sc}, 1, pcsmon.FleetRunOptions{
			Hours: 12,
			FleetOptions: pcsmon.FleetOptions{
				EmitEvery: -1, Batch: batch,
				Adapt: pcsmon.AdaptiveOptions{Enabled: true, Every: 256, Forget: 0.999},
			},
		}, func(ev pcsmon.FleetEvent) {
			if _, ok := ev.Event.(pcsmon.ModelSwapped); ok {
				swaps++
			}
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		return res.Reports, swaps
	}
	unbatched, swapsUnbatched := run(1)
	batched, swapsBatched := run(16)
	if swapsUnbatched == 0 || swapsBatched == 0 {
		t.Fatalf("adaptation never swapped (unbatched %d, batched %d) — parity would be vacuous",
			swapsUnbatched, swapsBatched)
	}
	if !reflect.DeepEqual(batched, unbatched) {
		t.Errorf("batched adaptive reports differ from unbatched:\nbatched:   %+v\nunbatched: %+v",
			batched, unbatched)
	}
}
