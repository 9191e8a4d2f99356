package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pcsmon/internal/adapt"
	"pcsmon/internal/core"
	"pcsmon/internal/fleet"
)

// runFleet simulates runsEach runs of every scenario concurrently — one
// Feed goroutine per stream, all scored by one shared fleet.Pool against
// the experiment's calibrated system. Stream "<key>/<run>" replays the
// seeded run i that Run executes, so its report is directly comparable to
// (and bit-identical with) the batch protocol's. emit, if non-nil, sees
// every pool event from the one draining goroutine before it is recycled;
// it has returned for the last event when runFleet does.
func runFleet(t *testing.T, exp *Experiment, scs []Scenario, runsEach int, cfg fleet.Config, emit func(fleet.Event)) (map[string]*core.Report, fleet.Stats) {
	t.Helper()
	cfg.Sample = exp.SampleInterval()
	pool, err := fleet.NewPool(exp.System, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range pool.Events() {
			if emit != nil {
				emit(ev)
			}
			pool.Recycle(ev)
		}
	}()

	type outcome struct {
		id  string
		rep *core.Report
		err error
	}
	outcomes := make([]outcome, len(scs)*runsEach)
	var wg sync.WaitGroup
	for si, sc := range scs {
		for i := range runsEach {
			out := &outcomes[si*runsEach+i]
			out.id = fmt.Sprintf("%s/%02d", sc.Key, i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := pool.Attach(out.id, exp.OnsetIndex())
				if out.err = err; err != nil {
					return
				}
				_, feedErr := exp.Feed(sc, exp.RunSeed(int64(i)), func(_ int, ctrl, proc []float64) error {
					return st.Push(ctrl, proc)
				})
				// Detach even after a failed feed so the pool does not leak
				// the stream.
				rep, err := st.Detach()
				out.rep, out.err = rep, errors.Join(feedErr, err)
			}()
		}
	}
	wg.Wait()
	stats := pool.Stats()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained

	reports := make(map[string]*core.Report, len(outcomes))
	for _, out := range outcomes {
		if out.err != nil {
			t.Fatalf("%s: %v", out.id, out.err)
		}
		reports[out.id] = out.rep
	}
	return reports, stats
}

// TestRunFleetMatchesSingleStream is the fleet-level golden parity test:
// run i of a scenario scored through the shared fleet pool must be
// bit-identical to the same seeded run under the single-plant batch
// protocol.
func TestRunFleetMatchesSingleStream(t *testing.T) {
	exp, res := fixture(t)
	scs := PaperScenarios(testOnsetHour)[:2] // IDV(6) + integrity on XMV(3)
	const runsEach = 2

	golden := make(map[string]*core.Report)
	for _, sc := range scs {
		for i, run := range res[sc.Key].Runs[:runsEach] {
			golden[fmt.Sprintf("%s/%02d", sc.Key, i)] = run.Report
		}
	}

	verdictEvents := map[string]int{}
	reports, stats := runFleet(t, exp, scs, runsEach, fleet.Config{Workers: 2, EmitEvery: -1}, func(ev fleet.Event) {
		if _, ok := ev.(fleet.Verdict); ok {
			verdictEvents[ev.PlantID()]++
		}
	})
	if len(reports) != len(golden) {
		t.Fatalf("fleet produced %d reports, want %d", len(reports), len(golden))
	}
	for id, want := range golden {
		got := reports[id]
		if got == nil {
			t.Errorf("%s: no fleet report", id)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fleet report differs from batch golden:\nfleet: %+v\nbatch: %+v", id, got, want)
		}
	}
	for id := range golden {
		if verdictEvents[id] != 1 {
			t.Errorf("%s: %d Verdict events, want 1", id, verdictEvents[id])
		}
	}
	if stats.Verdicts != uint64(len(golden)) || stats.Observations == 0 {
		t.Errorf("fleet stats %+v", stats)
	}
	if stats.ObsPerSec <= 0 {
		t.Errorf("obs/sec %.1f", stats.ObsPerSec)
	}
}

// TestRunFleetBatchedParityScenarios is the scenario-level half of the
// batching contract: every §V scenario scored through the fleet — at
// per-observation delivery, the default 16-observation batches, and small
// batches racing an aggressive flush ticker — must be bit-identical to the
// single-plant batch protocol (AnalyzeViews). Batching changes message
// granularity, never results.
func TestRunFleetBatchedParityScenarios(t *testing.T) {
	exp, res := fixture(t)
	scs := PaperScenarios(testOnsetHour)

	golden := make(map[string]*core.Report, len(scs))
	for _, sc := range scs {
		golden[fmt.Sprintf("%s/00", sc.Key)] = res[sc.Key].Runs[0].Report
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
		reports, _ := runFleet(t, exp, scs, 1, fleet.Config{
			Workers: 2, EmitEvery: -1,
			Batch: cfg.batch, FlushEvery: cfg.flush,
		}, nil)
		if len(reports) != len(golden) {
			t.Fatalf("%s: %d reports, want %d", cfg.name, len(reports), len(golden))
		}
		for id, want := range golden {
			if got := reports[id]; !reflect.DeepEqual(got, want) {
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
	exp, _ := fixture(t)
	sc := SlowDriftScenario(testOnsetHour)
	run := func(batch int) (map[string]*core.Report, int) {
		swaps := 0
		reports, _ := runFleet(t, exp, []Scenario{sc}, 1, fleet.Config{
			EmitEvery: -1, Batch: batch,
			Adapt: adapt.Options{Enabled: true, Every: 256, Forget: 0.999},
		}, func(ev fleet.Event) {
			if _, ok := ev.(fleet.ModelSwapped); ok {
				swaps++
			}
		})
		return reports, swaps
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

// TestRunFleetAdaptive: fleet-wide adaptation end to end — the merged
// event stream carries well-formed per-plant ModelSwapped events and the
// drift run still ends Normal. One stream keeps the shared tracker's
// learning order deterministic (concurrent multi-stream adaptation is
// covered by the engine-level -race stress test, where verdict statistics
// are controlled by per-stream seeds).
func TestRunFleetAdaptive(t *testing.T) {
	exp, _ := fixture(t)
	sc := SlowDriftScenario(testOnsetHour)
	swapPlants := map[string]int{}
	reports, stats := runFleet(t, exp, []Scenario{sc}, 1, fleet.Config{
		EmitEvery: -1,
		Adapt:     adapt.Options{Enabled: true, Every: 256, Forget: 0.999},
	}, func(ev fleet.Event) {
		if s, ok := ev.(fleet.ModelSwapped); ok {
			swapPlants[s.Plant]++
			if s.Swap.Generation == 0 || s.Swap.D99 <= 0 || s.Swap.Q99 <= 0 {
				t.Errorf("malformed swap event: %+v", s)
			}
		}
	})
	if len(reports) != 1 {
		t.Fatalf("reports: %d", len(reports))
	}
	for id, rep := range reports {
		if rep.Verdict != core.VerdictNormal {
			t.Errorf("%s: verdict %v (%s)", id, rep.Verdict, rep.Explanation)
		}
	}
	if len(swapPlants) == 0 {
		t.Error("no plant ever swapped models")
	}
	if stats.ModelSwaps == 0 || stats.ModelGeneration == 0 {
		t.Errorf("fleet stats show no adaptation: %+v", stats)
	}
}

// TestRunFleetAdaptiveVetoParity is the scenario half of the swap-parity
// golden test: a pool with adaptation configured but every candidate
// vetoed must produce a report bit-identical to the frozen-model run of
// the same seed, and must emit no ModelSwapped events.
func TestRunFleetAdaptiveVetoParity(t *testing.T) {
	exp, _ := fixture(t)
	scs := PaperScenarios(testOnsetHour)[1:2] // integrity on XMV(3)

	frozen, _ := runFleet(t, exp, scs, 1, fleet.Config{EmitEvery: -1}, nil)
	adaptive, _ := runFleet(t, exp, scs, 1, fleet.Config{
		EmitEvery: -1,
		Adapt: adapt.Options{
			Enabled: true, Every: 64, Forget: 1.0,
			MinWeight: 1, MinExplainedVar: 2, // always veto
		},
	}, func(ev fleet.Event) {
		if s, ok := ev.(fleet.ModelSwapped); ok {
			t.Errorf("always-veto stream swapped: %+v", s)
		}
	})
	if !reflect.DeepEqual(frozen, adaptive) {
		t.Errorf("vetoed-adaptive report differs from frozen:\nfrozen:   %+v\nadaptive: %+v", frozen, adaptive)
	}
	for id, rep := range frozen {
		if rep.Verdict != core.VerdictIntegrityAttack {
			t.Errorf("%s: golden verdict %v (%s)", id, rep.Verdict, rep.Explanation)
		}
	}
}
