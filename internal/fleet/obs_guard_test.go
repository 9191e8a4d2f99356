package fleet

import (
	"sort"
	"testing"
	"time"

	"pcsmon/internal/obs"
)

// TestMetricsThroughputBudget is the regression backstop for the
// observability budget: instrumented scoring (latency histogram, batch
// occupancy, per-unit health stores) must cost at most 1.5x the bare
// pool's per-observation time. The paired median this test measures is
// 1.12–1.27x (20 runs, single rounds 0.96–1.40x, on a 2-vCPU Xeon), and
// wall-clock on shared CI is noisy, so the 1.5x bound only trips on a
// gross regression (a lock or allocation sneaking onto the hot path shows
// up as 2x). The precise numbers come from comparing
// BenchmarkFleetThroughput against BenchmarkFleetThroughputMetrics with
// benchstat; the hard zero-alloc guarantee lives in
// TestSteadyStateZeroAllocPerObservation/metrics.
func TestMetricsThroughputBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the ratio")
	}
	sys := testSystem(t)
	ctrl, proc := plantRows(51, 1, 0, 0, 0)
	run := func(mkCfg func() Config) float64 {
		const rows = 4096
		r := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				// A fresh registry per pool: series register once per pool
				// lifetime, exactly as one process-wide registry serves one
				// pool.
				cfg := mkCfg()
				cfg.Workers, cfg.Batch, cfg.FlushEvery, cfg.EmitEvery, cfg.Sample = 1, 16, -1, -1, time.Second
				p, err := NewPool(sys, cfg)
				if err != nil {
					b.Fatal(err)
				}
				drained := make(chan struct{})
				go func() {
					for ev := range p.Events() {
						p.Recycle(ev)
					}
					close(drained)
				}()
				st, err := p.Attach("hot", 0)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for i := 0; i < rows; i++ {
					if err := st.Push(ctrl[0], proc[0]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if _, err := st.Detach(); err != nil {
					b.Fatal(err)
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
				<-drained
			}
		})
		return float64(r.NsPerOp()) / rows
	}
	// Pair the two paths round by round, alternating which goes first, and
	// judge the median of the per-round ratios: a load burst from a
	// concurrently running test package inflates one path of one or two
	// rounds, which moves those rounds' ratios but not the median.
	const rounds = 5
	bareCfg := func() Config { return Config{} }
	meteredCfg := func() Config {
		return Config{Metrics: obs.NewRegistry(), Health: obs.NewHealthRegistry()}
	}
	ratios := make([]float64, rounds)
	for round := range ratios {
		var bare, instrumented float64
		if round%2 == 0 {
			bare = run(bareCfg)
			instrumented = run(meteredCfg)
		} else {
			instrumented = run(meteredCfg)
			bare = run(bareCfg)
		}
		if bare <= 0 || instrumented <= 0 {
			t.Fatalf("degenerate measurement: bare %.0f, instrumented %.0f", bare, instrumented)
		}
		ratios[round] = instrumented / bare
		t.Logf("round %d: bare %.0f ns/obs, instrumented %.0f ns/obs (%.2fx)",
			round, bare, instrumented, ratios[round])
	}
	sort.Float64s(ratios)
	ratio := ratios[rounds/2]
	t.Logf("median ratio %.2fx (rounds %.2f..%.2fx)", ratio, ratios[0], ratios[rounds-1])
	if ratio > 1.5 {
		t.Errorf("instrumented scoring costs %.2fx the bare path, want at most 1.5x (measured 1.12-1.27x)", ratio)
	}
}
