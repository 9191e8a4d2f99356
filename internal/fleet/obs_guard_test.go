package fleet

import (
	"math"
	"testing"
	"time"

	"pcsmon/internal/obs"
)

// TestMetricsThroughputBudget is the regression backstop for the
// observability budget: instrumented scoring (latency histogram, batch
// occupancy, per-unit health stores) must stay within a fraction of the
// bare pool's cost. The benchmarked overhead is a few percent — within the
// <5% budget recorded next to BENCH_fleet.json — but wall-clock on shared
// CI is noisy, so this guard only trips on a gross regression (a lock or
// allocation sneaking onto the hot path shows up as 2x, not 1.1x). The
// precise numbers come from comparing BenchmarkFleetThroughput against
// BenchmarkFleetThroughputMetrics with benchstat; the hard zero-alloc
// guarantee lives in TestSteadyStateZeroAllocPerObservation/metrics.
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
				if err := p.Attach("hot", 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for i := 0; i < rows; i++ {
					if err := p.Push("hot", ctrl[0], proc[0]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if _, err := p.Detach("hot"); err != nil {
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
	// Alternate the two paths and keep each one's fastest round: a load
	// burst from a concurrently running test package then inflates one
	// round of one path, not the ratio of the best runs.
	bare, instrumented := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		bare = math.Min(bare, run(func() Config { return Config{} }))
		instrumented = math.Min(instrumented, run(func() Config {
			return Config{Metrics: obs.NewRegistry(), Health: obs.NewHealthRegistry()}
		}))
	}
	ratio := instrumented / bare
	t.Logf("bare %.0f ns/obs, instrumented %.0f ns/obs (%.2fx)", bare, instrumented, ratio)
	if bare <= 0 || instrumented <= 0 {
		t.Fatalf("degenerate measurement: bare %.0f, instrumented %.0f", bare, instrumented)
	}
	if ratio > 1.5 {
		t.Errorf("instrumented scoring costs %.2fx the bare path, want gross parity (budget ~1.05x)", ratio)
	}
}
