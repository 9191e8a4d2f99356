package fleet

import (
	"fmt"
	"strconv"

	"pcsmon/internal/obs"
)

// registerObs wires the pool into the configured metrics registry and health
// registry. The aggregate counters are exported as scrape-time closures over
// the atomics the pool already maintains — the scoring path pays nothing for
// them. Only the scoring-latency and batch-occupancy histograms are recorded
// hot, and both are alloc-free by construction; each worker buffers its
// scoring latencies and flushes them once per batch.
func (p *Pool) registerObs() error {
	p.health = p.cfg.Health
	r := p.cfg.Metrics
	if r == nil {
		return nil
	}
	counters := []struct {
		name, help string
		fn         func() float64
	}{
		{"pcsmon_fleet_observations_total", "Observations scored across all streams.",
			func() float64 { return float64(p.observations.Load()) }},
		{"pcsmon_fleet_alarms_total", "Run-rule detections across all streams and views.",
			func() float64 { return float64(p.alarms.Load()) }},
		{"pcsmon_fleet_verdicts_total", "Completed (detached) streams.",
			func() float64 { return float64(p.verdicts.Load()) }},
		{"pcsmon_fleet_attached_total", "Streams ever attached.",
			func() float64 { return float64(p.attached.Load()) }},
		{"pcsmon_fleet_model_swaps_total", "Per-stream model migrations (adaptive pools).",
			func() float64 { return float64(p.modelSwaps.Load()) }},
	}
	for _, c := range counters {
		if err := r.CounterFunc(c.name, c.help, c.fn); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	gauges := []struct {
		name, help string
		fn         func() float64
	}{
		{"pcsmon_fleet_active_streams", "Currently attached streams.",
			func() float64 { return float64(p.active()) }},
		{"pcsmon_fleet_model_generation", "Current adaptive model generation.",
			func() float64 {
				if p.tracker == nil {
					return 0
				}
				return float64(p.tracker.Generation())
			}},
	}
	for _, g := range gauges {
		if err := r.GaugeFunc(g.name, g.help, g.fn); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	for i, w := range p.workers {
		w := w
		err := r.GaugeFunc("pcsmon_fleet_mailbox_depth",
			"Queued mailbox messages per worker (each carries up to Batch observations).",
			func() float64 { return float64(len(w.in)) },
			obs.Label{Key: "worker", Value: strconv.Itoa(i)})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	scoreLatency, err := r.Histogram("pcsmon_fleet_scoring_latency_seconds",
		"Per-observation scoring latency: analyzer push + adaptive step, timed from the previous observation's end in the same batch (or the batch start).",
		obs.ExpBuckets(1e-6, 4, 12))
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	for _, w := range p.workers {
		w.lat = scoreLatency.Buffer()
	}
	p.batchOcc, err = r.Histogram("pcsmon_fleet_batch_occupancy_observations",
		"Observations per delivered mailbox batch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if p.tracker != nil {
		adaptCounters := []struct {
			name, help string
			fn         func() float64
		}{
			{"pcsmon_adapt_learned_total", "In-control observations absorbed by the recalibration buffer.",
				func() float64 { return float64(p.tracker.Stats().Learned) }},
			{"pcsmon_adapt_rejected_total", "Observations the learn guard refused.",
				func() float64 { return float64(p.tracker.Stats().Rejected) }},
			{"pcsmon_adapt_refits_total", "Candidate model refits attempted.",
				func() float64 { return float64(p.tracker.Stats().Refits) }},
			{"pcsmon_adapt_accepted_total", "Candidate models accepted as new generations.",
				func() float64 { return float64(p.tracker.Stats().Accepted) }},
			{"pcsmon_adapt_vetoes_total", "Candidate models vetoed by the drift guard.",
				func() float64 { return float64(p.tracker.Stats().Vetoes) }},
		}
		for _, c := range adaptCounters {
			if err := r.CounterFunc(c.name, c.help, c.fn); err != nil {
				return fmt.Errorf("fleet: %w", err)
			}
		}
	}
	return nil
}
