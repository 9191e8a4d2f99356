package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"pcsmon"
	"pcsmon/internal/obs"
	"pcsmon/internal/obs/opsserver"
)

// startOps starts the CSV fleet's ops HTTP server: Prometheus exposition
// on /metrics, liveness + stall detection on /healthz, the per-unit
// health dump on /status and the net/http/pprof pages. An unusable
// address is a configuration error, reported before any scoring starts.
// (Frame-fed runs get the same endpoints from their control plane.)
func startOps(cmd, addr string, metrics *obs.Registry, health *obs.HealthRegistry,
	totals func() map[string]float64, lastActivity func() time.Time, out io.Writer) (*opsserver.Server, error) {
	srv, err := opsserver.Start(addr, opsserver.Options{
		Metrics:      metrics,
		Health:       health,
		Totals:       totals,
		LastActivity: lastActivity,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: -metrics %s: %v: %w", cmd, addr, err, pcsmon.ErrBadConfig)
	}
	fmt.Fprintf(out, "ops listening on %s (/metrics /healthz /status /debug/pprof/)\n", srv.URL())
	return srv, nil
}

// startStatsTicker prints a progress line from the live /status totals
// every interval — the -stats-every fix for the "counters only visible at
// exit" staleness. Returns a stop function; a zero interval is a no-op.
func startStatsTicker(interval time.Duration, totals func() map[string]float64, out io.Writer) func() {
	if interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				m := totals()
				if len(m) == 0 {
					continue
				}
				line := fmt.Sprintf("stats: %.0f active, %.0f obs, %.0f alarms, %.0f obs/sec",
					m["fleet_active_streams"], m["fleet_observations"], m["fleet_alarms"], m["fleet_obs_per_sec"])
				if frames, ok := m["pairing_frames"]; ok {
					line += fmt.Sprintf(", pairing %.0f frames (loss %.2f%%)", frames, 100*m["pairing_loss_ratio"])
				}
				fmt.Fprintln(out, line)
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}
