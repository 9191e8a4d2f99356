package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/fleet"
	"pcsmon/internal/historian"
	"pcsmon/internal/obs"
)

// runFleet implements the fleet subcommand: one calibrated model scoring
// many interleaved plant streams through the fleet scoring pool.
//
// Three ingestion modes share the pool:
//
//   - CSV (default): stdin carries interleaved rows "plant,<53 vars>" —
//     the first column keys the stream, the rest is a single-view
//     observation (used for both views, like watch without -proc).
//   - TCP (-listen): length-prefixed fieldbus frames, paired into
//     two-view observations: a sensor frame carries the controller-view
//     row and an actuator frame the process-view row of observation
//     (unit, seq), scored as one cross-view observation of plant
//     "unit-<Unit>". Frames may arrive out of order within -pair-window
//     sequence numbers (or -pair-timeout of wall clock); a view that goes
//     silent is scored hold-last-value and reported as DoS-consistent
//     frame loss instead of silently downgrading to single-view
//     monitoring. Sensor-only feeds keep working as single-view streams.
//   - UDP (-listen-udp): one frame per datagram — the genuinely lossy
//     transport. Whatever the network loses, reorders or duplicates turns
//     into typed pairing accounting; a corrupt datagram is counted and
//     dropped. Both listeners may run at once (two taps, one correlator).
//
// Every mode maps the flags onto one serve-mode config
// (internal/control): CSV mode runs the scoring pool and event log that
// config gives a control plane, and the two frame modes run the plane
// itself; the subcommand only decides when the feed is over: after -max-obs
// observations (distinct (unit, seq) pairs seen, plus a short grace for
// the final mate frame) or -idle without traffic. With -record, every
// received frame is appended to a capture segment chain at
// <path>.NNNNN.pcscap for later analysis or `mspctool replay`; the
// -record-segment-* / -record-keep-* flags bound it, and -record-flush
// caps what a SIGKILL can lose. With -dedup N, content-identical frames
// arriving more than once within a sliding N-frame window (two redundant
// collectors tapping the same wire) are suppressed before pairing.
//
// Plants attach lazily on first sight; at end of input every stream is
// detached and its classified report summarized, followed by the pool's
// aggregate counters.
func runFleet(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("mspctool fleet", flag.ContinueOnError)
	var (
		calPath     = fs.String("cal", "", "NOC calibration CSV (required)")
		sampleSec   = fs.Float64("sample", 4.5, "observation interval of the monitored streams [s]")
		onsetHour   = fs.Float64("onset-hour", 0, "hour the anomaly was injected, if known (applies to every plant)")
		components  = fs.Int("components", 0, "PCA components (0 = 90% cumulative variance rule)")
		workers     = fs.Int("workers", 0, "scoring workers (0 = GOMAXPROCS)")
		every       = fs.Int("every", -1, "print chart statistics every N observations per plant (-1 = alarms only)")
		adaptEvery  = fs.Int("adapt-every", 0, "refit the shared model every N in-control observations (0 = frozen model)")
		adaptForget = fs.Float64("adapt-forget", 0, "EWMA forget factor in (0,1] for adaptive refits (0 = default 0.999)")
		listen      = fs.String("listen", "", "accept fieldbus frames on this TCP address instead of reading CSV from stdin")
		listenUDP   = fs.String("listen-udp", "", "accept one fieldbus frame per datagram on this UDP address (lossy transport)")
		record      = fs.String("record", "", "live mode: append every received frame to a capture segment chain at <path>.NNNNN.pcscap (replay with `mspctool replay -capture <path>`)")
		recSegBytes = fs.Int64("record-segment-bytes", 0, "rotate -record segments at this many bytes (0 = 64 MiB)")
		recSegSpan  = fs.Duration("record-segment-span", 0, "rotate -record segments when one covers this much capture time (0 = no time rotation)")
		recKeep     = fs.Int("record-keep", 0, "keep at most this many -record segments, oldest pruned (0 = unlimited)")
		recKeepB    = fs.Int64("record-keep-bytes", 0, "bound the -record chain's total size in bytes, oldest segments pruned (0 = unlimited)")
		recKeepAge  = fs.Duration("record-keep-age", 0, "prune -record segments more than this much capture time behind the newest record (0 = unlimited)")
		recFlush    = fs.Duration("record-flush", time.Second, "crash-durability flush cadence of the -record writer (< 0 = flush only at the end)")
		maxObs      = fs.Int64("max-obs", 0, "live mode: stop after this many observations (0 = rely on -idle)")
		idle        = fs.Duration("idle", 5*time.Second, "live mode: stop after this long without traffic")
		pairWindow  = fs.Int("pair-window", 64, "live mode: reorder window for sensor/actuator frame pairing, in sequence numbers")
		pairTimeout = fs.Duration("pair-timeout", 2*time.Second, "live mode: flush observations whose mate frame is this late (0 = never)")
		dedup       = fs.Int("dedup", 0, "live mode: suppress content-identical frames seen within the last N frames (redundant collectors; 0 = off)")
		batch       = fs.Int("batch", 0, "observations aggregated per worker delivery (0 = default 16, 1 = per-observation)")
		metricsAddr = fs.String("metrics", "", "serve the ops endpoints (/metrics /healthz /status /debug/pprof/; live mode adds the control API) on this address while the fleet runs")
		statsEvery  = fs.Duration("stats-every", 0, "print a live progress line with the fleet/pairing counters on this cadence (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The event consumer and the ingest paths write concurrently.
	out = &syncWriter{w: out}
	if *calPath == "" {
		fs.Usage()
		return fmt.Errorf("mspctool fleet: -cal is required: %w", pcsmon.ErrBadConfig)
	}
	live := *listen != "" || *listenUDP != ""
	// Validate the flags up front (wrapped ErrBadConfig) so a bad
	// invocation fails before calibration. Live mode leaves the rest to
	// the plane's config validation, which also runs before calibration.
	if err := modelFlags("mspctool fleet", *sampleSec, *onsetHour, *components); err != nil {
		return err
	}
	switch {
	case *workers < 0:
		return fmt.Errorf("mspctool fleet: -workers %d must be >= 0: %w", *workers, pcsmon.ErrBadConfig)
	case *batch < 0:
		return fmt.Errorf("mspctool fleet: -batch %d must be >= 0: %w", *batch, pcsmon.ErrBadConfig)
	case *statsEvery < 0:
		return fmt.Errorf("mspctool fleet: -stats-every %v must be >= 0: %w", *statsEvery, pcsmon.ErrBadConfig)
	case *maxObs < 0:
		return fmt.Errorf("mspctool fleet: -max-obs %d must be >= 0: %w", *maxObs, pcsmon.ErrBadConfig)
	case *idle <= 0:
		return fmt.Errorf("mspctool fleet: -idle %v must be positive: %w", *idle, pcsmon.ErrBadConfig)
	case *pairWindow <= 0:
		return fmt.Errorf("mspctool fleet: -pair-window %d must be positive: %w", *pairWindow, pcsmon.ErrBadConfig)
	case *pairTimeout < 0:
		return fmt.Errorf("mspctool fleet: -pair-timeout %v must be >= 0: %w", *pairTimeout, pcsmon.ErrBadConfig)
	case !live && liveFlagSet(fs):
		return fmt.Errorf("mspctool fleet: -record*/-dedup/-max-obs/-idle/-pair-window/-pair-timeout only apply with -listen/-listen-udp: %w", pcsmon.ErrBadConfig)
	}
	adaptive, err := adaptiveFlags(fs, "mspctool fleet", *adaptEvery, *adaptForget)
	if err != nil {
		return err
	}
	cfg := &control.Config{
		Calibration:   *calPath,
		SampleSeconds: *sampleSec,
		OnsetHour:     *onsetHour,
		Components:    *components,
		Listeners:     control.Listeners{TCP: *listen, UDP: *listenUDP},
		Ops:           control.Ops{Addr: *metricsAddr},
		Pairing:       pairingConfig(*pairWindow, *pairTimeout, *dedup),
		Fleet:         control.FleetCfg{Workers: *workers, Batch: *batch, EmitEvery: max(*every, 0)},
		Adapt:         control.Adapt{Every: adaptive.Every, Forget: adaptive.Forget},
		Record: control.Record{
			Path:               *record,
			SegmentBytes:       *recSegBytes,
			SegmentSpanSeconds: recSegSpan.Seconds(),
			Keep:               *recKeep,
			KeepBytes:          *recKeepB,
			KeepAgeSeconds:     recKeepAge.Seconds(),
			FlushSeconds:       recFlush.Seconds(),
		},
	}
	if live {
		return runFleetLive(cfg, *every, *maxObs, *idle, *statsEvery, out)
	}
	return runFleetCSV(cfg, *every, *statsEvery, in, out)
}

// runFleetCSV runs CSV mode on the scoring pool a plane would build from
// cfg, logging its events the way the plane does. The ops listener binds
// before calibration so an unusable -metrics address fails up front; its
// totals fill in once the pool exists.
func runFleetCSV(cfg *control.Config, every int, statsEvery time.Duration, in io.Reader, out io.Writer) error {
	var fl atomic.Pointer[fleet.Pool]
	totals := func() map[string]float64 {
		m := map[string]float64{}
		if pool := fl.Load(); pool != nil {
			pool.Stats().AddTotals(m)
		}
		return m
	}
	pc := cfg.PoolConfig()
	var lastSeen atomic.Int64 // /healthz stall probe
	lastSeen.Store(time.Now().UnixNano())
	if cfg.Ops.Addr != "" {
		pc.Metrics, pc.Health = obs.NewRegistry(), obs.NewHealthRegistry()
		ops, err := startOps("mspctool fleet", cfg.Ops.Addr, pc.Metrics, pc.Health, totals,
			func() time.Time { return time.Unix(0, lastSeen.Load()) }, out)
		if err != nil {
			return err
		}
		defer func() { _ = ops.Close() }()
	}
	sys, err := control.Calibrate(cfg.Calibration, cfg.Components, out)
	if err != nil {
		return err
	}
	pool, err := fleet.NewPool(sys, pc)
	if err != nil {
		return fmt.Errorf("mspctool fleet: %w", err)
	}
	fl.Store(pool)
	stopStats := startStatsTicker(statsEvery, totals, out)
	defer stopStats()

	// The single consumer of the pool's events: live alarm and swap lines,
	// plus the per-plant summary.
	v := newVerdicts(every, out)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range pool.Events() {
			control.LogEvent(out, ev)
			v.event(ev)
			pool.Recycle(ev)
		}
	}()
	fail := func(err error) error {
		_ = pool.Close()
		<-consumed
		return err
	}

	// Push each single-view observation, attaching the plant on first
	// sight.
	stream, err := newCSVStream(in, true)
	if err != nil {
		return fail(err)
	}
	onset := cfg.OnsetIndex()
	streams := map[string]*fleet.Stream{}
	for {
		plant, row, err := stream.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		st := streams[plant]
		if st == nil {
			if st, err = pool.Attach(plant, onset); err != nil {
				return fail(err)
			}
			streams[plant] = st
			fmt.Fprintf(out, "plant %s attached\n", plant)
		}
		lastSeen.Store(time.Now().UnixNano())
		if err := st.Push(row, row); err != nil {
			return fail(err)
		}
	}
	// Detach everything (events deliver the verdicts), then report.
	ids := make([]string, 0, len(streams))
	for id := range streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := streams[id].Detach(); err != nil {
			return fail(err)
		}
	}
	if err := pool.Close(); err != nil {
		return err
	}
	<-consumed
	v.print()
	printFleetSummary(out, totals())
	return nil
}

// runFleetLive runs the frame modes on a control plane until the feed is
// over, then drains it and prints the per-plant summary.
func runFleetLive(cfg *control.Config, every int, maxObs int64, idle, statsEvery time.Duration, out io.Writer) error {
	v := newVerdicts(every, out)
	p, err := control.New(cfg, control.Options{Out: out, OnEvent: v.event})
	if err != nil {
		return fmt.Errorf("mspctool fleet: %w", err)
	}
	stopStats := startStatsTicker(statsEvery, p.Totals, out)
	awaitFeed(p, maxObs, idle)
	stopStats()
	if err := p.Close(); err != nil {
		return fmt.Errorf("mspctool fleet: %w", err)
	}
	v.print()
	printFleetSummary(out, p.Totals())
	return nil
}

// awaitFeed returns once the live feed is over: maxObs observations seen
// (when set), no traffic for idle — counted from startup, so a listener
// nobody connects to also ends — or a drain through the plane's API.
func awaitFeed(p *control.Plane, maxObs int64, idle time.Duration) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	frames, lastFrame := p.Accepted(), time.Now()
	var capped time.Time
	for {
		select {
		case <-p.Drained():
			return
		case now := <-tick.C:
			if n := p.Accepted(); n != frames {
				frames, lastFrame = n, now
				if capped.IsZero() && maxObs > 0 && int64(p.Totals()["pairing_observations"]) >= maxObs {
					capped = now
				}
			}
			// The cap fires on the first frame of the final observation;
			// its mate gets a quiet period (at most 1 s) to land, so the
			// last observation is paired instead of nondeterministically
			// orphaned.
			if !capped.IsZero() && (now.Sub(lastFrame) >= 100*time.Millisecond || now.Sub(capped) >= time.Second) {
				return
			}
			if now.Sub(lastFrame) > idle {
				return
			}
		}
	}
}

// pairingConfig maps the -pair-window/-pair-timeout/-dedup flags onto the
// plane's pairing block (-pair-timeout 0 = never).
func pairingConfig(window int, timeout time.Duration, dedup int) control.Pairing {
	secs := timeout.Seconds()
	if timeout == 0 {
		secs = -1
	}
	return control.Pairing{Window: window, TimeoutSeconds: secs, Dedup: dedup}
}

// syncWriter serializes writes to the command's output: the event
// consumer and the ingest callbacks (attach lines, view stalls) write
// concurrently, and the caller's writer need not be thread-safe.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// liveFlagSet reports whether a live-mode-only flag was given explicitly.
func liveFlagSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "record", "record-segment-bytes", "record-segment-span", "record-keep",
			"record-keep-bytes", "record-keep-age", "record-flush",
			"max-obs", "idle", "pair-window", "pair-timeout", "dedup":
			set = true
		}
	})
	return set
}

// verdicts consumes a scoring pool's events for the command's summary: it
// prints the -every score lines and keeps each plant's final report.
// Shared by the fleet and replay subcommands; its event method runs on the
// single event consumer and retains nothing of the event.
type verdicts struct {
	every   int
	out     io.Writer
	reports map[string]*core.Report
	samples map[string]int
}

func newVerdicts(every int, out io.Writer) *verdicts {
	return &verdicts{every: every, out: out, reports: map[string]*core.Report{}, samples: map[string]int{}}
}

func (v *verdicts) event(ev fleet.Event) {
	switch e := ev.(type) {
	case *fleet.Scored:
		if v.every > 0 {
			s := core.ScoredEvent(e.Step)
			fmt.Fprintf(v.out, "[%s] obs %6d  ctrl D=%8.2f Q=%8.2f\n", e.Plant, s.Index, s.CtrlD, s.CtrlQ)
		}
	case fleet.Verdict:
		v.reports[e.Plant] = e.Report
		v.samples[e.Plant] = e.Samples
	}
}

// print summarizes every detached plant's classified report, in plant
// order. Call it once the event stream is done.
func (v *verdicts) print() {
	ids := make([]string, 0, len(v.reports))
	for id := range v.reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintln(v.out)
	for _, id := range ids {
		rep := v.reports[id]
		if rep == nil {
			fmt.Fprintf(v.out, "plant %s: no verdict\n", id)
			continue
		}
		fmt.Fprintf(v.out, "plant %s: %s after %d observations", id, rep.Verdict, v.samples[id])
		if rep.AttackedVar >= 0 {
			fmt.Fprintf(v.out, " (channel %s)", historian.VarName(rep.AttackedVar))
		}
		fmt.Fprintf(v.out, "\n  %s\n", rep.Explanation)
	}
}

// printFleetSummary renders the closing aggregate line from the /status
// totals.
func printFleetSummary(out io.Writer, t map[string]float64) {
	fmt.Fprintf(out, "\nfleet: %.0f plants, %.0f observations, %.0f alarms, %.0f obs/sec\n",
		t["fleet_attached"], t["fleet_observations"], t["fleet_alarms"], t["fleet_obs_per_sec"])
}
