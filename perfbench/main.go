// Command perfbench is the repository's end-to-end benchmark: it runs the
// real service (mspctool serve, or mspctool replay) from outside, drives
// it with a separate load generator process over loopback sockets, reads
// results back through the service's own APIs (SSE /events, /status,
// /metrics, stdout), checks every unit's verdict against the batch
// analysis, and prints the metrics as one JSON line.
//
//	bash perfbench/run.sh --workload tcp-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead: one service run
// for the scraped layer gauges, then an in-process stage runner that feeds
// the same generated frames through each layer's public functions, traced
// and untraced.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/fieldbus"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the benchmark's command-line settings.
type options struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	mspctool string
	workdir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGenerator(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(1)
		}
		return
	}
	code := run()
	killAll()
	os.Exit(code)
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tcp-steady, udp-redundant-record or replay-attack-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a traced run")
	mspctool := fs.String("mspctool", "", "mspctool binary built from this checkout")
	workdir := fs.String("workdir", ".bench_build/runs", "scratch directory for run inputs and outputs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *mspctool == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of tcp-steady, udp-redundant-record, replay-attack-mix), -mspctool and --seconds >= 1\n")
		return 2
	}
	opts := options{workload: w, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, mspctool: *mspctool, workdir: *workdir}
	res, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runState is one workload run in progress.
type runState struct {
	opts  options
	w     *workload
	rp    runPaths
	in    *inputs
	sys   *core.System
	cfg   *control.Config
	res   *result
	notes []string // run-record lines
	bad   []string // correctness failures
	// e2eCPU is the service CPU µs per observation of the traced run's
	// service part: the denominator of stage_gap_ratio.
	e2eCPU float64
}

func (r *runState) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runState) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func runWorkload(opts options) (*result, error) {
	w := opts.workload
	dir, err := filepath.Abs(filepath.Join(opts.workdir, fmt.Sprintf("%s-%d-%d", w.name, opts.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	r := &runState{opts: opts, w: w, rp: newRunPaths(dir), res: &result{Metrics: map[string]metric{}}}

	// Inputs first; nothing before this point is timed.
	if r.in, r.sys, err = generate(w, opts.seed, r.rp); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	if r.cfg, err = control.Load(r.rp.config); err != nil {
		return nil, err
	}
	// Hand generation's garbage back before any child starts.
	debug.FreeOSMemory()
	r.note("host: nproc=%d cpu=%q go=%s GOMAXPROCS=%d", runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0))
	r.note("workload %s seed %d: %d units (%d with a §V anomaly), %d observations generated, onset obs %d, sample %v",
		w.name, opts.seed, w.units, w.anomalous, r.in.totalRows(), r.cfg.OnsetIndex(), r.cfg.Sample())

	switch w.transport {
	case "tcp", "udp":
		err = r.runSocket()
	case "replay":
		err = r.runReplay()
	}
	if err != nil {
		return nil, err
	}

	if opts.trace {
		if err := r.runTraced(); err != nil {
			return nil, err
		}
	}
	r.res.Correct = len(r.bad) == 0
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, b := range r.bad {
		fmt.Println("# MISMATCH " + b)
		fmt.Fprintln(os.Stderr, "perfbench: "+b)
	}
	return r.res, nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Socket workload load shape. A run is the workload's passes — service
// processes, each loaded from its own first observation — plus starts that
// only time set-up, setupSamples in all. Other tenants of a shared host
// steal CPU in bursts lasting seconds, and interference only ever makes a
// pass slower: each figure but setup_s is the best pass's (see best).
const (
	tcpRate      = 10000 // obs/s of tcp-steady's fixed-rate phase
	tcpRateShare = 0.5   // share of a pass at the fixed rate; the rest is flat out
	udpRate      = 4000  // obs/s of udp-redundant-record's open loop
	setupSamples = 5
	// Latency and throughput are medians over one-second windows.
	window = 1.0
)

// socketPass is what one loaded service process measured.
type socketPass struct {
	obsPerS, p50, p99, cpuPerObs, rss, setup float64
}

// runSocket measures a serve workload: setupOnly starts for set-up time
// alone, then the workload's loaded passes (one in a traced run).
func (r *runState) runSocket() error {
	var setups []float64
	passes := r.w.passes
	if r.opts.trace {
		passes = 1
	} else {
		for i := passes; i < setupSamples; i++ {
			s, err := r.startServe()
			if err != nil {
				return err
			}
			setups = append(setups, s.setup.Seconds())
			if _, err := s.stop(60 * time.Second); err != nil {
				return err
			}
		}
	}
	var ps []socketPass
	for i := 0; i < passes; i++ {
		p, err := r.socketPass(i)
		if err != nil {
			return err
		}
		ps = append(ps, *p)
		setups = append(setups, p.setup)
	}
	if r.opts.trace {
		return nil
	}
	pick := func(higher bool, f func(socketPass) float64) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, f(p))
		}
		return best(xs, higher)
	}
	r.note("setup samples %v", setups)
	r.set("setup_s", median(setups), "s")
	r.set("obs_per_s", pick(true, func(p socketPass) float64 { return p.obsPerS }), "1/s")
	r.set("latency_p50_ms", pick(false, func(p socketPass) float64 { return p.p50 }), "ms")
	r.set("cpu_us_per_obs", pick(false, func(p socketPass) float64 { return p.cpuPerObs }), "us")
	r.set("rss_peak_mb", pick(false, func(p socketPass) float64 { return p.rss }), "MB")
	return nil
}

// socketPass starts one service process, loads it from the generator
// process, and checks its outputs and ledger.
func (r *runState) socketPass(i int) (*socketPass, error) {
	s, err := r.startServe()
	if err != nil {
		return nil, err
	}
	meter := startSteal()
	secs := r.opts.seconds / float64(r.w.passes)
	plan := genPlan{
		Transport: r.w.transport,
		Pool:      r.rp.pool,
		Ingest:    s.ingest,
		Ops:       s.opsURL,
		Out:       filepath.Join(r.rp.dir, fmt.Sprintf("gen-%d.json", i)),
	}
	if r.w.transport == "tcp" {
		plan.Rate, plan.RateSecs, plan.FlatSecs = tcpRate, secs*tcpRateShare, secs*(1-tcpRateShare)
	} else {
		plan.Rate, plan.RateSecs = udpRate, secs
	}
	plan.Warmup = r.w.warmup
	planPath := filepath.Join(r.rp.dir, fmt.Sprintf("plan-%d.json", i))
	data, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	gen, err := startChild("generator", self, "gen", "-plan", planPath)
	if err != nil {
		return nil, err
	}
	if _, err := gen.wait(150 * time.Second); err != nil {
		return nil, err
	}
	st, err := s.wait(60 * time.Second)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime(st)
	steal := meter.share()
	var g genResult
	if data, err = os.ReadFile(plan.Out); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, err
	}

	// Ledger, failures and the verdict oracle.
	l := ledger{SentFrames: g.SentFrames, Recorded: -1, Reliable: r.w.transport == "tcp"}
	for _, n := range g.SentObs {
		l.SentObs += uint64(n)
	}
	ledgerFromStatus(&l, g.Status)
	if r.w.record {
		n, err := chainFrames(r.rp.record)
		if err != nil {
			return nil, err
		}
		l.Recorded = int64(n)
	}
	r.bad = append(r.bad, l.check()...)
	failed, skip := failures(g.SentObs, serveUnitSamples(s.texts()), g.Drops)
	want, err := reference(r.in, r.sys, r.cfg, g.SentObs)
	if err != nil {
		return nil, err
	}
	r.bad = append(r.bad, compareReports(want, g.Verdicts, skip)...)
	r.res.Attempted += int(l.SentObs)
	r.res.Failed += failed
	r.noteReference(want)
	r.note("pass %d ledger: sent %d obs / %d frames; received %d (accepted %d + deduped %d); paired %d, orphaned %d, scored %d; recorded %d; lost obs %d; failed units %d",
		i, l.SentObs, l.SentFrames, l.received(), l.Accepted, l.Deduped, l.Paired, l.Orphans, l.FleetObs, l.Recorded, l.lost(), len(skip))
	if r.w.transport == "udp" {
		// Serve mode registers no pcsmon_transport_* counters, so datagram
		// loss is the ledger's sent-minus-received.
		r.note("pass %d udp loss (from the ledger): %d of %d datagrams", i, l.SentFrames-min(l.SentFrames, l.received()), l.SentFrames)
	}

	p := &socketPass{
		obsPerS:   g.RateScored / g.RateSeconds,
		cpuPerObs: (cpu - s.cpuAtReady).Seconds() * 1e6 / float64(l.FleetObs),
		rss:       s.peakRSSMB(),
		setup:     s.setup.Seconds(),
	}
	if r.w.transport == "tcp" {
		var n int
		p.obsPerS, n = windowedRate(g.FlatTrace, window)
		r.note("pass %d tcp flat-out: %.0f observations scored in %.3fs; obs_per_s is the median of %d one-second windows", i, g.FlatScored, g.FlatSeconds, n)
		if n == 0 {
			r.bad = append(r.bad, "flat-out phase shorter than one window")
		}
	}
	var windows int
	p.p50, _ = windowedPercentile(g.Latency, plan.Warmup, window, 0.5, 1000)
	p.p99, windows = windowedPercentile(g.Latency, plan.Warmup, window, 0.99, 1000)
	r.note("pass %d offered %d obs/s for %.1fs (first %.2fs warm-up, unsampled); %d latency samples, p50 %.3f ms and p99 %.3f ms = medians over %d one-second windows of >= 1000 samples; obs_per_s %.0f; cpu_us_per_obs %.3f; gen.lag_p99_ms %.3f; sse dropped %g; host steal %.1f%%",
		i, int(plan.Rate), plan.RateSecs, plan.Warmup, len(g.Latency), p.p50, p.p99, windows, p.obsPerS, p.cpuPerObs, percentile(g.LagMs, 0.99), g.Status["control_events_dropped"], 100*steal)
	if windows == 0 {
		r.bad = append(r.bad, fmt.Sprintf("%d latency samples: no window supports a p99", len(g.Latency)))
	}
	if r.opts.trace {
		r.e2eCPU = p.cpuPerObs
		r.set("fleet.batch_fill", g.BatchFill, "obs")
		r.set("fleet.mailbox_depth_max", g.MailboxMax, "count")
		r.set("pairing.pending_frames_max", g.PendingMax, "count")
		r.set("control.drain_ms", g.DrainMs, "ms")
		r.set("control.sse_dropped", g.Status["control_events_dropped"], "count")
		r.set("opsserver.scrape_ms", median(g.ScrapeMs), "ms")
		r.set("gen.lag_p99_ms", percentile(g.LagMs, 0.99), "ms")
		r.set("latency_p99_ms", p.p99, "ms")
	}
	return p, nil
}

// startServe starts the service on a fresh, empty record directory.
func (r *runState) startServe() (*served, error) {
	if r.w.record {
		dir := filepath.Dir(r.rp.record)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return startServe(r.opts.mspctool, r.rp.config)
}

// noteReference records the reference verdict histogram and checks that
// the mix exercises the diagnosis path.
func (r *runState) noteReference(want map[string]unitReport) {
	h := verdictHistogram(want)
	keys := make([]string, 0, len(h))
	alarmed := 0
	for k, n := range h {
		keys = append(keys, fmt.Sprintf("%s=%d", k, n))
		if k != "normal" {
			alarmed += n
		}
	}
	sort.Strings(keys)
	r.note("reference verdicts: %s", strings.Join(keys, " "))
	if alarmed == 0 {
		r.bad = append(r.bad, "reference mix has no alarmed unit")
	}
}

// chainFrames reads a recorded capture chain back and counts its frames.
func chainFrames(base string) (uint64, error) {
	cr, err := fieldbus.OpenCaptureChain(base, fieldbus.ChainOptions{})
	if err != nil {
		return 0, err
	}
	defer func() { _ = cr.Close() }()
	n := uint64(0)
	for {
		_, _, err := cr.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
