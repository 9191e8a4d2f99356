package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// replayRate is the paced replay's offered rate in observations per second.
const (
	replayRate      = 32000
	replayEvery     = 8   // -every thinning of the paced run's scored lines
	replayWarmup    = 0.2 // seconds of a paced pass without latency samples
	replayPaced     = 5   // paced passes per run
	replayMinPasses = 3   // unpaced passes per run, at least
)

// replayPass is one mspctool replay process, measured from outside.
type replayPass struct {
	setup     float64 // process start → "replaying" line
	obsPerS   float64 // observations ÷ ("replaying" line → closing summary line)
	cpuPerObs float64 // µs of utime+stime after ready, per observation
	rss       float64 // MB, peak
	latency   []latSample
	out       *replayOutput
	steal     float64 // host steal share during the pass

	// Scraped gauges (only with ops enabled).
	scrapeMs               []float64
	pendingMax, mailboxMax float64
	batchFill              float64
}

// runReplay measures the replay workload: replayPaced paced passes for
// latency, then unpaced passes (at least replayMinPasses) until the run's
// seconds are spent. Every pass's reports go through the oracle and the
// ledger.
func (r *runState) runReplay() error {
	want, err := reference(r.in, r.sys, r.cfg, r.in.UnitRows)
	if err != nil {
		return err
	}
	r.noteReference(want)
	total := r.in.totalRows()
	check := func(p *replayPass) {
		r.res.Attempted += total
		failed, skip := failures(r.in.UnitRows, p.out.Samples, nil)
		r.res.Failed += failed
		r.bad = append(r.bad, compareReports(want, p.out.Reports, skip)...)
		pc := p.out.Pairing
		if p.out.Frames != 2*total || p.out.Observations != total || pc[0] != 2*total || pc[1] != total {
			r.bad = append(r.bad, fmt.Sprintf("replay ledger: %d frames, %d observations, pairing %v; want %d frames, %d paired observations",
				p.out.Frames, p.out.Observations, pc, 2*total, total))
		}
		if pc[2] != 0 || pc[5] != 0 || pc[7] != 0 {
			r.bad = append(r.bad, fmt.Sprintf("replay ledger: orphans %d, gap obs %d, stale %d on a clean capture", pc[2], pc[5], pc[7]))
		}
	}

	if r.opts.trace {
		p, err := r.replayOnce(false, true)
		if err != nil {
			return err
		}
		check(p)
		r.e2eCPU = p.cpuPerObs
		r.set("fleet.batch_fill", p.batchFill, "obs")
		r.set("fleet.mailbox_depth_max", p.mailboxMax, "count")
		r.set("pairing.pending_frames_max", p.pendingMax, "count")
		r.set("opsserver.scrape_ms", median(p.scrapeMs), "ms")
		// No SSE subscriber and no load generator on this workload.
		r.set("control.sse_dropped", 0, "count")
		r.set("gen.lag_p99_ms", 0, "ms")
		r.note("replay has no SSE stream and no generator: control.sse_dropped and gen.lag_p99_ms are n/a (0); control.drain_ms is the in-process plane's drain")
		paced, err := r.replayOnce(true, false)
		if err != nil {
			return err
		}
		check(paced)
		p99, n := windowedPercentile(paced.latency, replayWarmup, window, 0.99, 1000)
		if n == 0 {
			r.bad = append(r.bad, fmt.Sprintf("%d latency samples: no window supports a p99", len(paced.latency)))
		}
		r.set("latency_p99_ms", p99, "ms")
		return nil
	}

	// As for the socket workloads, each figure but setup_s is the best
	// pass's.
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	var setups, p50s, p99s, pacedSteal []float64
	samples, windows := 0, 0
	for i := 0; i < replayPaced; i++ {
		paced, err := r.replayOnce(true, false)
		if err != nil {
			return err
		}
		check(paced)
		setups = append(setups, paced.setup)
		p99, n := windowedPercentile(paced.latency, replayWarmup, window, 0.99, 1000)
		if n == 0 {
			r.bad = append(r.bad, fmt.Sprintf("%d latency samples: no window supports a p99", len(paced.latency)))
		}
		p50, _ := windowedPercentile(paced.latency, replayWarmup, window, 0.5, 1000)
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		pacedSteal = append(pacedSteal, paced.steal)
		samples += len(paced.latency)
		windows += n
	}
	var rates, cpus, rss, steal []float64
	for len(rates) < replayMinPasses || time.Now().Before(deadline) {
		p, err := r.replayOnce(false, false)
		if err != nil {
			return err
		}
		check(p)
		setups = append(setups, p.setup)
		rates = append(rates, p.obsPerS)
		cpus = append(cpus, p.cpuPerObs)
		rss = append(rss, p.rss)
		steal = append(steal, p.steal)
	}
	r.note("%d paced passes at %d obs/s: %d latency samples (every %d), p99 = median over passes of each pass's median one-second-window p99 (%d windows); %d unpaced passes of %d observations; setup samples %v",
		replayPaced, replayRate, samples, replayEvery, windows, len(rates), total, setups)
	r.set("setup_s", median(setups), "s")
	r.note("paced p99 %v, steal %v; unpaced obs/s %v, steal %v", p99s, pacedSteal, rates, steal)
	r.set("obs_per_s", best(rates, true), "1/s")
	r.set("latency_p50_ms", best(p50s, false), "ms")
	r.set("cpu_us_per_obs", best(cpus, false), "us")
	r.set("rss_peak_mb", best(rss, false), "MB")
	return nil
}

// replayOnce runs mspctool replay over the workload's capture chain,
// paced at replayRate (printing every replayEvery-th score) or unpaced,
// optionally with its ops endpoint scraped while it runs.
func (r *runState) replayOnce(paced, ops bool) (*replayPass, error) {
	units := len(r.in.UnitRows)
	// Capture time per observation is sample/units (see captureStamp).
	speed := replayRate * sampleSeconds / float64(units)
	args := append([]string{"replay"}, replayFlags(r.cfg)...)
	args = append(args, "-capture", r.rp.capture)
	if paced {
		args = append(args, "-speed", fmt.Sprint(speed), "-every", fmt.Sprint(replayEvery))
	}
	if ops {
		args = append(args, "-metrics", "127.0.0.1:0")
	}
	meter := startSteal()
	c, err := startChild("mspctool replay", r.opts.mspctool, args...)
	if err != nil {
		return nil, err
	}
	p := &replayPass{}
	var scrapeWG sync.WaitGroup
	stopScrape := make(chan struct{})
	if ops {
		l, err := c.waitLine("ops listening on ", 60*time.Second)
		if err != nil {
			return nil, err
		}
		url, _, _ := strings.Cut(strings.TrimPrefix(l.text, "ops listening on "), " ")
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			p.scrape(url, stopScrape)
		}()
	}
	ready, err := c.waitLine("replaying ", 120*time.Second)
	if err != nil {
		close(stopScrape)
		scrapeWG.Wait()
		return nil, err
	}
	p.setup = ready.at.Sub(c.start).Seconds()
	cpuAtReady, cpuErr := procCPU(c.cmd.Process.Pid)
	st, err := c.wait(150 * time.Second)
	close(stopScrape)
	scrapeWG.Wait()
	if err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, fmt.Errorf("replay exited before its CPU could be read: %w", cpuErr)
	}
	cpu, rss := cpuTime(st), c.peakRSSMB()
	p.steal = meter.share()
	lines := c.snapshot()
	texts := make([]string, len(lines))
	var summaryAt time.Time
	for i, l := range lines {
		texts[i] = l.text
		if strings.HasPrefix(l.text, "replay: ") {
			summaryAt = l.at
		}
	}
	if p.out, err = parseReplayReports(strings.NewReader(strings.Join(texts, "\n"))); err != nil {
		return nil, err
	}
	if p.out.Observations == 0 || summaryAt.IsZero() {
		return nil, fmt.Errorf("replay printed no summary: %s", c.tail())
	}
	obs := float64(p.out.Observations)
	p.obsPerS = obs / summaryAt.Sub(ready.at).Seconds()
	p.cpuPerObs = (cpu - cpuAtReady).Seconds() * 1e6 / obs
	p.rss = rss

	if paced {
		// Due time of unit u's observation i: the replay's wall start plus
		// the capture stamp compressed by -speed. The replay starts its
		// clock right after printing its "replaying" line; that line's
		// receipt stands in for it unless a score arrived before its due
		// time relative to it — then the line was read late, and the
		// earliest such arrival bounds the start instead.
		all := make([]int, units)
		for u := range all {
			all[u] = u
		}
		g := map[[2]int]int{}
		for k, o := range r.in.order(all, 0) {
			g[o] = k
		}
		type arrival struct {
			at     time.Time
			offset time.Duration // due time after the wall start
		}
		var arrivals []arrival
		start := ready.at
		for _, l := range lines {
			id, idx, ok := parseScoredLine(l.text)
			if !ok {
				continue
			}
			u, err := unitNumber(id)
			if err != nil {
				return nil, err
			}
			k, ok := g[[2]int{u, idx}]
			if !ok {
				return nil, fmt.Errorf("replay scored %s obs %d, never recorded", id, idx)
			}
			a := arrival{at: l.at, offset: time.Duration(float64(captureStamp(k, units)) / speed)}
			if due := start.Add(a.offset); a.at.Before(due) {
				start = a.at.Add(-a.offset)
			}
			arrivals = append(arrivals, a)
		}
		for _, a := range arrivals {
			p.latency = append(p.latency, latSample{Due: a.offset.Seconds(), Ms: float64(a.at.Sub(start.Add(a.offset)).Microseconds()) / 1000})
		}
	}
	return p, nil
}

// scrape polls the replay's /metrics until stop closes.
func (p *replayPass) scrape(url string, stop <-chan struct{}) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		t := time.Now()
		body, err := httpGet(context.Background(), client, url+"/metrics")
		if err != nil {
			continue // the replay may already be gone
		}
		ms := float64(time.Since(t).Microseconds()) / 1000
		samples, err := parseProm(strings.NewReader(string(body)))
		if err != nil {
			continue
		}
		p.scrapeMs = append(p.scrapeMs, ms)
		if v, ok := promMax(samples, "pcsmon_pairing_pending_frames"); ok && v > p.pendingMax {
			p.pendingMax = v
		}
		if v, ok := promMax(samples, "pcsmon_fleet_mailbox_depth"); ok && v > p.mailboxMax {
			p.mailboxMax = v
		}
		sum, ok1 := promSum(samples, "pcsmon_fleet_batch_occupancy_observations_sum")
		cnt, ok2 := promSum(samples, "pcsmon_fleet_batch_occupancy_observations_count")
		if ok1 && ok2 && cnt > 0 {
			p.batchFill = sum / cnt
		}
	}
}
