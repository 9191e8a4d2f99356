package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pcsmon/internal/fieldbus"
)

// genPlan tells the generator process what to send where. The benchmark
// writes it as JSON; the generator loads the inputs from the pool file.
type genPlan struct {
	Transport string  // "tcp" or "udp"
	Pool      string  // pool.gob written by the benchmark process
	Ingest    string  // host:port of the service's ingest listener
	Ops       string  // base URL of the service's ops listener
	Rate      float64 // observations per second of the fixed-rate phase
	RateSecs  float64 // length of the fixed-rate phase
	FlatSecs  float64 // length of the flat-out phase (tcp only)
	// Warmup is the opening stretch of the fixed-rate phase whose
	// observations are sent but carry no latency sample: first-sight unit
	// attachment and the service's lazy set-up land there.
	Warmup float64
	Out    string // where the generator writes its genResult
}

// genResult is what the generator measured and read back from the service.
type genResult struct {
	SentObs    []int  // per unit: observations sent (rows 0..n-1)
	SentFrames uint64 // frames (datagrams) put on the wire, copies included

	Latency []latSample // due time → receipt of the scored SSE event
	LagMs   []float64   // how late each fixed-rate observation was sent

	// Flat-out phase (tcp): observations scored during it, the time from
	// its start until the service had scored every observation sent, and
	// the scored-observation counter polled along the way.
	FlatScored  float64
	FlatSeconds float64
	FlatTrace   []progress
	// RateScored/RateSeconds: the same for the fixed-rate phase.
	RateScored  float64
	RateSeconds float64

	Verdicts   map[string]unitReport
	Drops      map[string][]string // unit → pair-dropped kinds
	Scored     int                 // scored events received
	Status     map[string]float64  // /status totals after the load, before drain
	ScrapeMs   []float64           // GET /metrics round trips under load
	PendingMax float64             // max pcsmon_pairing_pending_frames seen
	MailboxMax float64             // max pcsmon_fleet_mailbox_depth seen
	BatchFill  float64             // batch occupancy histogram sum/count
	DrainMs    float64             // POST /drain round trip
}

// latSample is one latency sample: the observation's due time (seconds
// after the schedule origin) and its latency.
type latSample struct {
	Due, Ms float64
}

// progress is one poll of the service's scored-observation counter.
type progress struct {
	T float64 // seconds since the phase started
	N float64
}

// runGenerator is the load generator process: it opens the SSE stream,
// drives the fixed-rate (and for tcp the flat-out) phase over loopback
// sockets, waits until the service has scored everything, scrapes the
// ledger, drains the service and collects the final verdicts.
func runGenerator(args []string) error {
	fs := flag.NewFlagSet("perfbench gen", flag.ContinueOnError)
	planPath := fs.String("plan", "", "generator plan (JSON)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*planPath)
	if err != nil {
		return err
	}
	var plan genPlan
	if err := json.Unmarshal(data, &plan); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	in, err := readInputs(plan.Pool)
	if err != nil {
		return err
	}
	// Collect the input decoding's garbage now, then collect only past a
	// memory limit: a collection during the load would show up as
	// generator lag, not as service latency.
	runtime.GC()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(512 << 20)
	g := &generator{plan: plan, in: in, res: &genResult{
		Verdicts: map[string]unitReport{},
		Drops:    map[string][]string{},
	}}
	if err := g.run(); err != nil {
		return err
	}
	out, err := json.Marshal(g.res)
	if err != nil {
		return err
	}
	return os.WriteFile(plan.Out, out, 0o644)
}

type generator struct {
	plan genPlan
	in   *inputs
	res  *genResult

	// due[u][i] is observation i of unit u's due time in ns after t0 (-1
	// when it carries no latency sample). Written before t0 is published,
	// read-only afterwards.
	due [][]int64
	t0  atomic.Int64 // UnixNano of the schedule origin, 0 until set
	// lastEvent is the UnixNano receipt time of the latest SSE event.
	lastEvent atomic.Int64

	mu sync.Mutex // guards res fields the SSE goroutine fills

	scrape *http.Client
}

func (g *generator) run() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.scrape = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}

	// SSE first: every verdict must be observed.
	sseDone := make(chan error, 1)
	ready := make(chan struct{})
	go func() { sseDone <- g.readSSE(ctx, ready) }()
	select {
	case <-ready:
	case err := <-sseDone:
		return fmt.Errorf("sse: %w", err)
	case <-time.After(30 * time.Second):
		return errors.New("sse: no connection within 30s")
	}
	// The bus registers the subscriber just after the ": connected"
	// comment is flushed; give it a moment before the first event.
	time.Sleep(100 * time.Millisecond)

	// Attach every unit through the control API before the first frame, so
	// first-sight attachment does not stall the opening of the schedule.
	for u, n := range g.in.UnitRows {
		if n > 0 {
			if err := g.post(fmt.Sprintf("%s/units/%d/attach", g.plan.Ops, u)); err != nil {
				return fmt.Errorf("attach unit %d: %w", u, err)
			}
		}
	}

	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		g.scrapeLoop(ctx, stopScrape)
	}()

	var err error
	switch g.plan.Transport {
	case "tcp":
		err = g.runTCP(ctx)
	case "udp":
		err = g.runUDP(ctx)
	default:
		err = fmt.Errorf("unknown transport %q", g.plan.Transport)
	}
	close(stopScrape)
	<-scrapeDone
	if err != nil {
		return err
	}
	// Final scrape: histogram state and the ledger, before drain.
	if err := g.scrapeOnce(ctx); err != nil {
		return err
	}
	if g.res.Status, err = g.status(ctx); err != nil {
		return err
	}

	if err := g.drain(); err != nil {
		return err
	}
	select {
	case err := <-sseDone:
		if err != nil {
			return fmt.Errorf("sse: %w", err)
		}
	case <-time.After(60 * time.Second):
		return errors.New("sse stream did not end after drain")
	}
	return nil
}

// drain finalizes every unit and then the whole plane through the
// control API, timing both. Units are drained one by one first because
// serve closes its ops listener right after a whole-plane drain and can
// cut the SSE stream before the last verdict events are flushed; per-unit
// drains publish each verdict while the listener is certainly up.
func (g *generator) drain() error {
	// Let the SSE subscriber's queue empty first, so a backlog of scored
	// events cannot crowd the verdicts out of it.
	for quiet := time.Now().Add(5 * time.Second); time.Now().Before(quiet); time.Sleep(20 * time.Millisecond) {
		if time.Since(time.Unix(0, g.lastEvent.Load())) > 200*time.Millisecond {
			break
		}
	}
	start := time.Now()
	want := 0
	for u, n := range g.res.SentObs {
		if n == 0 {
			continue
		}
		want++
		if err := g.post(fmt.Sprintf("%s/units/%d/drain", g.plan.Ops, u)); err != nil {
			return fmt.Errorf("drain unit %d: %w", u, err)
		}
	}
	// The wait for the verdict events is not part of DrainMs.
	waited := time.Now()
	for deadline := waited.Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		g.mu.Lock()
		got := len(g.res.Verdicts)
		g.mu.Unlock()
		if got >= want || time.Now().After(deadline) {
			break
		}
	}
	start = start.Add(time.Since(waited))
	// serve exits once the plane drain completes and may close the ops
	// listener before the response is written: a connection closed without
	// a response also ends the round trip. The SSE stream ending confirms
	// the drain finished.
	err := g.post(g.plan.Ops + "/drain")
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		return fmt.Errorf("drain: %w", err)
	}
	g.res.DrainMs = float64(time.Since(start).Microseconds()) / 1000
	return nil
}

// post sends an empty POST and fails on any status but 200.
func (g *generator) post(url string) error {
	resp, err := g.scrape.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

// readSSE consumes /events until the service closes the stream at the end
// of its drain.
func (g *generator) readSSE(ctx context.Context, ready chan<- struct{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.plan.Ops+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /events: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(first, ": connected") {
		return fmt.Errorf("unexpected SSE preamble %q: %v", first, err)
	}
	close(ready)
	sr := newSSEReader(br)
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		now := time.Now().UnixNano()
		g.lastEvent.Store(now)
		switch ev.Type {
		case "scored":
			idx, err := scoredIndex(ev.Data)
			if err != nil {
				return err
			}
			u, err := unitNumber(ev.Unit)
			if err != nil {
				return err
			}
			g.mu.Lock()
			g.res.Scored++
			if t0 := g.t0.Load(); t0 != 0 && u < len(g.due) && idx < len(g.due[u]) && g.due[u][idx] >= 0 {
				d := g.due[u][idx]
				g.res.Latency = append(g.res.Latency, latSample{Due: float64(d) / 1e9, Ms: float64(now-t0-d) / 1e6})
			}
			g.mu.Unlock()
		case "verdict":
			var rep unitReport
			if err := json.Unmarshal(ev.Data, &rep); err != nil {
				return err
			}
			g.mu.Lock()
			g.res.Verdicts[ev.Unit] = rep
			g.mu.Unlock()
		case "pair-dropped":
			var d pairDrop
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return err
			}
			g.mu.Lock()
			g.res.Drops[ev.Unit] = append(g.res.Drops[ev.Unit], d.Kind)
			g.mu.Unlock()
		}
	}
}

// unitNumber parses a plant id ("unit-007") into its fieldbus unit.
func unitNumber(id string) (int, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "unit-"))
	if err != nil || n < 0 || n > 255 {
		return 0, fmt.Errorf("bad unit id %q", id)
	}
	return n, nil
}

// scrapeEvery paces the /metrics scrapes under load. A scrape costs the
// service a few milliseconds, so it is kept rare enough not to set the
// latency percentiles it is measured alongside.
const scrapeEvery = time.Second

func (g *generator) scrapeLoop(ctx context.Context, stop <-chan struct{}) {
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			_ = g.scrapeOnce(ctx) // a failed scrape only loses one sample
		}
	}
}

// scrapeOnce times one GET /metrics and folds its gauges into the maxima.
func (g *generator) scrapeOnce(ctx context.Context) error {
	t := time.Now()
	body, err := httpGet(ctx, g.scrape, g.plan.Ops+"/metrics")
	if err != nil {
		return err
	}
	ms := float64(time.Since(t).Microseconds()) / 1000
	samples, err := parseProm(strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.res.ScrapeMs = append(g.res.ScrapeMs, ms)
	if v, ok := promMax(samples, "pcsmon_pairing_pending_frames"); ok && v > g.res.PendingMax {
		g.res.PendingMax = v
	}
	if v, ok := promMax(samples, "pcsmon_fleet_mailbox_depth"); ok && v > g.res.MailboxMax {
		g.res.MailboxMax = v
	}
	sum, ok1 := promSum(samples, "pcsmon_fleet_batch_occupancy_observations_sum")
	cnt, ok2 := promSum(samples, "pcsmon_fleet_batch_occupancy_observations_count")
	if ok1 && ok2 && cnt > 0 {
		g.res.BatchFill = sum / cnt
	}
	return nil
}

// status reads the aggregate totals of GET /status.
func (g *generator) status(ctx context.Context) (map[string]float64, error) {
	body, err := httpGet(ctx, g.scrape, g.plan.Ops+"/status")
	if err != nil {
		return nil, err
	}
	var st statusDoc
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/status: %w", err)
	}
	return st.Totals, nil
}

// fleetObservations reads the service's scored-observation counter.
func (g *generator) fleetObservations(ctx context.Context) (float64, error) {
	totals, err := g.status(ctx)
	return totals["fleet_observations"], err
}

// waitScored polls /status until the service has scored want observations
// and returns when that happened. A shortfall after the timeout is not an
// error: the ledger turns it into failed operations.
func (g *generator) waitScored(ctx context.Context, want float64, timeout time.Duration) (time.Time, float64, error) {
	deadline := time.Now().Add(timeout)
	for {
		n, err := g.fleetObservations(ctx)
		if err != nil {
			return time.Time{}, 0, err
		}
		if n >= want || time.Now().After(deadline) {
			return time.Now(), n, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pace sleeps until the schedule's due instant.
func pace(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}

// runTCP sends every unit's both views over two connections, each carrying
// half the units: first at the fixed rate, then flat out under TCP
// back-pressure until the phase ends or the streams run out.
func (g *generator) runTCP(ctx context.Context) error {
	in := g.in
	units := len(in.UnitRows)
	var orders [2][][2]int
	for c := 0; c < 2; c++ {
		var mine []int
		for u := c; u < units; u += 2 {
			mine = append(mine, u)
		}
		orders[c] = in.order(mine, 0)
	}
	perConn := g.plan.Rate / 2
	nRate := int(perConn * g.plan.RateSecs)
	g.due = make([][]int64, units)
	for u := range g.due {
		g.due[u] = make([]int64, in.UnitRows[u])
		for i := range g.due[u] {
			g.due[u][i] = -1
		}
	}
	for c := 0; c < 2; c++ {
		for k, p := range orders[c] {
			if k >= nRate {
				break
			}
			if d := float64(k) / perConn; d >= g.plan.Warmup {
				g.due[p[0]][p[1]] = int64(d * 1e9)
			}
		}
	}
	conns := make([]net.Conn, 2)
	for c := range conns {
		conn, err := net.Dial("tcp", g.plan.Ingest)
		if err != nil {
			return err
		}
		defer func() { _ = conn.Close() }()
		conns[c] = conn
	}

	t0 := time.Now().Add(20 * time.Millisecond)
	flatStart := t0.Add(time.Duration(g.plan.RateSecs * float64(time.Second)))
	flatEnd := flatStart.Add(time.Duration(g.plan.FlatSecs * float64(time.Second)))
	g.t0.Store(t0.UnixNano())

	type connResult struct {
		n     int // observations sent
		nRate int
		lag   []float64
		err   error
	}
	results := make([]connResult, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			bw := bufio.NewWriterSize(conns[c], 64<<10)
			var f fieldbus.Frame
			var buf []byte
			order := orders[c]
			send := func(p [2]int) error {
				for view := 0; view < 2; view++ {
					in.frame(p[0], p[1], view, &f)
					var err error
					if buf, err = fieldbus.WriteFrameBuf(bw, &f, buf); err != nil {
						return err
					}
				}
				return nil
			}
			k := 0
			for ; k < nRate && k < len(order); k++ {
				due := t0.Add(time.Duration(float64(k) / perConn * float64(time.Second)))
				if time.Now().Before(due) {
					if r.err = bw.Flush(); r.err != nil {
						return
					}
					pace(due)
				}
				r.lag = append(r.lag, float64(time.Since(due).Microseconds())/1000)
				if r.err = send(order[k]); r.err != nil {
					return
				}
			}
			if r.err = bw.Flush(); r.err != nil {
				return
			}
			r.nRate = k
			pace(flatStart)
			for ; k < len(order); k++ {
				if k%64 == 0 && time.Now().After(flatEnd) {
					break
				}
				if r.err = send(order[k]); r.err != nil {
					return
				}
			}
			r.err = bw.Flush()
			r.n = k
		}(c)
	}
	// Baseline of the flat-out phase: everything sent at the fixed rate has
	// been scored by the time it starts.
	pace(flatStart.Add(-5 * time.Millisecond))
	rateTotal := float64(min(nRate, len(orders[0])) + min(nRate, len(orders[1])))
	rateDone, rateScored, err := g.waitScored(ctx, rateTotal, 10*time.Second)
	if err != nil {
		return err
	}
	g.res.RateScored = rateScored
	g.res.RateSeconds = rateDone.Sub(t0).Seconds()
	// Poll the scored counter through the flat-out phase.
	sendersDone := make(chan struct{})
	flatTrace := make(chan []progress, 1)
	go func() {
		var trace []progress
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sendersDone:
				flatTrace <- trace
				return
			case <-tick.C:
				if n, err := g.fleetObservations(ctx); err == nil {
					trace = append(trace, progress{T: time.Since(flatStart).Seconds(), N: n})
				}
			}
		}
	}()
	wg.Wait()
	close(sendersDone)
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
	}
	g.res.SentObs = make([]int, units)
	total := 0
	for c := 0; c < 2; c++ {
		for _, p := range orders[c][:results[c].n] {
			g.res.SentObs[p[0]] = p[1] + 1
		}
		total += results[c].n
		g.res.LagMs = append(g.res.LagMs, results[c].lag...)
	}
	g.res.SentFrames = uint64(2 * total)
	done, scored, err := g.waitScored(ctx, float64(total), 30*time.Second)
	if err != nil {
		return err
	}
	g.res.FlatTrace = append(g.res.FlatTrace, <-flatTrace...)
	g.res.FlatScored = scored - rateScored
	g.res.FlatSeconds = done.Sub(flatStart).Seconds()
	return nil
}

// udpSched is the udp-redundant-record send schedule: the first n
// observations of the round-robin stream, cut into blocks of two
// observations per unit. Each collector socket sends every frame of a
// block once, in its own seeded order, one frame per slot, so frames
// arrive reordered within the pairing window and the two copies of a
// frame arrive apart.
type udpSched struct {
	order [][2]int
	block int        // observations per block
	perms [2][][]int // per collector, per block: slot → frame of the block
	gap   float64    // seconds between slots
}

func udpSchedule(in *inputs, rate, secs float64) *udpSched {
	units := len(in.UnitRows)
	all := make([]int, units)
	for u := range all {
		all[u] = u
	}
	order := in.order(all, 0)
	block := 2 * units
	n := min(int(rate*secs), len(order)) / block * block
	s := &udpSched{order: order[:n], block: block, gap: 1 / (2 * rate)}
	rng := rand.New(rand.NewPCG(uint64(in.Seed), 0xd06))
	for b := 0; b < n/block; b++ {
		for c := 0; c < 2; c++ {
			s.perms[c] = append(s.perms[c], rng.Perm(2*block))
		}
	}
	return s
}

// slots is the number of send slots (each sends one frame per collector).
func (s *udpSched) slots() int { return 2 * len(s.order) }

// frameAt names the frame collector c sends in slot k.
func (s *udpSched) frameAt(c, k int) (u, i, view int) {
	b, slot := k/(2*s.block), k%(2*s.block)
	fr := s.perms[c][b][slot]
	p := s.order[b*s.block+fr/2]
	return p[0], p[1], fr % 2
}

// slotTime is slot k's due time after the schedule origin.
func (s *udpSched) slotTime(k int) time.Duration {
	return time.Duration(float64(k) * s.gap * float64(time.Second))
}

// dueTimes gives each observation's due time in ns: the slot at which the
// later of its two frames was first sent by either collector.
func (s *udpSched) dueTimes(units int, rows []int) [][]int64 {
	due := make([][]int64, units)
	for u := range due {
		due[u] = make([]int64, rows[u])
		for i := range due[u] {
			due[u][i] = -1
		}
	}
	for b := 0; b < len(s.order)/s.block; b++ {
		first := make([]int, 2*s.block) // frame → earliest slot over collectors
		for i := range first {
			first[i] = 1 << 30
		}
		for c := 0; c < 2; c++ {
			for slot, fr := range s.perms[c][b] {
				first[fr] = min(first[fr], slot)
			}
		}
		for o := 0; o < s.block; o++ {
			p := s.order[b*s.block+o]
			k := b*2*s.block + max(first[2*o], first[2*o+1])
			due[p[0]][p[1]] = int64(s.slotTime(k))
		}
	}
	return due
}

// runUDP sends the udpSched stream over two collector sockets at one
// fixed rate.
func (g *generator) runUDP(ctx context.Context) error {
	in := g.in
	units := len(in.UnitRows)
	s := udpSchedule(in, g.plan.Rate, g.plan.RateSecs)
	g.due = s.dueTimes(units, in.UnitRows)
	for u := range g.due {
		for i, d := range g.due[u] {
			if d >= 0 && float64(d) < g.plan.Warmup*1e9 {
				g.due[u][i] = -1
			}
		}
	}

	var socks [2]*net.UDPConn
	addr, err := net.ResolveUDPAddr("udp", g.plan.Ingest)
	if err != nil {
		return err
	}
	for c := range socks {
		conn, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			return err
		}
		defer func() { _ = conn.Close() }()
		socks[c] = conn
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	g.t0.Store(t0.UnixNano())
	var f fieldbus.Frame
	var buf []byte
	for k := 0; k < s.slots(); k++ {
		due := t0.Add(s.slotTime(k))
		pace(due)
		g.res.LagMs = append(g.res.LagMs, float64(time.Since(due).Microseconds())/1000)
		for c := 0; c < 2; c++ {
			u, i, view := s.frameAt(c, k)
			in.frame(u, i, view, &f)
			if buf, err = f.MarshalTo(buf); err != nil {
				return err
			}
			if _, err := socks[c].Write(buf); err != nil {
				return err
			}
		}
	}
	g.res.SentFrames = uint64(2 * s.slots())
	g.res.SentObs = make([]int, units)
	for _, p := range s.order {
		g.res.SentObs[p[0]] = p[1] + 1
	}
	done, scored, err := g.waitScored(ctx, float64(len(s.order)), 15*time.Second)
	if err != nil {
		return err
	}
	g.res.RateScored = scored
	g.res.RateSeconds = done.Sub(t0).Seconds()
	return nil
}
