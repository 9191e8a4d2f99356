package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/fleet"
	"pcsmon/internal/historian"
	"pcsmon/internal/obs"
	"pcsmon/internal/obs/opsserver"
	"pcsmon/internal/pairing"
)

// ErrDraining is returned by ingest entry points once a drain began.
var ErrDraining = errors.New("control: plane is draining")

// Options tunes New beyond the config file.
type Options struct {
	// Out receives the plane's log lines (nil = discard). The plane writes
	// from several goroutines: Out must be safe for concurrent use.
	Out io.Writer
	// System is a pre-calibrated monitoring system; nil calibrates from
	// Config.Calibration (the serve path). Tests share one calibration
	// across planes through this.
	System *core.System
	// ConfigPath, when set, is re-read on Reload(nil) — the SIGHUP path.
	ConfigPath string
	// Clock supplies the plane's notion of now (liveness stamps, pairing
	// arrival stamps and age horizon, flush cadence, health snapshots); nil
	// means the wall clock. Injected so tests can drive the timeline; with
	// a Capture source the capture's stamps advance it from its first
	// reading.
	Clock func() time.Time
	// Capture, when set, is the plane's frame source in place of the
	// listeners (leave Config.Listeners empty): the plane plays it to EOF
	// and then drains itself.
	Capture *Capture
	// OnEvent, when set, sees every scoring-pool event synchronously, in
	// order, on the plane's single event consumer — before the plane logs
	// and publishes it. It must not block, and must not retain the event:
	// the plane recycles it once the handlers are done.
	OnEvent func(fleet.Event)
}

// Capture is a recorded frame source: a capture chain played on its own
// timeline. Each frame is offered at its capture stamp — the plane's
// clock reads that stamp — and the pairing age horizon is ticked right
// after each observation frame, so pair timeouts keep meaning capture
// time at any speed-up. No wall-clock tick runs: it could orphan a mate
// the frame-by-frame order would still pair.
//
// The play runs in two stages: a reader goroutine decodes the chain ahead
// into a few fixed chunks while the pump offers the previous chunk's
// frames, so the read (I/O, CRC, decode) overlaps pairing and scoring.
// The pump still takes the frames one at a time in chain order.
type Capture struct {
	// Chain is read to EOF (the caller opens and closes it). The plane
	// reads it ahead of what it has played; the reader is done with the
	// chain once the plane has drained.
	Chain *fieldbus.ChainReader
	// Name describes the capture on the "replaying" line the plane prints
	// just before reading the first frame.
	Name string
	// Speed paces the replay: capture time elapsed / Speed = wall time
	// elapsed (0 = unpaced).
	Speed float64
}

// UnitReport is one unit's final classified report, kept after detach or
// drain and served from GET /units/{id}.
type UnitReport struct {
	Unit        string    `json:"unit"`
	Verdict     string    `json:"verdict"`
	AttackedVar int       `json:"attacked_var"`
	Explanation string    `json:"explanation"`
	DetachedAt  time.Time `json:"detached_at"`
}

// Plane is a running control plane: ingest listeners, the pairing →
// fleet scoring pipeline, the optional capture store, and the ops/control
// HTTP server. Create with New, stop with Drain (or Close, which also
// abandons the ops listener).
type Plane struct {
	opts  Options
	out   io.Writer
	clock func() time.Time

	cfgMu sync.Mutex
	cfg   *Config

	// metrics and healthReg are the ops registries (nil without ops.addr).
	metrics   *obs.Registry
	healthReg *obs.HealthRegistry
	fl        *fleet.Pool
	cor       *pairing.Correlator
	ops       *opsserver.Server

	dedupMu sync.Mutex // guards dedup (listener goroutines offer concurrently)
	dedup   *fieldbus.FrameDedup

	stateMu sync.Mutex // serializes attach/detach; see attachLocked
	// streams holds each attached unit's pool handle, indexed by fieldbus
	// unit. It changes only under stateMu; push loads it lock-free.
	streams [256]atomic.Pointer[fleet.Stream]
	// quiesced marks drained units, whose frames are dropped at the door
	// and on residual correlator outcomes. It changes only under stateMu;
	// lock-free reads keep stateMu off the per-frame path.
	quiesced      [256]atomic.Bool
	quiescedDrops atomic.Uint64

	tcp *fieldbus.Server
	udp *fieldbus.UDPServer

	recMu sync.Mutex
	rec   *fieldbus.CaptureStore

	bus *bus

	// unitOnsets is the reloadable per-unit onset table read at attach
	// (-1 = inherit the global onset).
	unitOnsets [256]atomic.Int64

	lastSeen atomic.Int64  // UnixNano of the last accepted frame
	capNow   atomic.Int64  // capture stamp of the frame being played
	played   atomic.Uint64 // capture frames the pump handed to offer
	playDone chan struct{}
	accepted atomic.Uint64
	rejected atomic.Uint64 // frames refused because a drain began
	reloads  atomic.Uint64

	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error
	drained   chan struct{}

	pumpDone chan struct{}

	repMu   sync.Mutex
	reports map[string]UnitReport
}

// New builds and starts a plane: calibrates (unless Options.System is
// given), binds the ops listener (when ops.addr is set) and the ingest
// listeners, and starts scoring — or, with Options.Capture, starts
// playing the capture. New checks field ranges, and requires calibration
// only when Options.System is nil; the serve document's other presence
// rules are Config.Validate's. On error nothing is left running.
func New(cfg *Config, opts Options) (*Plane, error) {
	if opts.System == nil && cfg.Calibration == "" {
		return nil, badField("calibration", "required without Options.System")
	}
	if err := cfg.validateFields(); err != nil {
		return nil, err
	}
	p := &Plane{
		opts:     opts,
		out:      opts.Out,
		cfg:      cfg,
		bus:      newBus(),
		drained:  make(chan struct{}),
		pumpDone: make(chan struct{}),
		reports:  map[string]UnitReport{},
	}
	if p.out == nil {
		p.out = io.Discard
	}
	p.clock = opts.Clock
	if p.clock == nil {
		p.clock = time.Now
	}
	if opts.Capture != nil {
		epoch := p.clock()
		p.clock = func() time.Time { return epoch.Add(time.Duration(p.capNow.Load())) }
		p.playDone = make(chan struct{})
	}
	p.setUnitOnsets(cfg)
	p.lastSeen.Store(p.clock().UnixNano())

	// The ops listener binds first so an unusable address fails before the
	// (expensive) calibration. Without one the plane builds no metrics or
	// health stack at all.
	if cfg.Ops.Addr != "" {
		p.metrics, p.healthReg = obs.NewRegistry(), obs.NewHealthRegistry()
		ops, err := opsserver.Start(cfg.Ops.Addr, opsserver.Options{
			Metrics:      p.metrics,
			Health:       p.healthReg,
			Totals:       p.Totals,
			LastActivity: func() time.Time { return time.Unix(0, p.lastSeen.Load()) },
			StallAfter:   cfg.StallHorizon(),
			AuthToken:    cfg.Ops.AuthToken,
			Extra: map[string]http.Handler{
				"/units/": http.HandlerFunc(p.handleUnits),
				"/config": http.HandlerFunc(p.handleConfig),
				"/reload": http.HandlerFunc(p.handleReload),
				"/drain":  http.HandlerFunc(p.handleDrain),
				"/events": http.HandlerFunc(p.handleEvents),
			},
		})
		if err != nil {
			return nil, fmt.Errorf("control: ops listener %s: %v: %w", cfg.Ops.Addr, err, ErrBadConfig)
		}
		p.ops = ops
		fmt.Fprintf(p.out, "ops listening on %s (/metrics /healthz /status /debug/pprof/ /units /drain /reload /events)\n", ops.URL())
	}
	fail := func(err error) (*Plane, error) {
		p.teardownPartial()
		return nil, err
	}

	sys := opts.System
	if sys == nil {
		var err error
		if sys, err = Calibrate(cfg.Calibration, cfg.Components, p.out); err != nil {
			return fail(err)
		}
	}

	pc := cfg.PoolConfig()
	pc.Metrics, pc.Health = p.metrics, p.healthReg
	fl, err := fleet.NewPool(sys, pc)
	if err != nil {
		return fail(fmt.Errorf("control: %w", err))
	}
	p.fl = fl
	go p.pump()

	if cfg.Pairing.Dedup > 0 {
		if p.dedup, err = fieldbus.NewFrameDedup(cfg.Pairing.Dedup); err != nil {
			return fail(fmt.Errorf("control: pairing.dedup: %w", err))
		}
	}
	p.cor, err = pairing.NewCorrelator(pairing.Config{
		Cols:       historian.NumVars,
		Window:     cfg.Pairing.Window,
		MaxAge:     cfg.PairTimeout(),
		StallAfter: cfg.Pairing.StallAfter,
		Clock:      p.clock,
	}, p.route)
	if err != nil {
		return fail(fmt.Errorf("control: pairing: %w", err))
	}

	if cfg.Record.Path != "" {
		st, err := fieldbus.OpenCaptureStore(cfg.Record.Path, fieldbus.StoreOptions{
			SegmentBytes: cfg.Record.SegmentBytes,
			SegmentSpan:  time.Duration(cfg.Record.SegmentSpanSeconds * float64(time.Second)),
			KeepSegments: cfg.Record.Keep,
			KeepBytes:    cfg.Record.KeepBytes,
			KeepAge:      time.Duration(cfg.Record.KeepAgeSeconds * float64(time.Second)),
			FlushEvery:   recordFlush(cfg),
		})
		if err != nil {
			return fail(fmt.Errorf("control: record.path: %w", err))
		}
		p.rec = st
	}

	if cfg.Listeners.TCP != "" {
		p.tcp, err = fieldbus.NewServer(cfg.Listeners.TCP, p.ingest)
		if err != nil {
			return fail(fmt.Errorf("control: listeners.tcp: %w", err))
		}
		fmt.Fprintf(p.out, "listening on %s\n", p.tcp.Addr())
	}
	if cfg.Listeners.UDP != "" {
		p.udp, err = fieldbus.NewUDPServer(cfg.Listeners.UDP, p.ingest)
		if err != nil {
			return fail(fmt.Errorf("control: listeners.udp: %w", err))
		}
		fmt.Fprintf(p.out, "listening on udp://%s\n", p.udp.Addr())
	}
	if p.metrics != nil {
		if err := p.registerTransport(p.metrics); err != nil {
			return fail(err)
		}
	}
	if p.ops != nil {
		fmt.Fprintf(p.out, "control plane up: ops %s\n", p.ops.URL())
	}

	if opts.Capture != nil {
		go p.play()
	} else {
		go p.tickLoop()
	}
	return p, nil
}

// teardownPartial unwinds a half-built plane on a New failure.
func (p *Plane) teardownPartial() {
	if p.tcp != nil {
		_ = p.tcp.Close()
	}
	if p.udp != nil {
		_ = p.udp.Close()
	}
	if p.rec != nil {
		p.rec.Abandon()
	}
	if p.fl != nil {
		_ = p.fl.Close()
		<-p.pumpDone
	}
	p.bus.close()
	if p.ops != nil {
		_ = p.ops.Close()
	}
}

// registerTransport exports the pairing, listener and capture store
// counters on the ops registry — scrape-time closures over state the
// layers already keep, so the ingest path pays nothing for them. The
// store closures take recMu: the store is not internally synchronized.
func (p *Plane) registerTransport(reg *obs.Registry) error {
	type series struct {
		name, help string
		counter    bool
		fn         func() float64
	}
	pair := func(f func(pairing.Stats) float64) func() float64 {
		return func() float64 { return f(p.cor.Stats()) }
	}
	all := []series{
		{"pcsmon_pairing_frames_total", "Observation frames ingested (both views).", true,
			pair(func(s pairing.Stats) float64 { return float64(s.Frames) })},
		{"pcsmon_pairing_paired_total", "Observations scored with both views present.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.Paired) })},
		{"pcsmon_pairing_orphan_sensors_total", "Sensor frames scored without their actuator twin.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.OrphanSensors) })},
		{"pcsmon_pairing_orphan_actuators_total", "Actuator frames scored without their sensor twin.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.OrphanActuators) })},
		{"pcsmon_pairing_gap_events_total", "Sequence-number gaps detected.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.GapEvents) })},
		{"pcsmon_pairing_gap_seqs_total", "Observations lost inside detected gaps.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.GapSeqs) })},
		{"pcsmon_pairing_duplicates_total", "Duplicate frames discarded.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.Duplicates) })},
		{"pcsmon_pairing_stale_total", "Frames arriving after their observation was flushed.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.Stale) })},
		{"pcsmon_pairing_outliers_total", "Implausible sequence jumps quarantined.", true,
			pair(func(s pairing.Stats) float64 { return float64(s.Outliers) })},
		{"pcsmon_pairing_stalls_total", "One-view blackout detections (ViewStalled events).", true,
			pair(func(s pairing.Stats) float64 { return float64(s.Stalls) })},
		{"pcsmon_pairing_deduped_total", "Content-identical frames suppressed by the redundant-collector window.", true,
			func() float64 { return float64(p.deduped()) }},
		{"pcsmon_pairing_pending_frames", "Frames waiting for their twin in the reorder window.", false,
			pair(func(s pairing.Stats) float64 { return float64(s.PendingFrames) })},
		{"pcsmon_pairing_units", "Distinct fieldbus units seen.", false,
			pair(func(s pairing.Stats) float64 { return float64(s.Units) })},
		{"pcsmon_pairing_loss_ratio", "Missing frames as a fraction of expected frames.", false,
			pair(func(s pairing.Stats) float64 { return s.LossRate() })},
	}
	if p.tcp != nil {
		all = append(all, series{"pcsmon_transport_tcp_frames_total", "Valid frames received over the TCP listener.", true,
			func() float64 { return float64(p.tcp.Frames()) }})
	}
	if p.udp != nil {
		all = append(all,
			series{"pcsmon_transport_udp_datagrams_total", "Datagrams received over the UDP listener.", true,
				func() float64 { return float64(p.udp.Stats().Datagrams) }},
			series{"pcsmon_transport_udp_corrupt_total", "Corrupt datagrams dropped by the UDP listener.", true,
				func() float64 { return float64(p.udp.Stats().Corrupt) }})
	}
	if p.rec != nil {
		store := func(f func(fieldbus.StoreStats) float64) func() float64 {
			return func() float64 {
				p.recMu.Lock()
				st := p.rec.Stats()
				p.recMu.Unlock()
				return f(st)
			}
		}
		all = append(all,
			series{"pcsmon_capture_frames_total", "Frames appended to the capture recording.", true,
				store(func(s fieldbus.StoreStats) float64 { return float64(s.Frames) })},
			series{"pcsmon_capture_span_seconds", "Capture time covered by the recording.", false,
				store(func(s fieldbus.StoreStats) float64 { return s.Span.Seconds() })},
			series{"pcsmon_capture_store_segments", "Segment files currently on disk (active included).", false,
				store(func(s fieldbus.StoreStats) float64 { return float64(s.Segments) })},
			series{"pcsmon_capture_store_bytes", "Total size of the segment chain including sidecars.", false,
				store(func(s fieldbus.StoreStats) float64 { return float64(s.Bytes) })},
			series{"pcsmon_capture_store_rotations_total", "Segments sealed by rotation.", true,
				store(func(s fieldbus.StoreStats) float64 { return float64(s.Rotations) })},
			series{"pcsmon_capture_store_pruned_total", "Segments deleted by retention.", true,
				store(func(s fieldbus.StoreStats) float64 { return float64(s.Pruned) })},
			series{"pcsmon_capture_store_flushes_total", "Cadence/explicit flushes of the active segment.", true,
				store(func(s fieldbus.StoreStats) float64 { return float64(s.Flushes) })})
	}
	for _, s := range all {
		register := reg.GaugeFunc
		if s.counter {
			register = reg.CounterFunc
		}
		if err := register(s.name, s.help, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// Calibrate builds the monitoring system from the NOC calibration CSV at
// path with the given number of PCA components (0 = the 90 % variance
// rule) and prints the calibration summary line to out. It is the one
// calibration step of the plane and of every mspctool subcommand.
func Calibrate(path string, components int, out io.Writer) (*core.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("control: calibration: %v: %w", err, ErrBadConfig)
	}
	defer func() { _ = f.Close() }()
	cal, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("control: calibration %s: %w", path, err)
	}
	sys, err := core.Calibrate(cal, core.Config{Components: components})
	if err != nil {
		return nil, fmt.Errorf("control: calibration %s: %w", path, err)
	}
	mon := sys.Monitor()
	fmt.Fprintf(out, "calibrated on %d observations: A=%d components, limits D99=%.2f Q99=%.2f\n",
		cal.Rows(), mon.Model().NComponents(), mon.Limits().D99, mon.Limits().Q99)
	// The parsed CSV, its matrix and the scaled copy (~3 × 8 MB at the
	// paper's 19 200 × 53) are garbage now. Collect them before the caller
	// starts scoring: a collection that happened to run mid-calibration
	// would otherwise size the heap goal the service runs under from them
	// (2 × 24 MB), and the peak RSS with it.
	runtime.GC()
	return sys, nil
}

func recordFlush(cfg *Config) time.Duration {
	if cfg.Record.FlushSeconds < 0 {
		return -1
	}
	return time.Duration(cfg.Record.FlushSeconds * float64(time.Second))
}

// setUnitOnsets loads the per-unit onset table from a (new) config.
func (p *Plane) setUnitOnsets(cfg *Config) {
	onsets := cfg.UnitOnsets()
	for i := range onsets {
		p.unitOnsets[i].Store(int64(onsets[i]))
	}
}

// onsetFor returns a unit's reloadable onset override (-1 = none).
func (p *Plane) onsetFor(unit uint8) int {
	return int(p.unitOnsets[unit].Load())
}

// onset resolves a unit's attach-time onset index.
func (p *Plane) onset(unit uint8) int {
	if o := p.onsetFor(unit); o >= 0 {
		return o
	}
	return p.config().OnsetIndex()
}

// Ingest offers one frame to the plane — the programmatic entry the
// router's in-process sinks use; the TCP/UDP listeners funnel into the
// same path. Frames are refused (ErrDraining) once a drain began.
func (p *Plane) Ingest(f *fieldbus.Frame) error {
	if p.draining.Load() {
		p.rejected.Add(1)
		return ErrDraining
	}
	p.ingest(f)
	return nil
}

// ingest is the listeners' frame handler. Listener goroutines call it
// concurrently.
func (p *Plane) ingest(f *fieldbus.Frame) {
	if _, err := p.offer(f); err != nil {
		fmt.Fprintf(p.out, "ingest error: %v\n", err)
	}
}

// play is the capture source's pump: it offers the chain's frames in
// order at their capture stamps, then drains the plane — with the read
// error, if the chain broke off.
func (p *Plane) play() {
	err := p.playChain(p.opts.Capture)
	close(p.playDone)
	_ = p.drain(err)
}

// The capture read-ahead: readDepth chunks of readChunk frames circulate
// between the reader goroutine and the pump.
const (
	readChunk = 256
	readDepth = 4
)

// frameChunk is a run of consecutive capture records, copied out of the
// chain reader's scratch frame. err, when set, is the read error (io.EOF
// at the end of the chain) that followed the chunk's n frames.
type frameChunk struct {
	n      int
	ts     [readChunk]time.Duration
	frames [readChunk]fieldbus.Frame
	err    error
}

// fill reads the chunk's frames from chain, stopping early at a read
// error. Values slices are reused once grown to the frame width.
//
//pcslint:hotpath
func (ch *frameChunk) fill(chain *fieldbus.ChainReader) {
	ch.n, ch.err = 0, nil
	for ch.n < readChunk {
		ts, f, err := chain.Next()
		if err != nil {
			ch.err = err
			return
		}
		dst := &ch.frames[ch.n]
		dst.Type, dst.Unit, dst.Seq = f.Type, f.Unit, f.Seq
		dst.Values = append(dst.Values[:0], f.Values...)
		ch.ts[ch.n] = ts
		ch.n++
	}
}

// readAhead is the reader stage: it fills free chunks and hands them to
// full in chain order until a read error (io.EOF included) or stop, then
// closes full. Every chunk in flight fits in full's buffer, so only the
// wait for a free chunk watches stop.
func readAhead(chain *fieldbus.ChainReader, free <-chan *frameChunk, full chan<- *frameChunk, stop <-chan struct{}) {
	defer close(full)
	for {
		var ch *frameChunk
		select {
		case <-stop: // before free: a stopped pump may have left chunks there
			return
		default:
		}
		select {
		case ch = <-free:
		case <-stop:
			return
		}
		ch.fill(chain)
		full <- ch
		if ch.err != nil {
			return
		}
	}
}

// playChain plays the capture: readAhead decodes the chain while the pump
// loop below offers the frames in order. Every frame read before a read
// error is offered, none after it. The reader is joined before playChain
// returns, on every exit, so the caller may close the chain once the
// plane has drained.
func (p *Plane) playChain(c *Capture) error {
	timeout := p.config().PairTimeout()
	fmt.Fprintf(p.out, "replaying %s\n", c.Name)
	free := make(chan *frameChunk, readDepth)
	full := make(chan *frameChunk, readDepth)
	for range readDepth {
		free <- new(frameChunk)
	}
	stop := make(chan struct{})
	go readAhead(c.Chain, free, full, stop)
	defer func() {
		close(stop)
		for range full { // join the reader: it closes full on exit
		}
	}()
	//pcslint:ignore clock-discipline -- pacing maps capture time onto wall time
	start := time.Now()
	var first time.Duration
	for ch := range full {
		for i := range ch.n {
			if p.draining.Load() {
				return nil
			}
			ts := ch.ts[i]
			if p.played.Add(1) == 1 {
				first = ts
			}
			if c.Speed > 0 {
				if d := time.Until(start.Add(time.Duration(float64(ts-first) / c.Speed))); d > 0 {
					time.Sleep(d)
				}
			}
			p.capNow.Store(int64(ts))
			offered, err := p.offer(&ch.frames[i])
			if err != nil {
				return err
			}
			if offered && timeout > 0 {
				if err := p.cor.Tick(p.clock()); err != nil {
					return err
				}
			}
		}
		if ch.err == io.EOF {
			return nil
		}
		if ch.err != nil {
			return ch.err
		}
		free <- ch
	}
	return nil
}

// pump is the single consumer of the scoring pool's event stream: it keeps
// the final per-unit reports, republishes everything onto the SSE bus and
// hands each event back to the pool once done with it.
func (p *Plane) pump() {
	defer close(p.pumpDone)
	for ev := range p.fl.Events() {
		if p.opts.OnEvent != nil {
			p.opts.OnEvent(ev)
		}
		LogEvent(p.out, ev)
		switch e := ev.(type) {
		case *fleet.Scored:
			p.bus.publish(Event{Type: "scored", Unit: e.Plant, Data: core.ScoredEvent(e.Step)}, json.Marshal)
		case fleet.Alarm:
			p.bus.publish(Event{Type: "alarm", Unit: e.Plant, Data: core.AlarmEvent(e.View, e.Detection)}, json.Marshal)
		case fleet.ModelSwapped:
			p.bus.publish(Event{Type: "model-swapped", Unit: e.Plant, Data: e.Swap.Event()}, json.Marshal)
		case fleet.Verdict:
			// A stream that never scored an observation finishes without a
			// report; it still gets a terminal entry so GET /units answers.
			rep := UnitReport{
				Unit:        e.Plant,
				Verdict:     "error",
				AttackedVar: -1,
				Explanation: "stream finished without a classifiable report",
				DetachedAt:  p.clock(),
			}
			if e.Report != nil {
				rep.Verdict = e.Report.Verdict.String()
				rep.AttackedVar = e.Report.AttackedVar
				rep.Explanation = e.Report.Explanation
			}
			p.repMu.Lock()
			p.reports[e.Plant] = rep
			p.repMu.Unlock()
			fmt.Fprintf(p.out, "unit %s: %s after %d observations\n", e.Plant, rep.Verdict, e.Samples)
			p.bus.publish(Event{Type: "verdict", Unit: e.Plant, Data: rep}, json.Marshal)
		}
		p.fl.Recycle(ev)
	}
}

// LogEvent writes the event-log line of a scoring-pool event: an ALARM
// line per latched detection, a MODEL SWAP line per model migration and
// nothing for the other events. The plane's pump and CSV `mspctool fleet`
// both log through it.
func LogEvent(out io.Writer, ev fleet.Event) {
	switch e := ev.(type) {
	case fleet.Alarm:
		a := core.AlarmEvent(e.View, e.Detection)
		fmt.Fprintf(out, "ALARM [%s/%s] at obs %d (run start %d, charts %v)\n",
			e.Plant, a.View, a.Index, a.RunStart, a.Charts)
	case fleet.ModelSwapped:
		fmt.Fprintf(out, "MODEL SWAP [%s] at obs %d -> generation %d (D99=%.2f Q99=%.2f)\n",
			e.Plant, e.Swap.At, e.Swap.Generation, e.Swap.D99, e.Swap.Q99)
	}
}

// tickLoop drives the pairing age horizon and the capture store's
// crash-durability flush until drain.
func (p *Plane) tickLoop() {
	flushEvery := recordFlush(p.config())
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	lastFlush := p.clock()
	for {
		select {
		case <-p.drained:
			return
		case <-ticker.C:
			if p.draining.Load() {
				return
			}
			if err := p.cor.Tick(p.clock()); err != nil && !p.draining.Load() {
				fmt.Fprintf(p.out, "pairing tick error: %v\n", err)
			}
			if p.rec != nil && flushEvery > 0 && p.clock().Sub(lastFlush) >= flushEvery {
				p.recMu.Lock()
				ferr := p.rec.Flush()
				p.recMu.Unlock()
				lastFlush = p.clock()
				if ferr != nil {
					fmt.Fprintf(p.out, "record flush error: %v\n", ferr)
				}
			}
		}
	}
}

// Drain gracefully stops the plane: new frames are refused, the ingest
// listeners close (or the capture stops playing), the pairing correlator
// and fleet mailboxes flush, every unit detaches (final verdicts land in
// the report table and on the SSE bus), the capture store seals its tail,
// and the run's frame accounting is logged. Idempotent; safe from any
// goroutine, including the plane's own HTTP handlers. The ops listener
// stays up so /status, /units and final SSE events remain readable; Close
// shuts it down.
func (p *Plane) Drain() error { return p.drain(nil) }

// drain is Drain with the error that ended a capture source, if any; it
// becomes the drain's result when that drain is the one that runs.
func (p *Plane) drain(srcErr error) error {
	p.drainOnce.Do(func() {
		p.draining.Store(true)
		fmt.Fprintf(p.out, "drain: refusing new frames\n")
		p.bus.publish(Event{Type: "drain"}, json.Marshal)
		// Stop the frame sources so nothing races the flush.
		if p.tcp != nil {
			_ = p.tcp.Close()
		}
		if p.udp != nil {
			_ = p.udp.Close()
		}
		if p.playDone != nil {
			<-p.playDone
		}
		// Everything accepted before the flag flipped is still in the
		// correlator's reorder windows and the workers' mailboxes: flush the
		// correlator (forcing out held observations), then detach every unit
		// — Detach blocks until the stream's queue is scored and its verdict
		// emitted, which is the losslessness contract.
		err := srcErr
		if ferr := p.cor.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		for u := range p.streams {
			if _, derr := p.detach(uint8(u), false); derr != nil && !errors.Is(derr, fleet.ErrUnknownPlant) {
				// A unit with nothing scored (attached, never fed) has
				// nothing to lose; any detach error is per-unit news — it
				// lands in that unit's report, not in the drain's verdict.
				fmt.Fprintf(p.out, "drain: detach %s: %v\n", fleet.PlantID(uint8(u)), derr)
			}
		}
		if cerr := p.fl.Close(); cerr != nil && err == nil {
			err = cerr
		}
		<-p.pumpDone
		if p.rec != nil {
			p.recMu.Lock()
			if cerr := p.rec.Close(); cerr != nil && err == nil {
				err = cerr // Close flushes and seals the unsealed tail
			}
			p.recMu.Unlock()
		}
		p.logAccounting()
		fmt.Fprintf(p.out, "drain complete: %d frames accepted, %d paired, %d refused after drain\n",
			p.accepted.Load(), p.cor.Stats().Paired, p.rejected.Load())
		p.bus.close()
		p.drainErr = err
		close(p.drained)
	})
	<-p.drained
	return p.drainErr
}

// logAccounting prints the drained run's per-layer frame accounting.
func (p *Plane) logAccounting() {
	st := p.cor.Stats()
	fmt.Fprintf(p.out, "pairing: %d frames -> %d paired, %d orphaned (%d sensor / %d actuator), %d gap obs, %d dup, %d stale, %d outlier, %d view stalls (loss rate %.2f%%)\n",
		st.Frames, st.Paired, st.OrphanSensors+st.OrphanActuators, st.OrphanSensors, st.OrphanActuators,
		st.GapSeqs, st.Duplicates, st.Stale, st.Outliers, st.Stalls, 100*st.LossRate())
	cfg := p.config()
	if cfg.Pairing.Dedup > 0 {
		fmt.Fprintf(p.out, "dedup: %d redundant frames suppressed (window %d)\n", p.deduped(), cfg.Pairing.Dedup)
	}
	if p.udp != nil {
		ust := p.udp.Stats()
		fmt.Fprintf(p.out, "udp: %d datagrams received, %d corrupt dropped\n", ust.Datagrams, ust.Corrupt)
	}
	if p.rec != nil {
		rs := p.rec.Stats()
		fmt.Fprintf(p.out, "recorded %d frames (%v span) to %s (%d segments, %d pruned)\n",
			rs.Frames, rs.Span.Round(time.Millisecond), cfg.Record.Path, rs.Segments, rs.Pruned)
	}
}

// Close drains (if not already drained) and stops the ops listener.
func (p *Plane) Close() error {
	err := p.Drain()
	if p.ops != nil {
		if cerr := p.ops.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Drained returns a channel closed once a drain completes.
func (p *Plane) Drained() <-chan struct{} { return p.drained }

// OpsURL returns the control API's base URL ("" without ops.addr).
func (p *Plane) OpsURL() string {
	if p.ops == nil {
		return ""
	}
	return p.ops.URL()
}

// Accepted returns the number of observation frames accepted pre-drain.
func (p *Plane) Accepted() uint64 { return p.accepted.Load() }

// Played returns the number of capture frames the plane has played
// (offered) so far — with Options.Capture, the replay's frame count. The
// reader decodes ahead of the pump, so a drain in mid-replay leaves it
// below the chain reader's Delivered; a replay played to EOF equals it.
func (p *Plane) Played() uint64 { return p.played.Load() }

// Reports snapshots the final per-unit reports (detached/drained units).
func (p *Plane) Reports() map[string]UnitReport {
	p.repMu.Lock()
	defer p.repMu.Unlock()
	out := make(map[string]UnitReport, len(p.reports))
	for k, v := range p.reports {
		out[k] = v
	}
	return out
}

func (p *Plane) config() *Config {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	return p.cfg
}

// Reload applies a new config's reloadable subset — the /healthz stall
// horizon and the per-unit overrides. A nil next re-reads
// Options.ConfigPath (the SIGHUP path). Non-reloadable changes are
// rejected with ErrNotReloadable and nothing is applied.
func (p *Plane) Reload(next *Config) error {
	if next == nil {
		if p.opts.ConfigPath == "" {
			return fmt.Errorf("control: reload: no config path to re-read: %w", ErrBadConfig)
		}
		loaded, err := Load(p.opts.ConfigPath)
		if err != nil {
			return err
		}
		next = loaded
	}
	if err := next.Validate(); err != nil {
		return err
	}
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	if err := p.cfg.CheckReload(next); err != nil {
		return err
	}
	p.cfg = next
	p.setUnitOnsets(next)
	if p.ops != nil {
		p.ops.SetStallAfter(next.StallHorizon())
	}
	n := p.reloads.Add(1)
	fmt.Fprintf(p.out, "reload %d applied (healthz stall %v, %d unit overrides)\n",
		n, next.StallHorizon(), len(next.Units))
	return nil
}

// Totals snapshots the /status aggregate counters: fleet, pairing
// (pairing_observations is the distinct (unit, seq) observations seen)
// and control.
func (p *Plane) Totals() map[string]float64 {
	m := map[string]float64{}
	if p.fl == nil {
		return m
	}
	p.fl.Stats().AddTotals(m)
	if p.cor != nil {
		ps := p.cor.Stats()
		m["pairing_frames"] = float64(ps.Frames)
		m["pairing_observations"] = float64(p.cor.StepCount())
		m["pairing_paired"] = float64(ps.Paired)
		m["pairing_orphans"] = float64(ps.OrphanSensors + ps.OrphanActuators)
		m["pairing_gap_seqs"] = float64(ps.GapSeqs)
		m["pairing_duplicates"] = float64(ps.Duplicates)
		m["pairing_stale"] = float64(ps.Stale)
		m["pairing_loss_ratio"] = ps.LossRate()
		m["pairing_deduped"] = float64(p.deduped())
		m["pairing_quiesced_drops"] = float64(p.quiescedDrops.Load())
	}
	m["control_frames_accepted"] = float64(p.accepted.Load())
	m["control_frames_rejected"] = float64(p.rejected.Load())
	m["control_reloads"] = float64(p.reloads.Load())
	m["control_events_published"] = float64(p.bus.published.Load())
	m["control_events_dropped"] = float64(p.bus.dropped.Load())
	if p.draining.Load() {
		m["control_draining"] = 1
	}
	return m
}

// ---- HTTP API ----

// apiError is the control API's error envelope.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleUnits routes GET /units/{id} and POST /units/{id}/{attach|detach|drain}.
func (p *Plane) handleUnits(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/units/")
	idPart, action, _ := strings.Cut(rest, "/")
	unit, err := parseUnitKey(idPart)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := fleet.PlantID(unit)
	switch {
	case r.Method == http.MethodGet && action == "":
		p.serveUnit(w, unit, id)
	case r.Method == http.MethodPost && action == "attach":
		if p.draining.Load() {
			apiError(w, http.StatusConflict, "plane is draining")
			return
		}
		p.stateMu.Lock()
		_, err = p.attachLocked(unit, true)
		p.stateMu.Unlock()
		if err != nil {
			if errors.Is(err, fleet.ErrDuplicatePlant) {
				apiError(w, http.StatusConflict, "unit %s already attached", id)
				return
			}
			apiError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"unit": id, "state": "attached"})
	case r.Method == http.MethodPost && (action == "detach" || action == "drain"):
		rep, err := p.detach(unit, action == "drain")
		if err != nil {
			if errors.Is(err, fleet.ErrUnknownPlant) {
				apiError(w, http.StatusNotFound, "unit %s not attached", id)
				return
			}
			apiError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		doc := map[string]any{"unit": id, "state": action + "ed", "verdict": rep.Verdict.String()}
		if rep.AttackedVar >= 0 {
			doc["attacked_var"] = rep.AttackedVar
		}
		p.bus.publish(Event{Type: action + "ed", Unit: id}, json.Marshal)
		writeJSON(w, http.StatusOK, doc)
	default:
		apiError(w, http.StatusMethodNotAllowed, "%s %s not supported", r.Method, r.URL.Path)
	}
}

// serveUnit renders GET /units/{id}: live health plus the final report
// when the unit has already been detached or drained.
func (p *Plane) serveUnit(w http.ResponseWriter, unit uint8, id string) {
	doc := map[string]any{"unit": id}
	known := false
	if h := p.healthReg.Get(id); h != nil {
		doc["health"] = h.Status(p.clock())
		known = true
	}
	p.repMu.Lock()
	rep, ok := p.reports[id]
	p.repMu.Unlock()
	if ok {
		doc["report"] = rep
		known = true
	}
	if !known {
		apiError(w, http.StatusNotFound, "unit %s never attached", id)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleConfig serves the live (redacted) config document.
func (p *Plane) handleConfig(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "%s /config not supported", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, p.config().Redacted())
}

// handleReload applies the reloadable config subset: from the request
// body when non-empty, otherwise by re-reading the config file.
func (p *Plane) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "%s /reload not supported", r.Method)
		return
	}
	var next *Config
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(strings.TrimSpace(string(body))) > 0 {
		next, err = Parse(strings.NewReader(string(body)))
		if err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if err := p.Reload(next); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrNotReloadable) {
			code = http.StatusConflict
		}
		apiError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"state": "reloaded", "reloads": p.reloads.Load()})
}

// handleDrain begins the graceful drain and returns once it completes —
// by then every pre-drain frame is scored, the final verdicts are in the
// report table, and the capture tail is sealed. The process itself exits
// via whoever waits on Drained() (the serve command).
func (p *Plane) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "%s /drain not supported", r.Method)
		return
	}
	if err := p.Drain(); err != nil {
		apiError(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"state":    "drained",
		"accepted": p.accepted.Load(),
		"reports":  len(p.Reports()),
	})
}

// handleEvents streams the SSE event feed.
func (p *Plane) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "%s /events not supported", r.Method)
		return
	}
	p.bus.serveSSE(w, r, 5*time.Second)
}
