// Package fleet scales the paper's single-plant monitor to fleets: one
// calibrated core.System is read-only after calibration, so it can legally
// score thousands of independent plant streams at once. A Pool spreads the
// streams over a fixed set of worker goroutines — each stream (one
// core.OnlineAnalyzer plus its pending batch) is owned by exactly one
// worker, assigned round-robin in attach order — and fans the
// per-observation results in as typed events through one buffered,
// back-pressure-aware channel.
//
// Concurrency contract:
//
//   - A stream's analyzer is confined to its worker goroutine; no lock is
//     ever taken around scoring.
//   - Attach returns the stream's handle, and the data path runs on it:
//     Stream.Push takes only that stream's own pending-batch lock. The
//     pool's one registry of attached streams (a mutex, a map by plant ID
//     and the closed flag) serves Attach, Detach, Close, the flush tick and
//     the snapshots — never an observation.
//   - All messages for one plant flow through one FIFO mailbox, so a
//     plant's observations are scored in the exact order they were pushed
//     and its events are emitted in that order. Events of different plants
//     interleave arbitrarily.
//   - Nothing is dropped: when the event channel fills (a slow consumer),
//     workers block, mailboxes fill, and Push blocks — back-pressure
//     propagates to the producers instead of losing or reordering events.
//   - Push copies its rows into the stream's pending batch, which owns the
//     row storage, before handing the batch to the worker; callers may
//     reuse their row slices immediately. The steady-state scoring path
//     performs no per-observation allocation.
//
// A plant scored through a Pool produces a report bit-identical to the same
// rows replayed through a lone core.OnlineAnalyzer (the golden parity the
// package tests enforce): worker assignment changes scheduling, never
// results.
//
// With Config.Adapt enabled the pool additionally runs the adaptive
// recalibration layer: one shared adapt.Tracker learns from in-control
// observations across every stream, refits candidate models on the
// configured cadence, and each stream migrates to accepted generations at
// its own diagnosis-window boundaries (ModelSwapped events record every
// migration). Adaptation is fleet-wide state — enabling it trades the
// bit-reproducibility of the frozen model for drift tracking.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcsmon/internal/adapt"
	"pcsmon/internal/core"
	"pcsmon/internal/mspc"
	"pcsmon/internal/obs"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid pool parameters.
	ErrBadConfig = errors.New("fleet: invalid configuration")
	// ErrClosed is returned when operating on a closed pool.
	ErrClosed = errors.New("fleet: pool closed")
	// ErrDuplicatePlant is returned when attaching an already-attached ID.
	ErrDuplicatePlant = errors.New("fleet: plant already attached")
	// ErrUnknownPlant is returned for operations on an unattached ID.
	ErrUnknownPlant = errors.New("fleet: unknown plant")
)

// Event is a typed fan-in event from one plant's stream. The concrete
// types are Scored, Alarm, ModelSwapped and Verdict.
type Event interface {
	// PlantID identifies the stream the event belongs to.
	PlantID() string
	fleetEvent()
}

// Scored reports one scored observation of one plant — the fleet analogue
// of the facade's SampleScored. The step's point values are copies, safe to
// retain while the event is held.
//
// Scored events are delivered as *Scored drawn from a pool, so the
// steady-state emission path allocates nothing. A consumer that is done
// with one may hand it back via Pool.Recycle (after which the event and its
// points must no longer be touched); consumers that don't recycle simply
// let the garbage collector take the event — correctness never depends on
// recycling.
type Scored struct {
	Plant string
	Step  core.StepResult

	// ctrlPt/procPt are the event-owned storage Step.Ctrl/Step.Proc point
	// into, so emitting a step copies the analyzer-scratch points without a
	// separate allocation per view.
	ctrlPt, procPt mspc.Point
}

// Alarm reports that one view of one plant latched a run-rule detection.
type Alarm struct {
	Plant string
	// View is "controller" or "process".
	View      string
	Detection mspc.Detection
}

// ModelSwapped reports that one plant's stream migrated to a new model
// generation at a diagnosis-window boundary (adaptive pools only).
type ModelSwapped struct {
	Plant string
	Swap  adapt.Swap
}

// Verdict carries a detached stream's final classified report. Err is
// non-nil when the stream failed (e.g. detached before any observation).
type Verdict struct {
	Plant   string
	Report  *core.Report
	Samples int
	Err     error
}

// PlantID implements Event.
func (e *Scored) PlantID() string      { return e.Plant }
func (e Alarm) PlantID() string        { return e.Plant }
func (e ModelSwapped) PlantID() string { return e.Plant }
func (e Verdict) PlantID() string      { return e.Plant }

func (*Scored) fleetEvent()      {}
func (Alarm) fleetEvent()        {}
func (ModelSwapped) fleetEvent() {}
func (Verdict) fleetEvent()      {}

// Config parameterizes a Pool. The zero value selects GOMAXPROCS workers,
// a 64-message mailbox per worker and a 256-event emitter buffer.
type Config struct {
	// Workers is the number of worker goroutines the streams are spread
	// over (0 = GOMAXPROCS). More workers than streams is wasteful but
	// harmless; each stream is pinned to exactly one worker.
	Workers int
	// Mailbox is the per-worker queue depth in messages (0 = 64); with
	// batching, each message carries up to Batch observations. A full
	// mailbox blocks Push — the knob trading producer latency against
	// memory.
	Mailbox int
	// Batch is the number of observations aggregated per mailbox message
	// and per-stream send (0 = 16, 1 = batches of one). Batching
	// amortizes channel hops and send-lock traffic across K observations;
	// results are bit-identical for every Batch value — each plant's rows
	// are still scored one by one, in push order. Partially filled batches
	// are delivered by the flush ticker and on Detach/Close.
	Batch int
	// FlushEvery is the cadence at which partially filled batches are
	// delivered (0 = 2ms, negative = no timed flush — batches move only
	// when full or on Detach/Close). Only meaningful when Batch > 1.
	FlushEvery time.Duration
	// EventBuffer is the fan-in event channel depth (0 = 256). A full
	// buffer blocks the workers (and transitively Push) until the consumer
	// catches up; events are never dropped.
	EventBuffer int
	// Sample is the observation interval reported in the final reports.
	Sample time.Duration
	// EmitEvery thins Scored events to one in N observations per plant
	// (0 or 1 = every observation, negative = none). Alarm, ModelSwapped
	// and Verdict events are always emitted.
	EmitEvery int
	// Adapt enables the fleet-wide adaptive recalibration layer (zero =
	// frozen model, the bit-reproducible default).
	Adapt adapt.Options
	// Metrics, when non-nil, receives the pool's observability series:
	// scrape-time counter/gauge closures over the aggregate atomics plus
	// the hot-path scoring-latency and batch-occupancy histograms (both
	// recorded without allocating — the 0 allocs/obs invariant holds with
	// metrics on).
	Metrics *obs.Registry
	// Health, when non-nil, tracks per-unit live state (last-seen, current
	// T²/SPE vs. limits, alarm views, generation, verdict); each stream
	// holds its handle directly, so the per-observation update is a few
	// atomic stores with no registry lookup.
	Health *obs.HealthRegistry
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Mailbox == 0 {
		c.Mailbox = 64
	}
	if c.EventBuffer == 0 {
		c.EventBuffer = 256
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = 2 * time.Millisecond
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("fleet: workers %d: %w", c.Workers, ErrBadConfig)
	case c.Mailbox < 0:
		return fmt.Errorf("fleet: mailbox %d: %w", c.Mailbox, ErrBadConfig)
	case c.EventBuffer < 0:
		return fmt.Errorf("fleet: event buffer %d: %w", c.EventBuffer, ErrBadConfig)
	case c.Batch < 0:
		return fmt.Errorf("fleet: batch %d: %w", c.Batch, ErrBadConfig)
	case c.Sample < 0:
		return fmt.Errorf("fleet: sample %v: %w", c.Sample, ErrBadConfig)
	}
	if err := c.Adapt.Validate(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// Stats is a point-in-time snapshot of the pool's aggregate counters.
type Stats struct {
	// Active is the number of currently attached streams.
	Active int
	// Attached counts every stream ever attached.
	Attached uint64
	// Observations counts scored observations across all streams.
	Observations uint64
	// Alarms counts run-rule detections across all streams and views.
	Alarms uint64
	// Verdicts counts completed (detached) streams.
	Verdicts uint64
	// ModelSwaps counts per-stream model migrations (adaptive pools only).
	ModelSwaps uint64
	// ModelGeneration is the current adaptive model generation (0 when
	// adaptation is disabled or no candidate has been accepted yet).
	ModelGeneration uint64
	// ObsPerSec is Observations divided by the wall-clock time since the
	// pool was created.
	ObsPerSec float64
}

// AddTotals writes the pool's share of the /status aggregate totals into
// m: the eight fleet_* counters the control plane and CSV `mspctool
// fleet` both serve.
func (s Stats) AddTotals(m map[string]float64) {
	m["fleet_active_streams"] = float64(s.Active)
	m["fleet_attached"] = float64(s.Attached)
	m["fleet_observations"] = float64(s.Observations)
	m["fleet_alarms"] = float64(s.Alarms)
	m["fleet_verdicts"] = float64(s.Verdicts)
	m["fleet_model_swaps"] = float64(s.ModelSwaps)
	m["fleet_model_generation"] = float64(s.ModelGeneration)
	m["fleet_obs_per_sec"] = s.ObsPerSec
}

// plantIDs holds the 256 possible plant ids; PlantID is called once per
// paired observation on the scoring hot path, so it must not format.
var plantIDs = func() (ids [256]string) {
	for i := range ids {
		ids[i] = fmt.Sprintf("unit-%03d", i)
	}
	return
}()

// PlantID returns the plant id of a fieldbus unit ("unit-007").
func PlantID(unit uint8) string { return plantIDs[unit] }

// Stream is one attached plant's handle and state, returned by
// Pool.Attach; its methods are safe for concurrent use. The analyzer,
// samples counter, generation, report and err fields are owned by the
// stream's worker goroutine; the done channel hands the final state back to
// Detach.
type Stream struct {
	id string
	w  *worker

	oa       *core.OnlineAnalyzer
	gen      uint64          // model generation the analyzer is scored against
	hp       *obs.UnitHealth // nil when Config.Health is unset
	health   pendingHealth   // scored since the worker last published to hp
	samples  int
	finished bool

	// pending is the stream's accumulating batch. pendMu guards it and
	// sealed, and serializes the mailbox sends that move a batch out, so a
	// producer's full-batch send and the flush ticker's partial-batch send
	// can never reorder one plant's observations. Detach and Close seal the
	// stream before its finish message: a Push that races the detach then
	// fails instead of queueing behind the finish.
	pendMu  sync.Mutex
	pending *obsBatch
	sealed  bool

	report *core.Report
	err    error
	done   chan struct{} // closed by the worker after the Verdict event
}

// pendingHealth is what a stream's worker has scored since it last
// published to the stream's health handle: the count, the last
// observation's stamp and over-limit flag, and each view's latest D and Q
// (NaN while the view has not reported, so the handle keeps its value).
// The worker publishes once per batch, because the handle's atomic stores
// cost more per observation than the scoring they report on.
type pendingHealth struct {
	n                          uint64
	now                        int64
	ctrlD, ctrlQ, procD, procQ float64
	over                       bool
}

// obsBatch aggregates up to Config.Batch observations of one stream into a
// single mailbox message. The batch owns its rows: slot i's rows are the
// i-th cols-wide windows of ctrlBuf and procBuf, and ctrl[i]/proc[i] are
// those windows, or nil where that view's stream has ended.
type obsBatch struct {
	n                int
	ctrl, proc       [][]float64
	ctrlBuf, procBuf []float64 // Batch×cols row storage
}

// add copies one observation into the batch's next slot. Every slot is
// written, nil included, so a recycled batch never carries a stale row.
func (b *obsBatch) add(cols int, ctrl, proc []float64) {
	i := b.n
	b.ctrl[i] = copyRow(b.ctrlBuf[i*cols:(i+1)*cols], ctrl)
	b.proc[i] = copyRow(b.procBuf[i*cols:(i+1)*cols], proc)
	b.n++
}

// copyRow copies src into dst and returns dst, or nil for a nil src.
func copyRow(dst, src []float64) []float64 {
	if src == nil {
		return nil
	}
	copy(dst, src)
	return dst
}

// message is one mailbox entry: a batch of observations or, when finish is
// set, the detach request.
type message struct {
	st     *Stream
	batch  *obsBatch
	finish bool
}

// Pool spreads plant streams over a fixed worker set. Create with NewPool;
// all methods are safe for concurrent use.
type Pool struct {
	sys     *core.System
	cfg     Config
	cols    int
	window  int            // diagnosis window = swap boundary cadence
	tracker *adapt.Tracker // nil when adaptation is disabled
	events  chan Event
	workers []*worker
	started time.Time
	wg      sync.WaitGroup

	// regMu guards streams, the registry of attached plants by ID. Attach
	// reads closed under it and Close collects the streams under it after
	// setting closed, so an Attach either lands before Close collects the
	// streams or sees the pool closed. Only Attach, Detach, Close, the
	// flush tick and the snapshots take it.
	regMu   sync.Mutex
	streams map[string]*Stream

	// closed gates Close's one-shot shutdown. sendMu guards the worker
	// mailboxes' lifetime: sends hold the read side and re-check
	// mailboxesClosed, Close sets the flag and closes the channels under
	// the write side — so a Push or Detach racing Close can never send on
	// a closed channel.
	closed          atomic.Bool
	sendMu          sync.RWMutex
	mailboxesClosed bool

	batches sync.Pool // *obsBatch boxes of cfg.Batch capacity
	scored  sync.Pool // *Scored emission boxes, refilled by Recycle

	// Observability hooks wired by registerObs (all nil/no-op when
	// Config.Metrics / Config.Health are unset); the scoring-latency
	// histogram is reached through each worker's buffer.
	batchOcc *obs.Histogram
	health   *obs.HealthRegistry

	flushQuit chan struct{} // stops the batch flusher (nil at Batch 1 or without a timed flush)

	attached     atomic.Uint64
	observations atomic.Uint64
	alarms       atomic.Uint64
	verdicts     atomic.Uint64
	modelSwaps   atomic.Uint64
}

// worker owns its mailbox and the analyzers of the streams assigned to it.
type worker struct {
	pool *Pool
	in   chan message

	// Metering state, touched only by the worker goroutine: the scoring
	// latencies not yet flushed (nil without metrics), the current
	// batch's wall-clock start and the monotonic offset from it at which
	// the last observation finished scoring.
	lat        *obs.HistogramBuffer
	batchStart time.Time
	lastEnd    time.Duration
}

// NewPool builds the worker set and event channel over one calibrated
// system. The caller must consume Events() until it is closed by Close;
// otherwise producers eventually block (nothing is ever dropped).
func NewPool(sys *core.System, cfg Config) (*Pool, error) {
	if sys == nil {
		return nil, fmt.Errorf("fleet: nil system: %w", ErrBadConfig)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// Probe the system once so a miscalibrated one fails at construction,
	// not at the first Attach.
	if _, err := sys.NewOnlineAnalyzer(0, cfg.Sample); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	p := &Pool{
		sys:     sys,
		cfg:     cfg,
		cols:    sys.Monitor().Scaler().Dim(),
		window:  sys.Config().DiagnoseWindow,
		events:  make(chan Event, cfg.EventBuffer),
		streams: make(map[string]*Stream),
		started: time.Now(),
	}
	if p.window < 1 {
		p.window = 1
	}
	if cfg.Adapt.Enabled {
		tracker, err := adapt.NewTracker(sys, cfg.Adapt)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		p.tracker = tracker
	}
	p.workers = make([]*worker, cfg.Workers)
	for i := range p.workers {
		w := &worker{pool: p, in: make(chan message, cfg.Mailbox)}
		p.workers[i] = w
		p.wg.Add(1)
		go w.run()
	}
	if cfg.Batch > 1 && cfg.FlushEvery > 0 {
		p.flushQuit = make(chan struct{})
		p.wg.Add(1)
		go p.flushLoop()
	}
	if err := p.registerObs(); err != nil {
		_ = p.Close()
		return nil, err
	}
	return p, nil
}

// Events returns the fan-in event channel. It is closed by Close after the
// last event.
func (p *Pool) Events() <-chan Event { return p.events }

// Attach registers a new plant stream and returns its handle. onset is the
// observation index at which an anomaly is known to begin (0 if unknown),
// with the same semantics as core.System.NewOnlineAnalyzer. An adaptive
// pool attaches the stream to the current model generation. Streams are
// assigned to workers round-robin in attach order.
func (p *Pool) Attach(id string, onset int) (*Stream, error) {
	if id == "" {
		return nil, fmt.Errorf("fleet: empty plant id: %w", ErrBadConfig)
	}
	sys, gen := p.sys, uint64(0)
	if p.tracker != nil {
		sys, gen = p.tracker.System()
	}
	oa, err := sys.NewOnlineAnalyzer(onset, p.cfg.Sample)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	st := &Stream{id: id, oa: oa, gen: gen, done: make(chan struct{})}
	p.regMu.Lock()
	defer p.regMu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := p.streams[id]; ok {
		return nil, fmt.Errorf("fleet: %q: %w", id, ErrDuplicatePlant)
	}
	// The health handle is touched only once the id is known to be free, so
	// a refused duplicate never resets the live stream's generation/limits.
	if p.health != nil {
		st.hp = p.health.Attach(id)
		st.hp.SetGeneration(gen)
		lim := sys.Monitor().Limits()
		st.hp.SetLimits(lim.D99, lim.Q99)
	}
	n := p.attached.Add(1)
	st.w = p.workers[(n-1)%uint64(len(p.workers))]
	p.streams[id] = st
	return st, nil
}

// Push scores the stream's next paired observation. The rows are copied
// into the stream's pending batch before Push returns; the caller may
// reuse its slices. A nil row marks that view's stream as ended
// (core.OnlineAnalyzer semantics); a single-view feed passes the same
// slice twice. Push blocks when the stream's worker mailbox is full — the
// back-pressure path. After Detach it returns ErrUnknownPlant, after the
// pool's Close ErrClosed.
//
// Pushing concurrently with Detach of the same stream loses nothing
// silently: an observation either lands before the detach's finish
// message (and is scored into the verdict) or Push returns
// ErrUnknownPlant, exactly as if it had been called after the detach.
//
//pcslint:hotpath
func (st *Stream) Push(ctrl, proc []float64) error {
	p := st.w.pool
	if ctrl != nil && len(ctrl) != p.cols {
		return fmt.Errorf("fleet: controller row has %d vars, want %d: %w", len(ctrl), p.cols, core.ErrBadInput)
	}
	if proc != nil && len(proc) != p.cols {
		return fmt.Errorf("fleet: process row has %d vars, want %d: %w", len(proc), p.cols, core.ErrBadInput)
	}
	// Append to the stream's pending batch and ship it once full. The
	// mailbox send happens under the stream's pending lock — that lock, not
	// channel-queue order, is what keeps a full-batch send from racing a
	// flush-tick send of the same plant, and what orders every send before
	// the seal.
	st.pendMu.Lock()
	if st.sealed {
		st.pendMu.Unlock()
		if p.closed.Load() {
			return ErrClosed
		}
		return fmt.Errorf("fleet: %q: %w", st.id, ErrUnknownPlant)
	}
	b := st.pending
	if b == nil {
		b = p.getBatch()
		st.pending = b
	}
	b.add(p.cols, ctrl, proc)
	if b.n < p.cfg.Batch {
		st.pendMu.Unlock()
		return nil
	}
	st.pending = nil
	ok := p.trySend(st.w, message{st: st, batch: b})
	st.pendMu.Unlock()
	if !ok {
		p.putBatch(b)
		return ErrClosed
	}
	return nil
}

// flushPending ships the stream's partially filled batch, if any; with seal
// it also refuses every later Push. Detach and Close seal before the finish
// message, so every observation a Push accepted is scored into the verdict.
func (p *Pool) flushPending(st *Stream, seal bool) {
	st.pendMu.Lock()
	st.sealed = st.sealed || seal
	b := st.pending
	if b == nil {
		st.pendMu.Unlock()
		return
	}
	st.pending = nil
	ok := p.trySend(st.w, message{st: st, batch: b})
	st.pendMu.Unlock()
	if !ok {
		p.putBatch(b)
	}
}

// flushLoop delivers partially filled batches on the FlushEvery cadence so
// a slow producer's observations never sit unscored longer than one tick.
func (p *Pool) flushLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.FlushEvery)
	defer tick.Stop()
	var snapshot []*Stream
	for {
		select {
		case <-p.flushQuit:
			return
		case <-tick.C:
		}
		snapshot = snapshot[:0]
		p.regMu.Lock()
		for _, st := range p.streams {
			snapshot = append(snapshot, st)
		}
		p.regMu.Unlock()
		for _, st := range snapshot {
			p.flushPending(st, false)
		}
	}
}

// trySend delivers one mailbox message under the read side of sendMu,
// re-checking the mailbox lifetime flag so a sender that lost a race with
// Close reports failure instead of panicking on a closed channel.
func (p *Pool) trySend(w *worker, msg message) bool {
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.mailboxesClosed {
		return false
	}
	w.in <- msg
	return true
}

// Detach finalizes the stream: queued observations are scored, the
// diagnosis runs, a Verdict event is emitted and the classified report is
// returned. Detach blocks until the verdict is out. Detaching a stream that
// is no longer attached — detached before, or finalized by Close — returns
// ErrUnknownPlant.
func (st *Stream) Detach() (*core.Report, error) {
	p := st.w.pool
	p.regMu.Lock()
	ok := p.streams[st.id] == st
	if ok {
		delete(p.streams, st.id)
	}
	p.regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: %q: %w", st.id, ErrUnknownPlant)
	}
	p.flushPending(st, true)
	if p.trySend(st.w, message{st: st, finish: true}) {
		<-st.done
		return st.report, st.err
	}
	// The pool shut down between our registry removal and the send: no
	// worker will ever see the finish message. Wait for the workers to
	// drain their mailboxes and exit, then finalize inline — the stream is
	// quiescent by then. No Verdict event is emitted (the event channel is
	// closing), but the caller still gets the report.
	p.wg.Wait()
	st.finalize()
	p.verdicts.Add(1)
	return st.report, st.err
}

// Close detaches every remaining stream (emitting their Verdict events),
// stops the workers and closes the event channel. The consumer must keep
// draining Events() while Close runs. Close is idempotent; operations
// after it return ErrClosed.
func (p *Pool) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	p.regMu.Lock()
	rest := make([]*Stream, 0, len(p.streams))
	for _, st := range p.streams {
		rest = append(rest, st)
	}
	clear(p.streams)
	p.regMu.Unlock()
	for _, st := range rest {
		// Close owns these streams (they were removed from the registry
		// above) and the mailboxes are still open: the sends cannot fail.
		p.flushPending(st, true)
		p.trySend(st.w, message{st: st, finish: true})
	}
	for _, st := range rest {
		<-st.done
	}
	if p.flushQuit != nil {
		close(p.flushQuit)
	}
	// Exclude in-flight sends (a Detach that took its stream out of the
	// registry just before Close), then shut the mailboxes down; later
	// senders see mailboxesClosed and back off.
	p.sendMu.Lock()
	p.mailboxesClosed = true
	for _, w := range p.workers {
		close(w.in)
	}
	p.sendMu.Unlock()
	p.wg.Wait()
	close(p.events)
	return nil
}

// Stats snapshots the aggregate counters.
func (p *Pool) Stats() Stats {
	obs := p.observations.Load()
	elapsed := time.Since(p.started).Seconds()
	var rate float64
	if elapsed > 0 {
		rate = float64(obs) / elapsed
	}
	st := Stats{
		Active:       p.active(),
		Attached:     p.attached.Load(),
		Observations: obs,
		Alarms:       p.alarms.Load(),
		Verdicts:     p.verdicts.Load(),
		ModelSwaps:   p.modelSwaps.Load(),
		ObsPerSec:    rate,
	}
	if p.tracker != nil {
		st.ModelGeneration = p.tracker.Generation()
	}
	return st
}

// Plants lists the ids of the currently attached streams, sorted — the
// drain hook a control plane uses to detach everything deterministically.
func (p *Pool) Plants() []string {
	p.regMu.Lock()
	ids := make([]string, 0, len(p.streams))
	for id := range p.streams {
		ids = append(ids, id)
	}
	p.regMu.Unlock()
	sort.Strings(ids)
	return ids
}

// active returns the number of attached streams.
func (p *Pool) active() int {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	return len(p.streams)
}

// getBatch takes a Config.Batch-capacity batch box from the free-list.
func (p *Pool) getBatch() *obsBatch {
	if v := p.batches.Get(); v != nil {
		return v.(*obsBatch)
	}
	//pcslint:ignore hotpath -- free-list miss: batch boxes are allocated only until the sync.Pool warms, then recycled
	return newBatch(p.cfg.Batch, p.cols)
}

// newBatch allocates an empty batch with room for batch observations of
// cols values per view.
func newBatch(batch, cols int) *obsBatch {
	return &obsBatch{
		ctrl: make([][]float64, batch), proc: make([][]float64, batch),
		ctrlBuf: make([]float64, batch*cols), procBuf: make([]float64, batch*cols),
	}
}

// putBatch recycles a batch box with its row storage.
func (p *Pool) putBatch(b *obsBatch) {
	b.n = 0
	p.batches.Put(b)
}

// Recycle hands a delivered event back to the pool's emission free-list.
// Only pooled event types (Scored) are recycled; any other event is a
// no-op, so consumers may call it unconditionally on every event they have
// finished with. After Recycle the event must no longer be used.
func (p *Pool) Recycle(ev Event) {
	if s, ok := ev.(*Scored); ok {
		p.scored.Put(s)
	}
}

// run is the worker loop: score observations in mailbox order, learn and
// swap when the pool is adaptive, emit events, finalize on detach. It exits
// when the mailbox is closed.
func (w *worker) run() {
	defer w.pool.wg.Done()
	p := w.pool
	for msg := range w.in {
		st := msg.st
		if msg.finish {
			w.finish(st)
			continue
		}
		if p.batchOcc != nil {
			p.batchOcc.Observe(float64(msg.batch.n))
		}
		if w.lat != nil || st.hp != nil {
			w.batchStart, w.lastEnd = time.Now(), 0
		}
		var scored uint64
		for i := 0; i < msg.batch.n; i++ {
			if w.score(st, msg.batch.ctrl[i], msg.batch.proc[i]) {
				scored++
			}
		}
		if w.lat != nil {
			w.lat.Flush()
		}
		if st.hp != nil {
			st.publishHealth()
		}
		// Counted after the batch's metering is published, so a reader
		// that sees the observations total also sees their health.
		p.observations.Add(scored)
		p.putBatch(msg.batch)
	}
}

// score runs one observation, read in place from its batch, through the
// stream's analyzer and emits its events. It reports whether the
// observation was scored.
//
//pcslint:hotpath
func (w *worker) score(st *Stream, cr, pr []float64) bool {
	p := w.pool
	if st.finished {
		// The stream failed on an earlier row (the error is in its
		// Verdict); drop the rest.
		return false
	}
	res, err := st.oa.Push(cr, pr)
	if err != nil {
		// Row-shape errors are caught in Push; anything here poisons
		// the stream and surfaces in the Verdict.
		st.finished = true
		st.err = fmt.Errorf("fleet: %q: %w", st.id, err)
		return false
	}
	st.samples++
	if p.tracker != nil {
		//pcslint:ignore hotpath -- adaptive refits are cadence-gated (Config.AdaptEvery) and rebuild models by design; the steady-state score step never enters this edge
		w.adaptStep(st, res, cr, pr)
	}
	// One monotonic clock read per observation (time.Since does not
	// allocate, and time.Now would read the wall clock too): the latency
	// runs from the previous observation's end, or the batch start, so it
	// also carries that observation's emit and metering; the health stamp
	// is the batch's wall-clock start advanced by the reading.
	if w.lat != nil || st.hp != nil {
		end := time.Since(w.batchStart)
		if w.lat != nil {
			w.lat.Observe((end - w.lastEnd).Seconds())
		}
		w.lastEnd = end
		if st.hp != nil {
			st.observeHealth(res, w.batchStart.Add(end).UnixNano())
		}
	}
	w.emitStep(st, res)
	return true
}

// observeHealth notes one step, scored at now (UnixNano), in the stream's
// pending health — plain stores; publishHealth hands them to the handle.
func (st *Stream) observeHealth(res core.StepResult, now int64) {
	h := &st.health
	if h.n == 0 {
		h.ctrlD, h.ctrlQ = math.NaN(), math.NaN()
		h.procD, h.procQ = math.NaN(), math.NaN()
	}
	h.n++
	h.now = now
	h.over = false
	if res.Ctrl != nil {
		h.ctrlD, h.ctrlQ = res.Ctrl.Stats.D, res.Ctrl.Stats.Q
		h.over = res.Ctrl.Over()
	}
	if res.Proc != nil {
		h.procD, h.procQ = res.Proc.Stats.D, res.Proc.Stats.Q
		h.over = h.over || res.Proc.Over()
	}
}

// publishHealth stores the pending health in the stream's handle — a
// handful of atomic stores, no locks, no allocation — and clears it.
func (st *Stream) publishHealth() {
	h := &st.health
	if h.n == 0 {
		return
	}
	st.hp.Observe(h.now, h.n, h.ctrlD, h.ctrlQ, h.procD, h.procQ, h.over)
	h.n = 0
}

// adaptStep drives this stream through the shared tracker's per-observation
// protocol (learn guard, due refit, boundary migration) and emits the swap
// event when one lands.
func (w *worker) adaptStep(st *Stream, res core.StepResult, cr, pr []float64) {
	p := w.pool
	var swap *adapt.Swap
	st.gen, swap = p.tracker.Step(st.oa, res, cr, pr, p.window, st.gen)
	if swap != nil {
		p.modelSwaps.Add(1)
		if st.hp != nil {
			st.hp.SetGeneration(swap.Generation)
			st.hp.SetLimits(swap.D99, swap.Q99)
		}
		p.events <- ModelSwapped{Plant: st.id, Swap: *swap}
	}
}

// emitStep converts one StepResult into fan-in events, honouring the
// Scored thinning. The step's analyzer-scratch points are copied into the
// pooled event's own storage before they cross the channel, so the
// steady-state emission path allocates nothing when consumers Recycle.
func (w *worker) emitStep(st *Stream, res core.StepResult) {
	p := w.pool
	every := p.cfg.EmitEvery
	if every >= 0 && (every <= 1 || res.Index%every == 0) {
		var ev *Scored
		if v := p.scored.Get(); v != nil {
			ev = v.(*Scored)
		} else {
			//pcslint:ignore hotpath -- free-list miss: Scored events are pooled via Recycle; allocation stops once consumers return them
			ev = &Scored{}
		}
		ev.Plant = st.id
		ev.Step = res
		if res.Ctrl != nil {
			ev.ctrlPt = *res.Ctrl
			ev.Step.Ctrl = &ev.ctrlPt
		}
		if res.Proc != nil {
			ev.procPt = *res.Proc
			ev.Step.Proc = &ev.procPt
		}
		p.events <- ev
	}
	if res.CtrlAlarm != nil {
		p.alarms.Add(1)
		if st.hp != nil {
			st.hp.Alarm(obs.AlarmCtrl)
		}
		//pcslint:ignore hotpath -- alarms are rare by construction (ARL-tuned limits); boxing one Alarm per detection is not steady-state work
		p.events <- Alarm{Plant: st.id, View: "controller", Detection: *res.CtrlAlarm}
	}
	if res.ProcAlarm != nil {
		p.alarms.Add(1)
		if st.hp != nil {
			st.hp.Alarm(obs.AlarmProc)
		}
		//pcslint:ignore hotpath -- alarms are rare by construction (ARL-tuned limits); boxing one Alarm per detection is not steady-state work
		p.events <- Alarm{Plant: st.id, View: "process", Detection: *res.ProcAlarm}
	}
}

// finalize runs the stream's diagnosis + classification exactly once. It
// must only be called by the goroutine that owns the stream at that
// moment: its worker, or a Detach that outlived the workers.
func (st *Stream) finalize() {
	st.finished = true
	if st.err == nil && st.report == nil {
		rep, err := st.oa.Finish()
		if err != nil {
			st.err = fmt.Errorf("fleet: %q: %w", st.id, err)
		} else {
			st.report = rep
		}
	}
	if st.hp != nil {
		switch {
		case st.err != nil:
			st.hp.SetVerdict("error")
		case st.report != nil:
			st.hp.SetVerdict(st.report.Verdict.String())
		}
	}
}

// finish closes a stream: diagnosis + classification, Verdict event, and
// the done handshake Detach waits on.
func (w *worker) finish(st *Stream) {
	p := w.pool
	st.finalize()
	p.verdicts.Add(1)
	p.events <- Verdict{Plant: st.id, Report: st.report, Samples: st.samples, Err: st.err}
	close(st.done)
}
