package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
	"pcsmon/internal/pairing"
)

// span is one traced chunk of calls into a layer. Spans are kept in
// memory and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace origin
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"`
	Allocs uint64 `json:"allocs"`
}

// tracer records spans around chunks of calls. A nil tracer records
// nothing, which is how the same runner runs untraced.
type tracer struct {
	origin time.Time
	spans  []span
	allocs [1]metrics.Sample
	m0     uint64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), spans: make([]span, 0, 1<<12)}
	t.allocs[0].Name = "/gc/heap/allocs:objects"
	return t
}

// mallocs reads the cumulative heap allocation count without stopping
// the world.
func (t *tracer) mallocs() uint64 {
	metrics.Read(t.allocs[:])
	return t.allocs[0].Value.Uint64()
}

// begin opens a span; the allocation counter is read before the clock
// starts and after it stops, so reading it stays outside the interval.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.m0 = t.mallocs()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id, items int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.origin))
	s := &t.spans[id]
	s.End, s.Items, s.Allocs = end, items, t.mallocs()-t.m0
}

// stageTotal sums a stage's self time (ns), items and allocations.
type stageTotal struct {
	ns     int64
	items  int
	allocs uint64
}

func (t *tracer) totals() map[string]stageTotal {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]stageTotal{}
	for _, s := range t.spans {
		tot := out[s.Name]
		tot.ns += s.End - s.Start - child[s.ID]
		tot.items += s.Items
		tot.allocs += s.Allocs
		out[s.Name] = tot
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// streamFrame is one frame of the traced stream: unit u's observation i
// in one view, with its capture-time stamp.
type streamFrame struct {
	u, i int32
	view int8
	at   time.Duration
}

// traceStream is the frame sequence the traced run feeds every layer: the
// same generated frames the workload sends, in the same order.
func traceStream(w *workload, in *inputs, rate, secs float64) []streamFrame {
	units := make([]int, len(in.UnitRows))
	for u := range units {
		units[u] = u
	}
	var out []streamFrame
	switch w.transport {
	case "udp":
		s := udpSchedule(in, rate, secs)
		for k := range s.slots() {
			for c := 0; c < 2; c++ {
				u, i, view := s.frameAt(c, k)
				out = append(out, streamFrame{u: int32(u), i: int32(i), view: int8(view), at: s.slotTime(k)})
			}
		}
	default:
		limit := 0
		if w.transport == "tcp" {
			limit = traceRowsTCP
		}
		for g, p := range in.order(units, limit) {
			at := captureStamp(g, len(units))
			out = append(out,
				streamFrame{u: int32(p[0]), i: int32(p[1]), view: 0, at: at},
				streamFrame{u: int32(p[0]), i: int32(p[1]), view: 1, at: at})
		}
	}
	return out
}

// traceRowsTCP bounds each unit's stream in the tcp-steady traced run.
const traceRowsTCP = 1000

// stageResult is the per-layer outcome of one pass of the stage runner.
type stageResult struct {
	wall       time.Duration
	totals     map[string]stageTotal
	obs        int // distinct observations in the stream
	frames     int // frames in the stream, redundant copies included
	dedupHits  uint64
	paired     uint64
	alarmed    int
	mismatches []string
}

const traceChunk = 4096

// runStages feeds the stream through each layer's public entry point, one
// chunk at a time: decode, dedup, capture write, pairing, the control
// plane's ingest, fleet push and hand-off, MSPC scoring, the online
// analyzer, then diagnosis, chain read-back and calibration. Every
// layer's reports are checked against the batch reference.
func runStages(w *workload, in *inputs, sys *core.System, cfg *control.Config, stream []streamFrame, dir string, tr *tracer) (*stageResult, error) {
	start := time.Now()
	res := &stageResult{frames: len(stream)}
	units := len(in.UnitRows)
	counts := make([]int, units)
	seen := map[[2]int32]bool{}
	for _, f := range stream {
		k := [2]int32{f.u, f.i}
		if !seen[k] {
			seen[k] = true
			counts[f.u]++
			res.obs++
		}
	}

	// The wire image: length-prefixed frames, as a TCP peer sends them.
	var wire bytes.Buffer
	var fr fieldbus.Frame
	var buf []byte
	for _, s := range stream {
		in.frame(int(s.u), int(s.i), int(s.view), &fr)
		var err error
		if buf, err = fieldbus.WriteFrameBuf(&wire, &fr, buf); err != nil {
			return nil, err
		}
	}

	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dedup, err := fieldbus.NewFrameDedup(max(w.dedup, 1))
	if err != nil {
		return nil, err
	}
	store, err := fieldbus.OpenCaptureStore(filepath.Join(dir, "chain"), fieldbus.StoreOptions{SegmentBytes: recordSegmentBytes})
	if err != nil {
		return nil, err
	}

	// Pairing into a collecting sink.
	type pair struct {
		unit       uint8
		ctrl, proc []float64
	}
	var pairs []pair
	npairs := 0
	cor, err := pairing.NewCorrelator(pairing.Config{Cols: historian.NumVars, Window: 64}, func(ev pairing.Event) error {
		switch ev.Outcome {
		case pairing.Paired, pairing.OrphanSensor, pairing.OrphanActuator:
			if npairs == len(pairs) {
				pairs = append(pairs, pair{})
			}
			p := &pairs[npairs]
			p.unit = ev.Unit
			p.ctrl = append(p.ctrl[:0], ev.Ctrl...)
			p.proc = append(p.proc[:0], ev.Proc...)
			npairs++
			if ev.Outcome == pairing.Paired {
				res.paired++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The fleet, its event consumer collecting verdicts.
	fl, err := pcsmon.NewFleet(sys, pcsmon.FleetOptions{Sample: cfg.Sample(), EmitEvery: -1})
	if err != nil {
		return nil, err
	}
	fleetReports := map[string]unitReport{}
	evDone := make(chan struct{})
	go func() {
		defer close(evDone)
		for ev := range fl.Events() {
			if v, ok := ev.Event.(pcsmon.VerdictReady); ok && v.Report != nil {
				fleetReports[ev.Plant] = toUnitReport(ev.Plant, v.Report)
			}
		}
	}()
	for u := 0; u < units; u++ {
		if counts[u] > 0 {
			if err := fl.Attach(pcsmon.PlantID(uint8(u)), cfg.OnsetIndex()); err != nil {
				return nil, err
			}
		}
	}

	mon := sys.Monitor()
	scaled := make([]float64, historian.NumVars)
	scores := make([]float64, mon.Model().NComponents())
	analyzers := make([]*core.OnlineAnalyzer, units)
	for u := range analyzers {
		if analyzers[u], err = sys.NewOnlineAnalyzer(cfg.OnsetIndex(), cfg.Sample()); err != nil {
			return nil, err
		}
	}

	root := tr.begin("trace.run", -1)
	frames := make([]fieldbus.Frame, traceChunk)
	redundant := make([]bool, traceChunk)
	rd := bytes.NewReader(wire.Bytes())
	pushed := uint64(0)
	score := func() error {
		if npairs == 0 {
			return nil
		}
		id := tr.begin("fleet.push", root)
		for _, p := range pairs[:npairs] {
			if err := fl.Push(pcsmon.PlantID(p.unit), p.ctrl, p.proc); err != nil {
				return err
			}
		}
		tr.end(id, npairs)
		pushed += uint64(npairs)
		id = tr.begin("fleet.handoff", root)
		for fl.Stats().Observations < pushed {
			runtime.Gosched()
		}
		tr.end(id, npairs)

		id = tr.begin("mspc.compute", root)
		for _, p := range pairs[:npairs] {
			if _, err := mon.ComputeInto(p.ctrl, scaled, scores); err != nil {
				return err
			}
			if _, err := mon.ComputeInto(p.proc, scaled, scores); err != nil {
				return err
			}
		}
		tr.end(id, 2*npairs)

		id = tr.begin("core.push", root)
		for _, p := range pairs[:npairs] {
			if _, err := analyzers[p.unit].Push(p.ctrl, p.proc); err != nil {
				return err
			}
		}
		tr.end(id, npairs)
		npairs = 0
		return nil
	}
	for off := 0; off < len(stream); off += traceChunk {
		n := min(traceChunk, len(stream)-off)
		chunk := frames[:n]

		id := tr.begin("fieldbus.decode", root)
		for k := range chunk {
			if buf, err = fieldbus.ReadFrameInto(rd, &chunk[k], buf); err != nil {
				return nil, err
			}
		}
		tr.end(id, n)

		id = tr.begin("fieldbus.dedup", root)
		for k := range chunk {
			redundant[k] = w.dedup > 0 && dedup.Redundant(&chunk[k])
		}
		tr.end(id, n)

		id = tr.begin("fieldbus.capture_write", root)
		for k := range chunk {
			if err := store.WriteAt(&chunk[k], stream[off+k].at); err != nil {
				return nil, err
			}
		}
		tr.end(id, n)

		id = tr.begin("pairing.offer", root)
		offered := 0
		for k := range chunk {
			if !redundant[k] {
				if err := cor.OfferFrame(&chunk[k]); err != nil {
					return nil, err
				}
				offered++
			}
		}
		tr.end(id, offered)

		if err := score(); err != nil {
			return nil, err
		}
	}
	if err := cor.Flush(); err != nil {
		return nil, err
	}
	if err := score(); err != nil {
		return nil, err
	}
	res.dedupHits = dedup.Dropped()

	coreReports := map[string]unitReport{}
	id := tr.begin("core.finish", root)
	for u, a := range analyzers {
		if counts[u] == 0 {
			continue
		}
		rep, err := a.Finish()
		if err != nil {
			return nil, err
		}
		if a.Detected() {
			res.alarmed++
		}
		coreReports[pcsmon.PlantID(uint8(u))] = toUnitReport(pcsmon.PlantID(uint8(u)), rep)
	}
	tr.end(id, len(coreReports))

	for _, plant := range fl.Plants() {
		if _, err := fl.Detach(plant); err != nil {
			return nil, err
		}
	}
	if err := fl.Close(); err != nil {
		return nil, err
	}
	<-evDone

	// The control plane's ingest runs on its own, after the fleet above
	// went idle, so its scoring workers overlap no other timed stage; the
	// frames are decoded again outside the spans.
	// An in-process control plane on the workload's config: record + dedup
	// + pair + push behind Plane.Ingest, no socket in front.
	pcfg := *cfg
	if pcfg.Record.Path != "" {
		pcfg.Record.Path = filepath.Join(dir, "plane", "chain")
		if err := os.MkdirAll(filepath.Dir(pcfg.Record.Path), 0o755); err != nil {
			return nil, err
		}
	}
	plane, err := control.New(&pcfg, control.Options{System: sys})
	if err != nil {
		return nil, err
	}
	defer func() { _ = plane.Close() }()

	rd = bytes.NewReader(wire.Bytes())
	for off := 0; off < len(stream); off += traceChunk {
		chunk := frames[:min(traceChunk, len(stream)-off)]
		for k := range chunk {
			if buf, err = fieldbus.ReadFrameInto(rd, &chunk[k], buf); err != nil {
				return nil, err
			}
		}
		id := tr.begin("control.ingest", root)
		for k := range chunk {
			if err := plane.Ingest(&chunk[k]); err != nil {
				return nil, err
			}
		}
		tr.end(id, len(chunk))
	}
	id = tr.begin("control.drain", root)
	if err := plane.Close(); err != nil {
		return nil, err
	}
	tr.end(id, 1)
	planeReports := map[string]unitReport{}
	for id, r := range plane.Reports() {
		planeReports[id] = unitReport{Unit: id, Verdict: r.Verdict, AttackedVar: r.AttackedVar, Explanation: r.Explanation}
	}
	if err := store.Close(); err != nil {
		return nil, err
	}

	// Read the recorded chain back.
	cr, err := fieldbus.OpenCaptureChain(filepath.Join(dir, "chain"), fieldbus.ChainOptions{})
	if err != nil {
		return nil, err
	}
	read := 0
	for done := false; !done; {
		id := tr.begin("fieldbus.chain_read", root)
		k := 0
		for ; k < traceChunk; k++ {
			_, _, err := cr.Next()
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				_ = cr.Close()
				return nil, err
			}
		}
		tr.end(id, k)
		read += k
	}
	_ = cr.Close()
	if read != len(stream) {
		res.mismatches = append(res.mismatches, fmt.Sprintf("trace: chain read back %d frames, %d written", read, len(stream)))
	}

	id = tr.begin("core.calibrate", root)
	f, err := os.Open(cfg.Calibration)
	if err != nil {
		return nil, err
	}
	cal, err := dataset.ReadCSV(f)
	_ = f.Close()
	if err != nil {
		return nil, err
	}
	if _, err := core.Calibrate(cal, core.Config{Components: cfg.Components}); err != nil {
		return nil, err
	}
	tr.end(id, 1)
	tr.end(root, res.obs)
	res.wall = time.Since(start)
	if tr != nil {
		res.totals = tr.totals()
	}

	// Oracle: every layer's reports against the batch reference.
	want, err := reference(in, sys, cfg, counts)
	if err != nil {
		return nil, err
	}
	for name, got := range map[string]map[string]unitReport{"core": coreReports, "fleet": fleetReports, "control": planeReports} {
		for _, m := range compareReports(want, got, nil) {
			res.mismatches = append(res.mismatches, "trace "+name+": "+m)
		}
	}
	return res, os.RemoveAll(dir)
}
