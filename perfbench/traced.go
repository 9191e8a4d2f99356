package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// runTraced runs the stage runner untraced and traced on the workload's
// frame stream and reports the per-layer metrics, the tracing overhead,
// the single-threaded baseline and the stage budget's gap to the
// service's measured CPU per observation.
func (r *runState) runTraced() error {
	stream := traceStream(r.w, r.in, udpRate, r.opts.seconds/float64(max(1, r.w.passes)))
	dir := filepath.Join(r.rp.dir, "trace")
	plain, err := runStages(r.w, r.in, r.sys, r.cfg, stream, dir, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := runStages(r.w, r.in, r.sys, r.cfg, stream, dir, tr)
	if err != nil {
		return err
	}
	r.bad = append(r.bad, plain.mismatches...)
	r.bad = append(r.bad, traced.mismatches...)
	traces := filepath.Join(filepath.Dir(r.opts.workdir), "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return err
	}
	spans := filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", r.w.name, r.opts.seed))
	if err := tr.write(spans); err != nil {
		return err
	}

	t := traced.totals
	obs := float64(traced.obs)
	per := func(stage string, scale float64) float64 {
		s := t[stage]
		if s.items == 0 {
			return 0
		}
		return float64(s.ns) / float64(s.items) / scale
	}
	allocs := func(stage string) float64 { return float64(t[stage].allocs) / obs }

	r.set("fieldbus.decode_ns_per_frame", per("fieldbus.decode", 1), "ns")
	r.set("fieldbus.dedup_ns_per_frame", per("fieldbus.dedup", 1), "ns")
	r.set("fieldbus.dedup_hit_ratio", float64(traced.dedupHits)/float64(traced.frames), "ratio")
	r.set("fieldbus.capture_write_ns_per_frame", per("fieldbus.capture_write", 1), "ns")
	r.set("fieldbus.chain_read_ns_per_frame", per("fieldbus.chain_read", 1), "ns")
	r.set("pairing.offer_ns_per_frame", per("pairing.offer", 1), "ns")
	r.set("pairing.paired_ratio", float64(traced.paired)/obs, "ratio")
	r.set("fleet.push_ns_per_obs", per("fleet.push", 1), "ns")
	r.set("fleet.handoff_us_per_obs", per("fleet.handoff", 1e3), "us")
	r.set("mspc.compute_ns_per_view", per("mspc.compute", 1), "ns")
	r.set("core.push_ns_per_obs", per("core.push", 1), "ns")
	r.set("core.finish_us_per_unit", per("core.finish", 1e3), "us")
	r.set("core.alarmed_units", float64(traced.alarmed), "count")
	r.set("core.calibrate_ms", per("core.calibrate", 1e6), "ms")
	r.set("control.ingest_ns_per_frame", per("control.ingest", 1), "ns")
	if r.w.transport == "replay" {
		r.set("control.drain_ms", per("control.drain", 1e6), "ms")
	}
	for _, stage := range []string{"fieldbus.decode", "fieldbus.dedup", "fieldbus.capture_write", "fieldbus.chain_read",
		"pairing.offer", "control.ingest", "fleet.push", "mspc.compute", "core.push", "core.finish"} {
		r.set(stage+".allocs_per_obs", allocs(stage), "count")
	}

	// The service path's stage budget per observation. Socket workloads:
	// decode every frame, then Plane.Ingest (record, dedup, pair, fleet
	// hand-off) every frame, then the worker's scoring and diagnosis.
	// Replay: chain read, pairing and fleet push per frame/observation.
	framesPerObs := float64(traced.frames) / obs
	ns := func(stage string) float64 { return float64(t[stage].ns) / obs }
	budget := ns("core.push") + ns("core.finish")
	switch r.w.transport {
	case "replay":
		budget += ns("fieldbus.chain_read") + ns("pairing.offer") + ns("fleet.push")
	default:
		budget += ns("fieldbus.decode") + ns("control.ingest")
	}
	r.set("stage_gap_ratio", 1-budget/(r.e2eCPU*1e3), "ratio")
	r.set("trace.overhead_ratio", traced.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	single := ns("fieldbus.decode") + ns("pairing.offer") + ns("core.push") + ns("core.finish")
	if r.w.dedup > 0 {
		single += ns("fieldbus.dedup")
	}
	r.set("baseline.single_thread_obs_per_s", 1e9/single, "1/s")
	r.note("traced run: %d frames (%.2f per observation), %d observations, %d spans in %s; wall %.3fs traced, %.3fs untraced",
		traced.frames, framesPerObs, traced.obs, len(tr.spans), spans, traced.wall.Seconds(), plain.wall.Seconds())
	return nil
}
