package control

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
)

// writeSyntheticCal writes a CSV of n correlated 53-variable NOC
// observations — the calibration fixture (mirrors the mspctool test
// helper; it lives in package main and cannot be imported).
func writeSyntheticCal(t *testing.T, path string, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	m := historian.NumVars
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			row[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		if err := d.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if err := d.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
}

// calLoadings reproduces the writeSyntheticCal(seed 3) population's
// loading vector, so frame streams share the calibration's correlation
// structure and stay in control until deliberately perturbed.
func calLoadings() []float64 {
	wrng := rand.New(rand.NewSource(3))
	w := make([]float64, historian.NumVars)
	for j := range w {
		w[j] = wrng.NormFloat64()
	}
	return w
}

// syntheticFrames generates rows two-view observation frames for one
// unit drawn from the writeSyntheticCal population: the controller view
// and process view agree except that channel 0 diverges in opposite
// directions from row divergeFrom on (-1 = stay in control) — the
// cross-view integrity signature. seed varies only the noise draw; the
// loadings match the calibration population.
func syntheticFrames(unit uint8, seed int64, rows, divergeFrom int) []*fieldbus.Frame {
	rng := rand.New(rand.NewSource(seed))
	m := historian.NumVars
	w := calLoadings()
	out := make([]*fieldbus.Frame, 0, 2*rows)
	for i := 0; i < rows; i++ {
		z := rng.NormFloat64()
		ctrl := make([]float64, m)
		for j := 0; j < m; j++ {
			ctrl[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		proc := append([]float64(nil), ctrl...)
		if divergeFrom >= 0 && i >= divergeFrom {
			ctrl[0] -= 30
			proc[0] += 30
		}
		out = append(out,
			&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: unit, Seq: uint64(i + 1), Values: ctrl},
			&fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: unit, Seq: uint64(i + 1), Values: proc})
	}
	return out
}

// testPlaneConfig builds a runnable config over a fresh synthetic
// calibration file: loopback listeners, age flushing off so the frame
// accounting is exact.
func testPlaneConfig(t *testing.T, dir string) *Config {
	t.Helper()
	cal := filepath.Join(dir, "cal.csv")
	writeSyntheticCal(t, cal, 3, 800)
	return &Config{
		Calibration:   cal,
		SampleSeconds: 9,
		Listeners:     Listeners{TCP: "127.0.0.1:0"},
		Ops:           Ops{Addr: "127.0.0.1:0"},
		Pairing:       Pairing{TimeoutSeconds: -1},
	}
}

// syncBuffer is a log sink safe for the plane's concurrent writers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func mustJSON(t *testing.T, r io.Reader, into any) {
	t.Helper()
	if err := json.NewDecoder(r).Decode(into); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// do issues one authed API request and returns the response.
func do(t *testing.T, method, url, token string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPlaneLifecycleHTTP is the control plane's single-process e2e: live
// ingest, the full mutating API (attach conflict, detach + re-attach
// mid-stream, per-unit drain), config introspection and reload, the SSE
// event stream, and a lossless full drain that seals the capture tail.
func TestPlaneLifecycleHTTP(t *testing.T) {
	dir := t.TempDir()
	cfg := testPlaneConfig(t, dir)
	cfg.Ops.AuthToken = "sesame"
	cfg.Record = Record{
		Path:         filepath.Join(dir, "rec", "plant"),
		SegmentBytes: 64 << 10, // force at least one rotation
		FlushSeconds: -1,
	}
	if err := os.MkdirAll(filepath.Dir(cfg.Record.Path), 0o755); err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	p, err := New(cfg, Options{Out: &logBuf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	base := p.OpsURL()

	// Subscribe to /events before any traffic so the stream sees the
	// lifecycle from the start.
	type sse struct{ event, data string }
	events := make(chan sse, 256)
	sseResp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer func() { _ = sseResp.Body.Close() }()
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		sc := bufio.NewScanner(sseResp.Body)
		var cur sse
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				events <- cur
				cur = sse{}
			}
		}
	}()
	waitEvent := func(typ string) sse {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case ev := <-events:
				if ev.event == typ {
					return ev
				}
			case <-deadline:
				t.Fatalf("event %q never arrived\nlog:\n%s", typ, logBuf.String())
			}
		}
	}

	const rows = 260
	unit0 := syntheticFrames(0, 21, rows, -1)  // in control throughout
	unit1 := syntheticFrames(1, 22, rows, 130) // integrity divergence mid-stream

	// Interleave the two units like a live bus would.
	for i := 0; i < len(unit0); i++ {
		if err := p.Ingest(unit0[i]); err != nil {
			t.Fatalf("ingest unit0: %v", err)
		}
		if err := p.Ingest(unit1[i]); err != nil {
			t.Fatalf("ingest unit1: %v", err)
		}
	}
	waitEvent("attached")

	// GET /units/{id}: live health for an attached unit, 404 for a unit
	// never seen.
	resp := do(t, http.MethodGet, base+"/units/unit-000", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /units/unit-000 = %d", resp.StatusCode)
	}
	var unitDoc struct {
		Unit   string `json:"unit"`
		Health *struct {
			Observations uint64 `json:"observations"`
		} `json:"health"`
	}
	mustJSON(t, resp.Body, &unitDoc)
	_ = resp.Body.Close()
	if unitDoc.Unit != "unit-000" || unitDoc.Health == nil {
		t.Errorf("unit doc = %+v, want live health", unitDoc)
	}
	if resp := do(t, http.MethodGet, base+"/units/unit-250", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown unit = %d, want 404", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	if resp := do(t, http.MethodGet, base+"/units/boiler", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET bad unit id = %d, want 400", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}

	// Mutations demand the bearer token; attach of an attached unit is 409.
	if resp := do(t, http.MethodPost, base+"/units/0/attach", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated attach = %d, want 401", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	if resp := do(t, http.MethodPost, base+"/units/0/attach", "sesame", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate attach = %d, want 409", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}

	// GET /config serves the live document with the token masked.
	resp = do(t, http.MethodGet, base+"/config", "", nil)
	var gotCfg Config
	mustJSON(t, resp.Body, &gotCfg)
	_ = resp.Body.Close()
	if gotCfg.Ops.AuthToken != "[redacted]" {
		t.Errorf("GET /config auth_token = %q, want masked", gotCfg.Ops.AuthToken)
	}
	if gotCfg.Calibration != cfg.Calibration {
		t.Errorf("GET /config calibration = %q", gotCfg.Calibration)
	}

	// POST /reload: a frozen-field change is refused with 409 and nothing
	// applied; a reloadable change lands.
	frozen := *cfg
	frozen.Fleet.Workers = 2
	body, _ := json.Marshal(&frozen)
	if resp := do(t, http.MethodPost, base+"/reload", "sesame", bytes.NewReader(body)); resp.StatusCode != http.StatusConflict {
		t.Errorf("frozen reload = %d, want 409", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	reloadable := *cfg
	reloadable.Ops.HealthzStallSeconds = 3600
	body, _ = json.Marshal(&reloadable)
	if resp := do(t, http.MethodPost, base+"/reload", "sesame", bytes.NewReader(body)); resp.StatusCode != http.StatusOK {
		t.Errorf("reloadable reload = %d, want 200", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	if got := p.ops.StallAfter(); got != time.Hour {
		t.Errorf("stall horizon after reload = %v, want 1h", got)
	}

	// Drain unit 1: its verdict is served, and residual frames of the
	// drained unit are dropped, not resurrected.
	resp = do(t, http.MethodPost, base+"/units/unit-001/drain", "sesame", nil)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("drain unit 1 = %d: %s", resp.StatusCode, b)
	}
	var drainDoc struct {
		State   string `json:"state"`
		Verdict string `json:"verdict"`
	}
	mustJSON(t, resp.Body, &drainDoc)
	_ = resp.Body.Close()
	if drainDoc.State != "drained" || drainDoc.Verdict == "" {
		t.Errorf("unit drain doc = %+v", drainDoc)
	}
	waitEvent("drained")
	residual := syntheticFrames(1, 23, 5, -1)
	for _, f := range residual {
		if err := p.Ingest(f); err != nil {
			t.Fatalf("residual ingest: %v", err)
		}
	}
	if got := p.quiescedDrops.Load(); got != uint64(len(residual)) {
		t.Errorf("quiesced drops = %d, want %d", got, len(residual))
	}
	resp = do(t, http.MethodGet, base+"/units/unit-001", "", nil)
	var afterDrain struct {
		Report *UnitReport `json:"report"`
	}
	mustJSON(t, resp.Body, &afterDrain)
	_ = resp.Body.Close()
	if afterDrain.Report == nil || afterDrain.Report.Verdict != drainDoc.Verdict {
		t.Errorf("unit 1 report after drain = %+v, want verdict %q", afterDrain.Report, drainDoc.Verdict)
	}
	if resp := do(t, http.MethodPost, base+"/units/unit-001/detach", "sesame", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("detach of drained unit = %d, want 404", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}

	// Detach unit 0 mid-stream, then keep sending: it re-attaches on first
	// sight and neither panics nor disturbs the other units.
	if resp := do(t, http.MethodPost, base+"/units/0/detach", "sesame", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("detach unit 0 = %d", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	waitEvent("detached")
	const extraRows = 40
	reattach := syntheticFrames(0, 24, extraRows, -1)
	for i, f := range reattach {
		f.Seq = uint64(rows + i/2 + 1) // continue unit 0's sequence space
		if err := p.Ingest(f); err != nil {
			t.Fatalf("re-attach ingest: %v", err)
		}
	}
	waitEvent("attached")

	// Attach a brand-new unit explicitly via the API.
	if resp := do(t, http.MethodPost, base+"/units/7/attach", "sesame", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("attach unit 7 = %d, want 200", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}

	// Full drain over HTTP: blocks until every accepted frame is scored.
	resp = do(t, http.MethodPost, base+"/drain", "sesame", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain = %d", resp.StatusCode)
	}
	var fullDrain struct {
		State    string `json:"state"`
		Accepted uint64 `json:"accepted"`
	}
	mustJSON(t, resp.Body, &fullDrain)
	_ = resp.Body.Close()
	select {
	case <-p.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("Drained() not closed after POST /drain returned")
	}

	// Losslessness: every frame accepted pre-drain became a scored
	// observation (two frames pair into one observation; no age flushing,
	// no dedup, so the arithmetic is exact).
	wantAccepted := uint64(len(unit0) + len(unit1) + len(reattach))
	if fullDrain.Accepted != wantAccepted {
		t.Errorf("accepted = %d, want %d", fullDrain.Accepted, wantAccepted)
	}
	totals := p.Totals()
	wantObs := float64(rows + rows + extraRows)
	if got := totals["fleet_observations"]; got != wantObs {
		t.Errorf("fleet_observations = %g, want %g (frame loss across drain)", got, wantObs)
	}
	reports := p.Reports()
	for _, id := range []string{"unit-000", "unit-001", "unit-007"} {
		if _, ok := reports[id]; !ok {
			t.Errorf("no final report for %s after drain (have %v)", id, len(reports))
		}
	}

	// Frames are refused after drain, and so are attaches.
	if err := p.Ingest(unit0[0]); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain Ingest err = %v, want ErrDraining", err)
	}
	if resp := do(t, http.MethodPost, base+"/units/9/attach", "sesame", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("post-drain attach = %d, want 409", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}

	// The capture tail is sealed: every segment has its index sidecar.
	segs, err := filepath.Glob(filepath.Join(dir, "rec", "*.pcscap"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("capture segments = %v (err %v), want a rotated chain", segs, err)
	}
	for _, seg := range segs {
		idx := strings.TrimSuffix(seg, ".pcscap") + ".pcsidx"
		if _, err := os.Stat(idx); err != nil {
			t.Errorf("segment %s has no sealed index: %v", filepath.Base(seg), err)
		}
	}

	// The SSE stream observed the lifecycle and was closed by the drain.
	waitEvent("drain")
	waitEvent("verdict")
	select {
	case <-sseDone:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream not terminated by drain")
	}

	// Drain is idempotent and Close only adds the ops teardown.
	if err := p.Drain(); err != nil {
		t.Errorf("second Drain: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestPlaneTCPIngest drives frames through the plane's TCP listener —
// the wire path — instead of the in-process entry.
func TestPlaneTCPIngest(t *testing.T) {
	cfg := testPlaneConfig(t, t.TempDir())
	var logBuf syncBuffer
	p, err := New(cfg, Options{Out: &logBuf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()

	cli, err := fieldbus.Dial(p.tcp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 80
	for _, f := range syntheticFrames(3, 31, rows, -1) {
		if err := cli.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Accepted() < 2*rows {
		if time.Now().After(deadline) {
			t.Fatalf("accepted %d of %d frames\n%s", p.Accepted(), 2*rows, logBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(p.OpsURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\npcsmon_transport_tcp_frames_total %d\n", 2*rows); !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(want), body)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rep, ok := p.Reports()["unit-003"]
	if !ok {
		t.Fatalf("no report for unit-003\n%s", logBuf.String())
	}
	if rep.Verdict != pcsmon.VerdictNormal.String() {
		t.Errorf("NOC stream verdict = %s (%s)", rep.Verdict, rep.Explanation)
	}
}

// TestPlanePairTimeoutFollowsInjectedClock: with Options.Clock set, the
// pairing layer stamps arrivals and ages them on that clock alone — a
// lone sensor frame is orphaned exactly when the injected clock reaches
// the pairing timeout, not before, and wall time plays no part.
func TestPlanePairTimeoutFollowsInjectedClock(t *testing.T) {
	cfg := testPlaneConfig(t, t.TempDir())
	cfg.Pairing.TimeoutSeconds = 1
	var now atomic.Int64
	now.Store(time.Date(2001, 9, 9, 0, 0, 0, 0, time.UTC).UnixNano()) // far from the wall clock
	p, err := New(cfg, Options{Clock: func() time.Time { return time.Unix(0, now.Load()) }})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	if err := p.Ingest(syntheticFrames(4, 41, 1, -1)[0]); err != nil { // the sensor frame only
		t.Fatal(err)
	}
	orphans := func() uint64 { return p.cor.Stats().OrphanSensors }

	// One nanosecond short of the horizon, over several wall-clock ticks
	// of the plane's tick loop: still pending.
	now.Add(int64(time.Second) - 1)
	time.Sleep(300 * time.Millisecond)
	if n := orphans(); n != 0 {
		t.Fatalf("lone frame orphaned %d times before the injected clock reached the timeout", n)
	}
	now.Add(1)
	deadline := time.Now().Add(5 * time.Second)
	for orphans() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("lone frame not orphaned once the injected clock reached the timeout (orphans %d)", orphans())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPlaneCloseKeepsSSETail: Drain then Close back to back must not cut
// off an /events subscriber — every unit's verdict and the drain event
// arrive before the stream ends.
func TestPlaneCloseKeepsSSETail(t *testing.T) {
	cfg := testPlaneConfig(t, t.TempDir())
	p, err := New(cfg, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	resp, err := http.Get(p.OpsURL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	type result struct {
		verdicts map[string]bool
		drain    bool
	}
	got := make(chan result, 1)
	go func() {
		r := result{verdicts: map[string]bool{}}
		sc := bufio.NewScanner(resp.Body)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "verdict":
				var ev Event
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
					r.verdicts[ev.Unit] = true
				}
			case strings.HasPrefix(line, "data: ") && event == "drain":
				r.drain = true
			}
		}
		got <- r
	}()
	for deadline := time.Now().Add(5 * time.Second); p.bus.nsubs.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the /events subscriber never registered")
		}
	}

	const units = 96
	for u := 0; u < units; u++ {
		for _, f := range syntheticFrames(uint8(u), int64(50+u), 4, -1) {
			if err := p.Ingest(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case r := <-got:
		if !r.drain {
			t.Error("the drain event never arrived")
		}
		if len(r.verdicts) != units {
			t.Errorf("%d of %d verdict events arrived before the stream ended", len(r.verdicts), units)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the /events stream did not end after Close")
	}
}

// TestPlaneSSEPayloadKeys pins the /events wire format of the scoring
// events: the envelope and the scored, alarm and verdict payloads keep
// their JSON keys, in order. SSE consumers (dashboards, the bench
// generator reading "scored".Index) parse these documents.
func TestPlaneSSEPayloadKeys(t *testing.T) {
	cfg := testPlaneConfig(t, t.TempDir())
	// One scored event in 16 keeps the stream inside the subscriber's
	// 256-frame buffer; the adaptive refits give the quiet unit its
	// model-swapped events.
	cfg.Fleet.EmitEvery = 16
	cfg.Adapt = Adapt{Every: 300}
	p, err := New(cfg, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	resp, err := http.Get(p.OpsURL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	first := make(chan map[string]string, 1) // event type -> first data line
	go func() {
		seen := map[string]string{}
		sc := bufio.NewScanner(resp.Body)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if _, ok := seen[event]; !ok {
					seen[event] = strings.TrimPrefix(line, "data: ")
				}
			}
		}
		first <- seen
	}()
	for deadline := time.Now().Add(5 * time.Second); p.bus.nsubs.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the /events subscriber never registered")
		}
	}
	// Unit 1 diverges from row 60 on and raises the alarms; unit 2 stays
	// in control long enough for refits to land as swaps.
	frames := append(syntheticFrames(1, 22, 120, 60), syntheticFrames(2, 23, 1000, -1)...)
	for _, f := range frames {
		if err := p.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var seen map[string]string
	select {
	case seen = <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("the /events stream did not end after Close")
	}
	want := map[string][]string{
		"scored":        {"Index", "CtrlD", "CtrlQ", "ProcD", "ProcQ", "CtrlOver", "ProcOver"},
		"alarm":         {"View", "Index", "RunStart", "Charts"},
		"model-swapped": {"Index", "Generation", "D99", "Q99"},
		"verdict":       {"unit", "verdict", "attacked_var", "explanation", "detached_at"},
	}
	for typ, keys := range want {
		line, ok := seen[typ]
		if !ok {
			t.Errorf("no %q event on the stream", typ)
			continue
		}
		var env map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if got := jsonKeys(t, []byte(line)); fmt.Sprint(got) != fmt.Sprint([]string{"type", "unit", "data"}) {
			t.Errorf("%s envelope keys %v", typ, got)
		}
		if got := jsonKeys(t, env["data"]); fmt.Sprint(got) != fmt.Sprint(keys) {
			t.Errorf("%s payload keys %v, want %v", typ, got, keys)
		}
	}
}

// jsonKeys returns a JSON object's top-level keys in document order.
func jsonKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", doc)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestPlaneReloadFromFile covers the SIGHUP path: Reload(nil) re-reads
// Options.ConfigPath and applies the per-unit onset overrides live.
func TestPlaneReloadFromFile(t *testing.T) {
	dir := t.TempDir()
	cfg := testPlaneConfig(t, dir)
	path := filepath.Join(dir, "plant.json")
	writeCfg := func(c *Config) {
		t.Helper()
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCfg(cfg)
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(loaded, Options{ConfigPath: path})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()

	if got := p.onsetFor(9); got != -1 {
		t.Fatalf("unit 9 onset before reload = %d, want -1 (inherit)", got)
	}
	next := *loaded
	h := 2.0
	next.Units = map[string]UnitCfg{"unit-009": {OnsetHour: &h}}
	writeCfg(&next)
	if err := p.Reload(nil); err != nil {
		t.Fatalf("Reload(nil): %v", err)
	}
	if got, want := p.onsetFor(9), int(2*3600/9); got != want {
		t.Errorf("unit 9 onset after reload = %d, want %d", got, want)
	}
	// A frozen edit on disk is rejected wholesale.
	frozen := next
	frozen.Listeners.TCP = "127.0.0.1:1"
	writeCfg(&frozen)
	if err := p.Reload(nil); !errors.Is(err, ErrNotReloadable) {
		t.Errorf("frozen file reload = %v, want ErrNotReloadable", err)
	}
	if got, want := p.onsetFor(9), int(2*3600/9); got != want {
		t.Errorf("failed reload clobbered the onset table: %d, want %d", got, want)
	}
}

// TestPlaneScoringHotPathZeroAlloc guards the acceptance criterion that
// mounting the control plane does not put allocations on the scoring hot
// path: once warm, pairing + scoring an observation through a fully
// mounted plane (ops server up, SSE bus idle, no recording) allocates
// nothing. Like the fleet-level variant, each measured batch waits for
// the worker to score it, so batch boxes are back in the free-list before
// the next push — burst-mode pool growth is not an allocation of the
// scoring path.
func TestPlaneScoringHotPathZeroAlloc(t *testing.T) {
	cfg := testPlaneConfig(t, t.TempDir())
	const batch = 8
	cfg.Fleet.Workers = 1
	cfg.Fleet.Batch = batch
	cfg.Fleet.FlushEveryMS = -1 // deliver on full batches only
	p, err := New(cfg, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()

	// An in-population row: off-population data would alarm on every
	// observation and the alarm events, not the scoring path, would be
	// measured.
	m := historian.NumVars
	w := calLoadings()
	sens, act := make([]float64, m), make([]float64, m)
	for j := 0; j < m; j++ {
		sens[j] = 50 + 0.4*w[j]
		act[j] = sens[j]
	}
	sf := &fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: 5, Seq: 1, Values: sens}
	af := &fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: 5, Seq: 1, Values: act}
	offer := func() {
		_ = p.Ingest(sf)
		_ = p.Ingest(af)
		sf.Seq++
		af.Seq++
	}
	var pushed uint64
	pushBatch := func() {
		for i := 0; i < batch; i++ {
			offer()
			pushed++
		}
		for p.fl.Stats().Observations < pushed {
			runtime.Gosched()
		}
	}
	// The correlator holds its first reorder window back until the window
	// advances; flush one window of pairs through so every later in-order
	// pair emits (and scores) at offer time — otherwise the wait above
	// never sees the tail of a batch.
	for i := 0; i < 64; i++ {
		offer()
		pushed++
	}
	if err := p.cor.Flush(); err != nil {
		t.Fatalf("prime flush: %v", err)
	}
	for p.fl.Stats().Observations < pushed {
		runtime.Gosched()
	}
	// Warm every pool and ring buffer well past the run-rule window.
	for i := 0; i < 40; i++ {
		pushBatch()
	}
	avg := testing.AllocsPerRun(100, pushBatch)
	perObs := avg / batch
	if perObs > 0.01 && !raceEnabled {
		t.Errorf("hot path allocates %.3f per observation with the plane mounted, want 0", perObs)
	}
}

// BenchmarkPlaneIngestHotPath measures one paired observation through a
// fully mounted plane — the serve-mode steady state.
func BenchmarkPlaneIngestHotPath(b *testing.B) {
	dir := b.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSyntheticCal(&testing.T{}, cal, 3, 800)
	cfg := &Config{
		Calibration:   cal,
		SampleSeconds: 9,
		Listeners:     Listeners{TCP: "127.0.0.1:0"},
		Ops:           Ops{Addr: "127.0.0.1:0"},
		Pairing:       Pairing{TimeoutSeconds: -1},
	}
	p, err := New(cfg, Options{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	m := historian.NumVars
	w := calLoadings()
	sens := make([]float64, m)
	for j := 0; j < m; j++ {
		sens[j] = 50 + 0.4*w[j]
	}
	sf := &fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: 5, Seq: 1, Values: sens}
	af := &fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: 5, Seq: 1, Values: sens}
	offer := func() {
		_ = p.Ingest(sf)
		_ = p.Ingest(af)
		sf.Seq++
		af.Seq++
	}
	for sf.Seq < 64 {
		offer()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer()
	}
}

// TestNewCalibrationOnlyWithoutSystem: calibration is required only when
// New has to calibrate. With Options.System the file is never opened, so
// a config without one builds; without either, New fails naming the path.
func TestNewCalibrationOnlyWithoutSystem(t *testing.T) {
	p, err := New(&Config{}, Options{System: pairingTestSystem(t)})
	if err != nil {
		t.Fatalf("New with Options.System and no calibration: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err = New(&Config{}, Options{})
	if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "calibration") {
		t.Errorf("New without calibration or System: err = %v, want ErrBadConfig naming calibration", err)
	}
}
