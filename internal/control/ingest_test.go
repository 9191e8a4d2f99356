package control

import (
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/fleet"
	"pcsmon/internal/historian"
)

// pairingTestSystem calibrates a small synthetic system (milliseconds, not
// the plant-simulation lab) for the ingest tests.
func pairingTestSystem(tb testing.TB) *core.System {
	tb.Helper()
	rng := rand.New(rand.NewSource(99))
	d, err := dataset.New(historian.VarNames())
	if err != nil {
		tb.Fatal(err)
	}
	m := historian.NumVars
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < 600; i++ {
		z := rng.NormFloat64()
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			row[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		if err := d.Append(row); err != nil {
			tb.Fatal(err)
		}
	}
	sys, err := core.Calibrate(d, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// pairingRows generates one unit's paired stream with the calibration's
// latent structure: from row shiftFrom, the controller view of channel
// shiftCh moves by -delta and the process view by +delta (delta 0 = NOC).
func pairingRows(seed int64, n, shiftCh, shiftFrom int, delta float64) (ctrl, proc [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	m := historian.NumVars
	w := make([]float64, m)
	wr := rand.New(rand.NewSource(99))
	for j := range w {
		w[j] = wr.NormFloat64()
	}
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		c := make([]float64, m)
		for j := 0; j < m; j++ {
			c[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		p := append([]float64(nil), c...)
		if delta != 0 && i >= shiftFrom {
			c[shiftCh] -= delta
			p[shiftCh] += delta
		}
		ctrl = append(ctrl, c)
		proc = append(proc, p)
	}
	return ctrl, proc
}

// ingestPlane starts a listener-less plane over sys with a 9 s sample, the
// given onset index and pairing/fleet geometry, and returns it with the
// map its OnEvent fills with every unit's full report. Read the map only
// after Drain.
func ingestPlane(t *testing.T, sys *core.System, onset int, pairing Pairing, fc FleetCfg) (*Plane, map[string]*core.Report) {
	t.Helper()
	cfg := &Config{SampleSeconds: 9, OnsetHour: float64(onset) * 9 / 3600, Pairing: pairing, Fleet: fc}
	if got := cfg.OnsetIndex(); got != onset {
		t.Fatalf("config onset index %d, want %d", got, onset)
	}
	reports := map[string]*core.Report{}
	p, err := New(cfg, Options{System: sys, OnEvent: func(ev fleet.Event) {
		if v, ok := ev.(fleet.Verdict); ok {
			reports[v.Plant] = v.Report
		}
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p, reports
}

// obsFrame builds one observation frame.
func obsFrame(typ fieldbus.FrameType, unit uint8, seq uint64, row []float64) *fieldbus.Frame {
	return &fieldbus.Frame{Type: typ, Unit: unit, Seq: seq, Values: row}
}

func mustIngest(t *testing.T, p *Plane, f *fieldbus.Frame) {
	t.Helper()
	if err := p.Ingest(f); err != nil {
		t.Fatal(err)
	}
}

// TestPlaneIngestTwoView: the full live path — interleaved sensor and
// actuator frames of three units (one quiet, one with cross-view
// divergence, one with a mid-stream actuator blackout) through the plane's
// pairing ingest into the fleet. The diverging unit must be classified as
// an integrity attack, the blacked-out one as DoS with a view-stalled
// event, and the quiet one as normal.
func TestPlaneIngestTwoView(t *testing.T) {
	const (
		rows  = 260
		onset = 130
	)
	p, reports := ingestPlane(t, pairingTestSystem(t), onset,
		Pairing{Window: 16, StallAfter: 8, TimeoutSeconds: -1}, FleetCfg{Workers: 2})
	sub := p.bus.subscribe(4096)

	ctrl0, proc0 := pairingRows(11, rows, 0, onset, 0)  // quiet
	ctrl1, proc1 := pairingRows(12, rows, 0, onset, 25) // cross-view divergence
	ctrl2, proc2 := pairingRows(13, rows, 5, onset, 0)  // quiet data...
	for i := onset; i < rows; i++ {
		ctrl2[i][5] += 25 // ...but the plant moves while the actuator view is dark
	}
	views := [3][2][][]float64{{ctrl0, proc0}, {ctrl1, proc1}, {ctrl2, proc2}}
	for i := 0; i < rows; i++ {
		for u, v := range views {
			mustIngest(t, p, obsFrame(fieldbus.FrameSensor, uint8(u), uint64(i), v[0][i]))
			if blackout := u == 2 && i >= onset; !blackout {
				mustIngest(t, p, obsFrame(fieldbus.FrameActuator, uint8(u), uint64(i), v[1][i]))
			}
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	if v := reports[pcsmon.PlantID(0)].Verdict; v != pcsmon.VerdictNormal {
		t.Errorf("quiet unit verdict %v", v)
	}
	if r := reports[pcsmon.PlantID(1)]; r.Verdict != pcsmon.VerdictIntegrityAttack {
		t.Errorf("diverging unit verdict %v (%s)", r.Verdict, r.Explanation)
	}
	if r := reports[pcsmon.PlantID(2)]; r.Verdict != pcsmon.VerdictDoS {
		t.Errorf("blackout unit verdict %v (%s) — want DoS-consistent, not silent single-view monitoring",
			r.Verdict, r.Explanation)
	}

	// The bus closed with the drain; every pairing event is buffered. The
	// payloads keep the wire field names of the /events schema.
	var attached []string
	var stalls, heldDrops int
	for frame := range sub.ch {
		_, data, _ := strings.Cut(string(frame), "\ndata: ")
		var ev struct {
			Type string
			Unit string
			Data json.RawMessage
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("event %q: %v", frame, err)
		}
		var fields map[string]json.RawMessage
		_ = json.Unmarshal(ev.Data, &fields)
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		switch ev.Type {
		case "attached":
			attached = append(attached, ev.Unit)
		case "view-stalled":
			stalls++
			var e viewStalled
			_ = json.Unmarshal(ev.Data, &e)
			if e.Unit != 2 || e.View != "actuator" || ev.Unit != pcsmon.PlantID(2) {
				t.Errorf("stall event %+v (plant %s)", e, ev.Unit)
			}
			if want := []string{"Seq", "Unit", "View"}; !reflect.DeepEqual(keys, want) {
				t.Errorf("view-stalled payload fields %v, want %v", keys, want)
			}
		case "pair-dropped":
			var e pairDropped
			_ = json.Unmarshal(ev.Data, &e)
			if e.Held {
				heldDrops++
				if e.Unit != 2 || e.Kind != "orphan-sensor" {
					t.Errorf("held drop %+v", e)
				}
			}
			if want := []string{"Held", "Kind", "Seq", "Span", "Unit"}; !reflect.DeepEqual(keys, want) {
				t.Errorf("pair-dropped payload fields %v, want %v", keys, want)
			}
		}
	}
	if len(attached) != 3 {
		t.Errorf("attached events %v, want 3", attached)
	}
	if stalls != 1 {
		t.Errorf("%d view-stalled events, want 1", stalls)
	}
	if heldDrops != rows-onset {
		t.Errorf("%d held-orphan events, want %d", heldDrops, rows-onset)
	}

	st := p.cor.Stats()
	if st.Units != 3 || st.Stalls != 1 {
		t.Errorf("stats %+v", st)
	}
	if sum := 2*st.Paired + st.OrphanSensors + st.OrphanActuators + st.Duplicates + st.Stale + st.Outliers + st.PendingFrames; st.Frames != sum {
		t.Errorf("frame conservation: %+v", st)
	}
}

// directReport scores rows straight into a scoring pool, bypassing
// pairing: the golden report the ingest must reproduce bit for bit.
func directReport(t *testing.T, sys *core.System, onset int, ctrl, proc [][]float64) *core.Report {
	t.Helper()
	fl, err := fleet.NewPool(sys, fleet.Config{Workers: 2, EmitEvery: -1, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range fl.Events() {
		}
	}()
	st, err := fl.Attach("unit-000", onset)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctrl {
		if err := st.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := st.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
	return rep
}

// TestPlaneIngestParity: frames through the plane's ingest must produce
// a report bit-identical to the same rows pushed straight into a fleet —
// even when the frame stream is skewed, bursty and duplicated.
func TestPlaneIngestParity(t *testing.T) {
	sys := pairingTestSystem(t)
	const (
		rows  = 220
		onset = 110
	)
	ctrl, proc := pairingRows(21, rows, 3, onset, 20)
	golden := directReport(t, sys, onset, ctrl, proc)

	p, reports := ingestPlane(t, sys, onset, Pairing{Window: 32, TimeoutSeconds: -1}, FleetCfg{Workers: 2})
	// Adversarial but window-bounded interleaving: the actuator view runs
	// 5 observations behind, frames inside each 8-obs burst are reversed,
	// and every 7th frame is duplicated.
	var frames []*fieldbus.Frame
	for i := 0; i < rows; i++ {
		frames = append(frames, obsFrame(fieldbus.FrameSensor, 0, uint64(i), ctrl[i]))
		if i >= 5 {
			frames = append(frames, obsFrame(fieldbus.FrameActuator, 0, uint64(i-5), proc[i-5]))
		}
	}
	for i := rows - 5; i < rows; i++ {
		frames = append(frames, obsFrame(fieldbus.FrameActuator, 0, uint64(i), proc[i]))
	}
	for start := 0; start < len(frames); start += 8 {
		sub := frames[start:min(start+8, len(frames))]
		for l, r := 0, len(sub)-1; l < r; l, r = l+1, r-1 {
			sub[l], sub[r] = sub[r], sub[l]
		}
	}
	for i, f := range frames {
		mustIngest(t, p, f)
		if i%7 == 0 {
			mustIngest(t, p, f) // duplicate flood
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := p.cor.Stats()
	if st.Paired != rows {
		t.Fatalf("reordered replay lost pairings: %+v", st)
	}
	if st.Duplicates+st.Stale == 0 {
		t.Fatalf("duplicate flood unaccounted: %+v", st)
	}
	if rep := reports["unit-000"]; !reflect.DeepEqual(rep, golden) {
		t.Errorf("paired-ingest report differs from direct push:\npaired: %+v\ndirect: %+v", rep, golden)
	}
	if golden.Verdict != pcsmon.VerdictIntegrityAttack {
		t.Errorf("golden verdict %v (%s)", golden.Verdict, golden.Explanation)
	}
}

// TestPlaneIngestBatchedParity: the plane's pairing ingest feeding batched
// mailboxes — with the actuator view running behind the sensor view —
// produces reports bit-identical to per-observation delivery.
func TestPlaneIngestBatchedParity(t *testing.T) {
	sys := pairingTestSystem(t)
	const (
		rows  = 220
		onset = 110
		skew  = 5
	)
	ctrl, proc := pairingRows(21, rows, 3, onset, 20)

	run := func(batch int) *pcsmon.Report {
		t.Helper()
		p, reports := ingestPlane(t, sys, onset, Pairing{Window: 32, TimeoutSeconds: -1},
			FleetCfg{Workers: 2, Batch: batch})
		for i := 0; i < rows; i++ {
			mustIngest(t, p, obsFrame(fieldbus.FrameSensor, 0, uint64(i), ctrl[i]))
			if i >= skew {
				mustIngest(t, p, obsFrame(fieldbus.FrameActuator, 0, uint64(i-skew), proc[i-skew]))
			}
		}
		for i := rows - skew; i < rows; i++ {
			mustIngest(t, p, obsFrame(fieldbus.FrameActuator, 0, uint64(i), proc[i]))
		}
		if err := p.Drain(); err != nil {
			t.Fatalf("batch=%d: Drain: %v", batch, err)
		}
		if st := p.cor.Stats(); st.Paired != rows {
			t.Fatalf("batch=%d: skewed replay lost pairings: %+v", batch, st)
		}
		return reports["unit-000"]
	}

	golden := run(1)
	for _, batch := range []int{3, 16} {
		if got := run(batch); !reflect.DeepEqual(got, golden) {
			t.Errorf("batch=%d: pairing-ingest report differs from unbatched:\nbatched:   %+v\nunbatched: %+v",
				batch, got, golden)
		}
	}
	if golden.Verdict != pcsmon.VerdictIntegrityAttack {
		t.Errorf("golden verdict %v (%s)", golden.Verdict, golden.Explanation)
	}
}

// TestPlaneIngestDedup: with pairing.dedup set, content-identical frames
// are suppressed at the door — two redundant collectors tapping the same
// wire feed one correlator without polluting duplicate accounting.
func TestPlaneIngestDedup(t *testing.T) {
	p, reports := ingestPlane(t, pairingTestSystem(t), 0, Pairing{Dedup: 8, TimeoutSeconds: -1}, FleetCfg{Workers: 2})
	const rows = 40
	ctrl, proc := pairingRows(41, rows, 0, 0, 0)
	for i := 0; i < rows; i++ {
		for _, f := range []*fieldbus.Frame{
			obsFrame(fieldbus.FrameSensor, 7, uint64(i), ctrl[i]),
			obsFrame(fieldbus.FrameActuator, 7, uint64(i), proc[i]),
		} {
			// First tap delivers the frame...
			before := p.Accepted()
			mustIngest(t, p, f)
			if p.Accepted() != before+1 {
				t.Fatalf("first tap not offered (frame %d)", i)
			}
			// ...the second tap's identical copy is suppressed.
			mustIngest(t, p, f.Clone())
			if p.Accepted() != before+1 {
				t.Fatalf("redundant copy offered (frame %d)", i)
			}
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := p.deduped(); got != 2*rows {
		t.Errorf("deduped = %d, want %d", got, 2*rows)
	}
	// The pairing layer never saw the copies: clean pairing, no duplicates,
	// no loss.
	st := p.cor.Stats()
	if st.Frames != 2*rows || st.Paired != rows || st.Duplicates != 0 {
		t.Errorf("stats %+v — redundant frames leaked past dedup", st)
	}
	if st.LossRate() != 0 {
		t.Errorf("loss rate %v on a clean deduped feed", st.LossRate())
	}
	if v := reports[pcsmon.PlantID(7)].Verdict; v != pcsmon.VerdictNormal {
		t.Errorf("verdict %v", v)
	}
}

// TestPlaneFailedUnitDrainKeepsIngest: a per-unit drain that fails (404,
// the unit never attached) must change nothing — the unit's later frames
// attach it on first sight, are scored, and it gets a report. A drain
// that marks the unit before finding it unknown black-holes it.
func TestPlaneFailedUnitDrainKeepsIngest(t *testing.T) {
	cfg := testPlaneConfig(t, t.TempDir())
	cfg.Ops.AuthToken = "sesame"
	var logBuf syncBuffer
	p, err := New(cfg, Options{Out: &logBuf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()

	resp := do(t, http.MethodPost, p.OpsURL()+"/units/9/drain", "sesame", nil)
	b, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain of a never-attached unit = %d (%s), want 404", resp.StatusCode, b)
	}
	const rows = 40
	for _, f := range syntheticFrames(9, 61, rows, -1) {
		mustIngest(t, p, f)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	totals := p.Totals()
	if got := totals["pairing_quiesced_drops"]; got != 0 {
		t.Errorf("pairing_quiesced_drops = %g after a failed drain, want 0", got)
	}
	if got := totals["fleet_observations"]; got != rows {
		t.Errorf("fleet_observations = %g, want %d", got, rows)
	}
	rep, ok := p.Reports()["unit-009"]
	if !ok {
		t.Fatalf("unit-009 got no report after a failed drain\n%s", logBuf.String())
	}
	if rep.Verdict != pcsmon.VerdictNormal.String() {
		t.Errorf("unit-009 verdict %s (%s)", rep.Verdict, rep.Explanation)
	}
	if !strings.Contains(logBuf.String(), "plant unit-009 attached") {
		t.Errorf("no attach line for unit-009:\n%s", logBuf.String())
	}
}

// TestPlaneDetachRacingIngestLosesNothing pins the plane's handle
// protocol: one goroutine feeds a unit's two views through Ingest while
// the test detaches the unit in a loop, so pushes keep landing on a handle
// that was just detached and take the attach-and-retry branch. Oracle:
// every observation the correlator handed on (paired or orphaned) is
// scored into exactly one verdict.
func TestPlaneDetachRacingIngestLosesNothing(t *testing.T) {
	const (
		unit = 3
		rows = 20_000
	)
	sys := pairingTestSystem(t)
	var samples int // written by the event pump, read after Close
	cfg := &Config{SampleSeconds: 9, Pairing: Pairing{Window: 32, TimeoutSeconds: -1}, Fleet: FleetCfg{Workers: 2}}
	p, err := New(cfg, Options{System: sys, OnEvent: func(ev fleet.Event) {
		if v, ok := ev.(fleet.Verdict); ok {
			samples += v.Samples
		}
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctrl, proc := pairingRows(5, 64, 0, 0, 0)
	fed := make(chan error, 1)
	go func() {
		defer close(fed)
		for i := 0; i < rows; i++ {
			seq, r := uint64(i), i%len(ctrl)
			if err := p.Ingest(obsFrame(fieldbus.FrameSensor, unit, seq, ctrl[r])); err != nil {
				fed <- err
				return
			}
			if err := p.Ingest(obsFrame(fieldbus.FrameActuator, unit, seq, proc[r])); err != nil {
				fed <- err
				return
			}
		}
	}()
	detaches := 0
	for done := false; !done; {
		select {
		case err, open := <-fed:
			if open {
				t.Fatal(err)
			}
			done = true
		default:
			if _, err := p.detach(unit, false); err == nil || !errors.Is(err, fleet.ErrUnknownPlant) {
				detaches++
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if detaches == 0 {
		t.Fatal("no detach landed while the feed ran")
	}
	st := p.cor.Stats()
	if want := st.Paired + st.OrphanSensors + st.OrphanActuators; uint64(samples) != want {
		t.Errorf("correlator handed on %d observations, verdicts scored %d: %d lost across %d detaches",
			want, samples, int64(want)-int64(samples), detaches)
	}
	t.Logf("%d observations scored across %d detaches", samples, detaches)
}
