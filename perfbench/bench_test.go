package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/fieldbus"
)

// testWorkload is a small replay-style workload: generation writes the
// calibration CSV, the pool and a rotated capture chain in well under a
// second.
func testWorkload() *workload {
	return &workload{
		name: "test", units: 8, anomalous: 4, onsetHour: 0.5,
		nocHours: 1, anomalyHours: 1, nocRuns: 2, maxRows: 300,
		calRuns: 1, calHours: 6, transport: "replay",
	}
}

func generateTest(t *testing.T, seed int64) (*inputs, runPaths) {
	t.Helper()
	rp := newRunPaths(t.TempDir())
	in, _, err := generate(testWorkload(), seed, rp)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return in, rp
}

// streamDigest hashes the wire image of every unit's frames in send order.
func streamDigest(t *testing.T, in *inputs) [32]byte {
	t.Helper()
	units := make([]int, len(in.UnitRows))
	for u := range units {
		units[u] = u
	}
	var wire bytes.Buffer
	var f fieldbus.Frame
	var buf []byte
	for _, p := range in.order(units, 0) {
		for view := 0; view < 2; view++ {
			in.frame(p[0], p[1], view, &f)
			var err error
			if buf, err = fieldbus.WriteFrameBuf(&wire, &f, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sha256.Sum256(wire.Bytes())
}

// chainDigest hashes every file of a capture chain (segments and index
// sidecars) by name and content.
func chainDigest(t *testing.T, base string) [32]byte {
	t.Helper()
	files, err := filepath.Glob(base + "*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no capture chain at %s: %v", base, err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(h, filepath.Base(name))
		_, _ = h.Write(data)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameInputs(t *testing.T) {
	a, rpa := generateTest(t, 7)
	b, rpb := generateTest(t, 7)
	c, rpc := generateTest(t, 8)
	if streamDigest(t, a) != streamDigest(t, b) {
		t.Error("seed 7 produced two different frame streams")
	}
	if chainDigest(t, rpa.capture) != chainDigest(t, rpb.capture) {
		t.Error("seed 7 produced two different capture chains")
	}
	if streamDigest(t, a) == streamDigest(t, c) {
		t.Error("seeds 7 and 8 produced the same frame stream")
	}
	if chainDigest(t, rpa.capture) == chainDigest(t, rpc.capture) {
		t.Error("seeds 7 and 8 produced the same capture chain")
	}
	// The UDP schedule is seeded too.
	sa, sb, sc := udpSchedule(a, 100, 2), udpSchedule(b, 100, 2), udpSchedule(c, 100, 2)
	for c := 0; c < 2; c++ {
		for k := 0; k < sa.slots(); k++ {
			ua, ia, va := sa.frameAt(c, k)
			ub, ib, vb := sb.frameAt(c, k)
			if ua != ub || ia != ib || va != vb {
				t.Fatalf("seed 7 udp schedules differ at collector %d slot %d", c, k)
			}
		}
	}
	same := true
	for k := 0; k < sa.slots() && same; k++ {
		ua, ia, va := sa.frameAt(0, k)
		uc, ic, vc := sc.frameAt(0, k)
		same = ua == uc && ia == ic && va == vc
	}
	if same {
		t.Error("seeds 7 and 8 produced the same udp schedule")
	}
}

// TestUDPScheduleReorderStaysInWindow checks the redundant-collector
// schedule: every frame is sent exactly once per collector, and no unit's
// frames are reordered by more than the pairing window.
func TestUDPScheduleReorderStaysInWindow(t *testing.T) {
	in, _ := generateTest(t, 3)
	s := udpSchedule(in, 100, 5)
	for c := 0; c < 2; c++ {
		seen := map[[3]int]int{}
		maxSeq := map[int]int{}
		for k := 0; k < s.slots(); k++ {
			u, i, v := s.frameAt(c, k)
			seen[[3]int{u, i, v}]++
			if i+64 < maxSeq[u] {
				t.Fatalf("collector %d: unit %d obs %d arrives after obs %d", c, u, i, maxSeq[u])
			}
			maxSeq[u] = max(maxSeq[u], i)
		}
		if len(seen) != 2*len(s.order) {
			t.Fatalf("collector %d sends %d distinct frames, want %d", c, len(seen), 2*len(s.order))
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("collector %d sends frame %v %d times", c, k, n)
			}
		}
	}
}

func TestOracleRejectsPlantedMismatch(t *testing.T) {
	in, rp := generateTest(t, 5)
	cfg, err := control.Load(rp.config)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := calibrateFile(rp.calCSV, cfg.Components)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(in, sys, cfg, in.UnitRows)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]unitReport{}
	for id, r := range want {
		got[id] = r
	}
	if bad := compareReports(want, got, nil); len(bad) != 0 {
		t.Fatalf("identical reports flagged: %v", bad)
	}

	// A shifted onset for one alarmed unit: scored as if the anomaly began
	// after its stream ended, the unit must no longer match.
	victim := -1
	for u := range in.UnitRows {
		if want[pcsmon.PlantID(uint8(u))].Verdict != "normal" {
			victim = u
			break
		}
	}
	if victim < 0 {
		t.Fatal("test workload has no alarmed unit")
	}
	ctrl, proc, err := in.views(victim, in.UnitRows[victim])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.AnalyzeViews(ctrl, proc, in.UnitRows[victim], cfg.Sample())
	if err != nil {
		t.Fatal(err)
	}
	id := pcsmon.PlantID(uint8(victim))
	got[id] = toUnitReport(id, rep)
	bad := compareReports(want, got, nil)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], id+":") {
		t.Fatalf("shifted onset on %s: mismatches %v, want exactly that unit", id, bad)
	}
	// A skipped (failed) unit is left out of the comparison.
	if bad := compareReports(want, got, map[string]bool{id: true}); len(bad) != 0 {
		t.Fatalf("skipped unit still flagged: %v", bad)
	}

	// Each compared field, a missing report and an unexpected one.
	other := pcsmon.PlantID(uint8((victim + 1) % len(in.UnitRows)))
	for name, mutate := range map[string]func(m map[string]unitReport){
		"verdict":     func(m map[string]unitReport) { r := m[other]; r.Verdict = "dos-attack-x"; m[other] = r },
		"attacked":    func(m map[string]unitReport) { r := m[other]; r.AttackedVar += 7; m[other] = r },
		"explanation": func(m map[string]unitReport) { r := m[other]; r.Explanation += "."; m[other] = r },
		"missing":     func(m map[string]unitReport) { delete(m, other) },
		"unexpected":  func(m map[string]unitReport) { m["unit-200"] = unitReport{Unit: "unit-200"} },
	} {
		m := map[string]unitReport{}
		for k, v := range want {
			m[k] = v
		}
		mutate(m)
		if bad := compareReports(want, m, nil); len(bad) != 1 {
			t.Errorf("%s: mismatches %v, want one", name, bad)
		}
	}
}

func TestLedger(t *testing.T) {
	ok := ledger{SentObs: 100, SentFrames: 400, Accepted: 200, Deduped: 200, Paired: 100, FleetObs: 100, Recorded: 400}
	if bad := ok.check(); len(bad) != 0 || ok.lost() != 0 {
		t.Fatalf("balanced ledger: %v, lost %d", bad, ok.lost())
	}
	tcp := ledger{SentObs: 100, SentFrames: 200, Accepted: 198, Paired: 99, Orphans: 0, FleetObs: 99, Recorded: -1, Reliable: true}
	if bad := tcp.check(); len(bad) != 1 || !strings.Contains(bad[0], "reliable") {
		t.Errorf("tcp frame shortfall: %v", bad)
	}
	udp := tcp
	udp.Reliable = false
	if bad := udp.check(); len(bad) != 0 || udp.lost() != 1 {
		t.Errorf("udp loss is failures, not an identity violation: %v, lost %d", bad, udp.lost())
	}
	for name, l := range map[string]ledger{
		"recorded":  {SentFrames: 10, Accepted: 10, Recorded: 9},
		"fleet":     {SentFrames: 10, Accepted: 10, Paired: 5, FleetObs: 4, Recorded: -1},
		"overcount": {SentFrames: 10, Accepted: 11, Recorded: -1},
	} {
		if bad := l.check(); len(bad) == 0 {
			t.Errorf("%s: imbalance not flagged", name)
		}
	}

	sent := []int{10, 20, 0, 5}
	scored := map[string]int{"unit-000": 10, "unit-001": 18, "unit-003": 5}
	drops := map[string][]string{"unit-003": {"gap"}, "unit-000": {"duplicate"}}
	failed, skip := failures(sent, scored, drops)
	if failed != 2+5 || !skip["unit-003"] || skip["unit-000"] || len(skip) != 1 {
		t.Errorf("failures = %d %v, want 7 with only unit-003 skipped", failed, skip)
	}
}

func TestSSEParser(t *testing.T) {
	f, err := os.Open("testdata/events.sse")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	sr := newSSEReader(f)
	counts := map[string]int{}
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		counts[ev.Type]++
		switch ev.Type {
		case "scored":
			if _, err := scoredIndex(ev.Data); err != nil {
				t.Error(err)
			}
			if _, err := unitNumber(ev.Unit); err != nil {
				t.Error(err)
			}
		case "verdict":
			var rep unitReport
			if err := json.Unmarshal(ev.Data, &rep); err != nil || rep.Verdict == "" || rep.Unit != ev.Unit {
				t.Errorf("verdict payload %s: %+v %v", ev.Data, rep, err)
			}
		}
	}
	if counts["attached"] == 0 || counts["scored"] == 0 || counts["verdict"] != 2 || counts["drain"] != 1 {
		t.Errorf("event counts %v", counts)
	}
	if sr.Dropped != 3 {
		t.Errorf("heartbeat drop count %d, want 3", sr.Dropped)
	}
	// A stream cut mid-event (the ops listener closing) ends cleanly.
	cut := newSSEReader(io.MultiReader(strings.NewReader("event: drain\ndata: {\"type\":\"drain\"}\n\nevent: verd"), errReader{io.ErrUnexpectedEOF}))
	if ev, err := cut.Next(); err != nil || ev.Type != "drain" {
		t.Fatalf("first event: %+v %v", ev, err)
	}
	if _, err := cut.Next(); err != io.EOF {
		t.Fatalf("cut stream: %v, want io.EOF", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func TestMetricsParser(t *testing.T) {
	f, err := os.Open("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	samples, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	depth, ok := promMax(samples, "pcsmon_fleet_mailbox_depth")
	if !ok || depth < 0 {
		t.Errorf("mailbox depth %v %v", depth, ok)
	}
	sum, ok1 := promSum(samples, "pcsmon_fleet_batch_occupancy_observations_sum")
	cnt, ok2 := promSum(samples, "pcsmon_fleet_batch_occupancy_observations_count")
	if !ok1 || !ok2 || cnt <= 0 || sum < cnt {
		t.Errorf("batch occupancy sum %v count %v", sum, cnt)
	}
	if _, ok := promMax(samples, "pcsmon_pairing_pending_frames"); !ok {
		t.Error("no pending-frames gauge")
	}
	workers := 0
	for _, s := range samples {
		if s.Name == "pcsmon_fleet_mailbox_depth" && strings.HasPrefix(s.Labels, `worker="`) {
			workers++
		}
	}
	if workers == 0 {
		t.Error("mailbox depth has no worker labels")
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("malformed line accepted")
	}

	data, err := os.ReadFile("testdata/status.json")
	if err != nil {
		t.Fatal(err)
	}
	var st statusDoc
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	var l ledger
	ledgerFromStatus(&l, st.Totals)
	if l.Accepted == 0 || l.Deduped == 0 || l.FleetObs != l.Paired+l.Orphans {
		t.Errorf("status ledger %+v", l)
	}
}

func TestReplayParser(t *testing.T) {
	data, err := os.ReadFile("testdata/replay.out")
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseReplayReports(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if out.Frames != 128000 || out.Observations != 64000 {
		t.Errorf("summary: %d frames, %d observations", out.Frames, out.Observations)
	}
	if want := []int{128000, 64000, 0, 0, 0, 0, 0, 0, 0, 0}; len(out.Pairing) != len(want) {
		t.Errorf("pairing counts %v", out.Pairing)
	}
	if len(out.Reports) != 6 || out.Samples["unit-003"] != 1000 {
		t.Fatalf("reports %d, unit-003 samples %d", len(out.Reports), out.Samples["unit-003"])
	}
	r := out.Reports["unit-003"]
	if r.Verdict != "integrity-attack" || r.AttackedVar != mustVar(t, "XMV(3)") || !strings.Contains(r.Explanation, "actuator channel") {
		t.Errorf("unit-003 report %+v", r)
	}
	if r := out.Reports["unit-000"]; r.AttackedVar != -1 || r.Verdict != "normal" {
		t.Errorf("unit-000 report %+v", r)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if id, idx, ok := parseScoredLine(line); ok {
			n++
			if _, err := unitNumber(id); err != nil || idx != 0 {
				t.Errorf("scored line %q -> %s %d", line, id, idx)
			}
		}
	}
	if n != 3 {
		t.Errorf("%d scored lines, want 3", n)
	}
	if _, err := parseReplayReports(strings.NewReader("plant unit-001: normal after 5 observations\n")); err == nil {
		t.Error("report without explanation accepted")
	}
}

func mustVar(t *testing.T, name string) int {
	t.Helper()
	j, err := varIndex(name)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWindowedStatistics(t *testing.T) {
	var samples []latSample
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			ms := 1.0
			if i >= 985 {
				ms = 10 // p99 of a window is 10
			}
			if w == 3 {
				ms *= 50 // one stalled window
			}
			samples = append(samples, latSample{Due: 0.5 + float64(w) + float64(i)/1000, Ms: ms})
		}
	}
	p99, n := windowedPercentile(samples, 0.5, 1, 0.99, 1000)
	if n != 5 || p99 != 10 {
		t.Errorf("windowed p99 = %v over %d windows, want 10 over 5", p99, n)
	}
	if _, n := windowedPercentile(samples[:500], 0.5, 1, 0.99, 1000); n != 0 {
		t.Errorf("a window of 500 samples supported a p99")
	}
	trace := []progress{{0, 0}, {0.5, 100}, {1.0, 200}, {1.5, 250}, {2.0, 300}, {2.5, 2000}}
	rate, n := windowedRate(trace, 1)
	if n != 2 || rate != 150 {
		t.Errorf("windowed rate = %v over %d windows, want 150 over 2", rate, n)
	}
}
