package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
	"pcsmon/internal/obs"
)

// TestStatusFlagValidation: bad status invocations fail up front.
func TestStatusFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                            // no addr
		{"a:1", "b:2"},                // two addrs
		{"-watch", "-1s", "host:123"}, // negative cadence
	} {
		var out bytes.Buffer
		if err := runStatus(args, &out); !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%v: want ErrBadConfig, got %v", args, err)
		}
	}
}

// TestStatusWatchRedraw: -watch renders are deterministic — each refresh
// is one atomic write that starts with the cursor-home + clear sequence,
// so the stream splits into exactly one complete frame per cycle and a
// later fetch repaints the same origin instead of scrolling. Driven for
// two refresh cycles against a fake /status server whose document changes
// between them.
func TestStatusWatchRedraw(t *testing.T) {
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/status" {
			http.NotFound(w, r)
			return
		}
		n := reqs.Add(1)
		doc := obs.StatusDoc{
			UptimeSeconds: float64(n),
			Totals:        map[string]float64{"fleet_observations": float64(100 * n)},
			Units: []obs.UnitStatus{{
				Unit:         "unit-000",
				Observations: uint64(100 * n),
				D99:          9.9, Q99: 3.3,
			}},
		}
		_ = json.NewEncoder(w).Encode(doc)
	}))
	defer srv.Close()

	var out bytes.Buffer
	err := runStatus([]string{
		"-watch", "10ms", "-n", "2",
		strings.TrimPrefix(srv.URL, "http://"),
	}, &out)
	if err != nil {
		t.Fatalf("status -watch: %v", err)
	}
	if got := reqs.Load(); got != 2 {
		t.Fatalf("fake server saw %d fetches, want 2", got)
	}

	// The stream is exactly clearScreen+frame, twice: nothing before the
	// first clear, nothing dangling after the second frame.
	parts := strings.Split(out.String(), clearScreen)
	if len(parts) != 3 || parts[0] != "" {
		t.Fatalf("output is not two clear-prefixed frames (got %d parts, lead %q):\n%q",
			len(parts), parts[0], out.String())
	}
	frames := parts[1:]
	for i, frame := range frames {
		obs := fmt.Sprintf("%d", 100*(i+1))
		for _, want := range []string{
			"monitor up", "UNIT", "unit-000", obs,
			"totals: fleet_observations=" + obs,
		} {
			if !strings.Contains(frame, want) {
				t.Errorf("frame %d missing %q:\n%q", i+1, want, frame)
			}
		}
		if !strings.HasPrefix(frame, "monitor up") {
			t.Errorf("frame %d does not start at the screen origin:\n%q", i+1, frame)
		}
	}
	// The second cycle's document superseded the first: no stale count.
	if strings.Contains(frames[1], "fleet_observations=100") {
		t.Errorf("second frame still shows the first fetch's totals:\n%q", frames[1])
	}

	// -n only bites in watch mode and must itself be validated.
	if err := runStatus([]string{"-n", "-1", "x:1"}, &out); !errors.Is(err, pcsmon.ErrBadConfig) {
		t.Errorf("-n -1: want ErrBadConfig, got %v", err)
	}
}

// metricNameRE is the naming lint: every exposed family is snake_case
// under the pcsmon_ prefix.
var metricNameRE = regexp.MustCompile(`^pcsmon_[a-z0-9]+(_[a-z0-9]+)*$`)

// lintExposition parses a Prometheus text exposition and enforces the
// repo's naming convention on every family: pcsmon_ prefix, snake_case,
// counters end in _total, gauges do not, histograms end in a unit suffix.
func lintExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	values := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			types[parts[0]] = parts[1]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil && fields[1] != "+Inf" {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		values[fields[0]] = v
		values[name] = v // unlabeled shorthand keeps the last series
	}
	if len(types) == 0 {
		t.Fatalf("no TYPE lines in exposition:\n%s", text)
	}
	for name, typ := range types {
		if !metricNameRE.MatchString(name) {
			t.Errorf("metric %q is not snake_case under the pcsmon_ prefix", name)
		}
		switch typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %q must end in _total", name)
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				t.Errorf("gauge %q must not end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") &&
				!strings.HasSuffix(name, "_frames") && !strings.HasSuffix(name, "_observations") {
				t.Errorf("histogram %q must end in a unit suffix", name)
			}
		default:
			t.Errorf("metric %q has unexpected type %q", name, typ)
		}
	}
	return values
}

// TestFleetMetricsEndpointE2E is the observability smoke test: a live
// fleet with -listen and -metrics serves a lint-clean Prometheus
// exposition, a stall-aware /healthz, a per-unit /status document that the
// status subcommand renders, and a -stats-every progress line — and the
// scraped counters agree with the frames actually fed and with the
// printed exit summary.
func TestFleetMetricsEndpointE2E(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)

	const (
		units = 2
		rows  = 80
	)
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-listen", "127.0.0.1:0",
			"-metrics", "127.0.0.1:0",
			"-stats-every", "150ms",
			// One observation beyond what the feed loop sends: the run keeps
			// serving the ops endpoints while we scrape, and a final kicker
			// frame ends it deterministically afterwards.
			"-max-obs", fmt.Sprint(units*rows + 1),
			"-idle", "30s",
		}, strings.NewReader(""), &out)
	}()

	// Both listener addresses appear in the output: the ops URL first
	// (printed before calibration), then the fieldbus address.
	var opsURL, addr string
	deadline := time.Now().Add(15 * time.Second)
	for opsURL == "" || addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("listener addresses never printed:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "ops listening on "); ok {
				opsURL = strings.Fields(rest)[0]
			} else if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addr = rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	cli, err := fieldbus.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	rng := rand.New(rand.NewSource(3))
	m := historian.NumVars
	for i := 0; i < rows; i++ {
		for u := 0; u < units; u++ {
			z := rng.NormFloat64()
			vals := make([]float64, m)
			for j := 0; j < m; j++ {
				vals[j] = 50 + 0.3*z + 0.3*rng.NormFloat64()
			}
			if err := cli.Send(&fieldbus.Frame{
				Type: fieldbus.FrameSensor, Unit: uint8(u), Seq: uint64(i + 1), Values: vals,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Scrape until the scoring pipeline has drained everything we sent.
	get := func(path string) (int, string) {
		resp, err := http.Get(opsURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
	wantObs := fmt.Sprintf("pcsmon_fleet_observations_total %d", units*rows)
	var exposition string
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		code, body := get("/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics: HTTP %d", code)
		}
		if strings.Contains(body, wantObs) {
			exposition = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never reached %q:\n%s", wantObs, body)
		}
	}

	// The exposition is lint-clean and its counters match the feed.
	values := lintExposition(t, exposition)
	for series, want := range map[string]float64{
		"pcsmon_pairing_frames_total":       units * rows,
		"pcsmon_transport_tcp_frames_total": units * rows,
		"pcsmon_fleet_active_streams":       units,
	} {
		if got, ok := values[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	for _, series := range []string{
		"pcsmon_fleet_scoring_latency_seconds_count",
		"pcsmon_fleet_scoring_latency_seconds_sum",
		"pcsmon_fleet_batch_occupancy_observations_count",
		"pcsmon_pairing_loss_ratio",
	} {
		if _, ok := values[series]; !ok {
			t.Errorf("exposition missing %s", series)
		}
	}

	// /healthz reports ok while traffic is fresh.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz: HTTP %d %s", code, body)
	}

	// /status carries per-unit health that matches the feed.
	_, statusBody := get("/status")
	var doc obs.StatusDoc
	if err := json.Unmarshal([]byte(statusBody), &doc); err != nil {
		t.Fatalf("/status: %v\n%s", err, statusBody)
	}
	if len(doc.Units) != units {
		t.Fatalf("/status has %d units, want %d:\n%s", len(doc.Units), units, statusBody)
	}
	for _, u := range doc.Units {
		if u.Observations != rows {
			t.Errorf("unit %s observations %d, want %d", u.Unit, u.Observations, rows)
		}
		if u.D99 <= 0 || u.Q99 <= 0 {
			t.Errorf("unit %s has no control limits (D99 %g, Q99 %g)", u.Unit, u.D99, u.Q99)
		}
	}
	if doc.Totals["fleet_observations"] != units*rows {
		t.Errorf("status totals fleet_observations = %v, want %d", doc.Totals["fleet_observations"], units*rows)
	}

	// The status subcommand renders the same document as a table.
	var table bytes.Buffer
	if err := runStatus([]string{strings.TrimPrefix(opsURL, "http://")}, &table); err != nil {
		t.Fatalf("status subcommand: %v", err)
	}
	for _, want := range []string{"UNIT", "unit-000", "unit-001", "totals:", "fleet_observations=160"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("status table missing %q:\n%s", want, table.String())
		}
	}

	// The kicker observation trips -max-obs and ends the run.
	if err := cli.Send(&fieldbus.Frame{
		Type: fieldbus.FrameSensor, Unit: 0, Seq: uint64(rows + 1),
		Values: make([]float64, m),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet never finished:\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{
		"stats: ", // the -stats-every progress line
		fmt.Sprintf("fleet: %d plants, %d observations", units, units*rows+1),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet output missing %q:\n%s", want, text)
		}
	}
}

// TestFleetCSVMetricsEndpointE2E covers the CSV mode's ops path: rows fed
// through a pipe are scraped mid-run, the /status totals carry exactly the
// fleet_* keys a control plane serves, /metrics is lint-clean, and the
// scraped counters match the printed exit summary.
func TestFleetCSVMetricsEndpointE2E(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)

	plants := []string{"alpha", "beta"}
	const rows = 120
	stream := interleavedCSV(t, 3, plants, rows, 0, 60, -30, map[string]bool{"beta": true})
	pr, pw := io.Pipe()
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{"-cal", cal, "-sample", "9", "-metrics", "127.0.0.1:0"}, pr, &out)
		_ = pr.Close() // unblock the feed if the run ended early
	}()
	var opsURL string
	for deadline := time.Now().Add(15 * time.Second); opsURL == ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ops address never printed:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "ops listening on "); ok {
				opsURL = strings.Fields(rest)[0]
			}
		}
	}
	if _, err := io.WriteString(pw, stream); err != nil {
		t.Fatalf("feed: %v\n%s", err, out.String())
	}

	// The pipe stays open: the run is still in progress while we scrape.
	get := func(path string) string {
		resp, err := http.Get(opsURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	var doc obs.StatusDoc
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if err := json.Unmarshal([]byte(get("/status")), &doc); err != nil {
			t.Fatalf("/status: %v", err)
		}
		if doc.Totals["fleet_observations"] == float64(len(plants)*rows) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/status never reached %d observations: %v", len(plants)*rows, doc.Totals)
		}
	}
	if len(doc.Units) != len(plants) {
		t.Errorf("/status has %d units, want %d", len(doc.Units), len(plants))
	}

	// CSV mode serves exactly the fleet_* totals of a control plane.
	sys, err := control.Calibrate(cal, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	p, err := control.New(&control.Config{}, control.Options{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	planeKeys := fleetKeys(p.Totals())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fleetKeys(doc.Totals); strings.Join(got, ",") != strings.Join(planeKeys, ",") {
		t.Errorf("CSV fleet_* totals %v, plane's %v", got, planeKeys)
	}

	values := lintExposition(t, get("/metrics"))
	if got := values["pcsmon_fleet_observations_total"]; got != float64(len(plants)*rows) {
		t.Errorf("pcsmon_fleet_observations_total = %v, want %d", got, len(plants)*rows)
	}

	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet never finished:\n%s", out.String())
	}
	want := fmt.Sprintf("fleet: %.0f plants, %.0f observations, %.0f alarms, ",
		doc.Totals["fleet_attached"], doc.Totals["fleet_observations"], doc.Totals["fleet_alarms"])
	if text := out.String(); !strings.Contains(text, want) {
		t.Errorf("fleet summary does not match the scraped totals %q:\n%s", want, text)
	}
	if doc.Totals["fleet_alarms"] == 0 {
		t.Errorf("shifted plant beta raised no alarm: %v", doc.Totals)
	}
}

// fleetKeys returns the sorted fleet_* keys of a /status totals map.
func fleetKeys(totals map[string]float64) []string {
	var keys []string
	for k := range totals {
		if strings.HasPrefix(k, "fleet_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
