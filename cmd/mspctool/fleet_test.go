package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
)

// interleavedCSV builds a multi-plant fleet stream: rows "plant,<53 vars>"
// round-robin across the plants, with the named plants' channel shifted
// after shiftFrom so they alarm while the rest stay in control.
func interleavedCSV(t *testing.T, seed int64, plants []string, rows, shiftCh, shiftFrom int, delta float64, attacked map[string]bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := historian.NumVars
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	var sb strings.Builder
	sb.WriteString("plant," + strings.Join(historian.VarNames(), ","))
	sb.WriteString("\n")
	for i := 0; i < rows; i++ {
		for _, p := range plants {
			z := rng.NormFloat64()
			sb.WriteString(p)
			for j := 0; j < m; j++ {
				v := 50 + z*w[j] + 0.3*rng.NormFloat64()
				if attacked[p] && i >= shiftFrom && j == shiftCh {
					v += delta
				}
				fmt.Fprintf(&sb, ",%g", v)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

func TestFleetSubcommandCSV(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)

	plants := []string{"alpha", "beta", "gamma"}
	stream := interleavedCSV(t, 3, plants, 260, 0, 130, -30,
		map[string]bool{"beta": true})
	var out bytes.Buffer
	err := runFleet([]string{
		"-cal", cal,
		"-sample", "9",
		"-onset-hour", "0.325", // row 130 at 9 s samples
		"-batch", "4", // exercise the batching knob end to end
	}, strings.NewReader(stream), &out)
	if err != nil {
		t.Fatalf("fleet: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"plant alpha attached",
		"plant beta attached",
		"plant gamma attached",
		"ALARM [beta/",
		"fleet: 3 plants, 780 observations",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet output missing %q:\n%s", want, text)
		}
	}
	// The shifted plant alarms; single-view streams cannot diverge, so the
	// quiet plants must be classified normal.
	for _, quiet := range []string{"alpha", "gamma"} {
		if !strings.Contains(text, "plant "+quiet+": normal") {
			t.Errorf("plant %s not classified normal:\n%s", quiet, text)
		}
	}
	if strings.Contains(text, "plant beta: normal") {
		t.Errorf("attacked plant beta classified normal:\n%s", text)
	}
	if strings.Contains(text, "ALARM [alpha/") || strings.Contains(text, "ALARM [gamma/") {
		t.Errorf("false alarm on a quiet plant:\n%s", text)
	}
}

func TestFleetSubcommandRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	var out bytes.Buffer
	if err := runFleet(nil, strings.NewReader(""), &out); err == nil {
		t.Error("missing -cal accepted")
	}
	if err := runFleet([]string{"-cal", cal}, strings.NewReader("a,b\n"), &out); err == nil {
		t.Error("narrow header accepted")
	}
	header := "plant," + strings.Join(historian.VarNames(), ",") + "\n"
	if err := runFleet([]string{"-cal", cal}, strings.NewReader(header+",1\n"), &out); err == nil {
		t.Error("empty plant id accepted")
	}
	// Lines and fields are numbered over the whole record, plant column
	// included.
	vars := strings.Repeat(",1", historian.NumVars)
	for _, c := range []struct{ body, want string }{
		{"a" + vars + "\n" + vars + "\n", "line 3: empty plant id"},
		{"a" + vars + "\nb,x" + vars[2:] + "\n", `line 3 field 2 "x": not a number`},
		{"a" + vars[:len(vars)-1] + "y\n", `line 2 field 54 "y": not a number`},
	} {
		err := runFleet([]string{"-cal", cal}, strings.NewReader(header+c.body), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("got %v, want %q", err, c.want)
		}
	}
}

// syncBuffer lets the test read the command's output while the TCP server
// goroutine is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFleetSubcommandTCPIdleWithoutTraffic: the idle timer counts from
// startup, so a listener nobody ever connects to still terminates.
func TestFleetSubcommandTCPIdleWithoutTraffic(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- runFleet([]string{
			"-cal", cal,
			"-listen", "127.0.0.1:0",
			"-idle", "250ms",
		}, strings.NewReader(""), &out)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fleet tcp idle: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("idle listener never terminated:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "fleet: 0 plants, 0 observations") {
		t.Errorf("unexpected summary:\n%s", out.String())
	}
}

func TestFleetSubcommandTCP(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)

	const (
		units = 3
		rows  = 120
	)
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-listen", "127.0.0.1:0",
			"-max-obs", fmt.Sprint(units * rows),
			"-idle", "30s", // the observation cap, not idleness, ends the run
		}, strings.NewReader(""), &out)
	}()

	// Wait for the listener address to appear in the output.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("listener address never printed:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
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
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		for u := 0; u < units; u++ {
			z := rng.NormFloat64()
			vals := make([]float64, m)
			for j := 0; j < m; j++ {
				vals[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
			}
			if u == 1 && i >= 60 {
				vals[0] -= 30 // unit 1 drifts out of control mid-stream
			}
			// Sequence numbers are per unit; a sensor-only feed degrades to
			// single-view monitoring through the pairing path.
			if err := cli.Send(&fieldbus.Frame{
				Type: fieldbus.FrameSensor, Unit: uint8(u), Seq: uint64(i + 1), Values: vals,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// An undersized frame must be ignored, not crash the demux.
	if err := cli.Send(&fieldbus.Frame{
		Type: fieldbus.FrameSensor, Unit: 9, Seq: 1, Values: []float64{1, 2, 3},
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet tcp: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet tcp never finished:\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{
		"plant unit-000 attached",
		"plant unit-001 attached",
		"plant unit-002 attached",
		"ALARM [unit-001/",
		"pairing: ",
		fmt.Sprintf("fleet: 3 plants, %d observations", units*rows),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet tcp output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "unit-009") {
		t.Errorf("undersized frame attached a plant:\n%s", text)
	}
	// A sensor-only feed is plain single-view operation, not a blackout.
	if strings.Contains(text, "VIEW STALL") {
		t.Errorf("single-view feed reported a view stall:\n%s", text)
	}
}

// TestFleetSubcommandTCPTwoView: paired sensor+actuator frames over a real
// socket get the full cross-view diagnosis — the diverging unit is
// classified as an integrity attack, which no single-view stream can ever
// conclude — and a mid-stream actuator blackout on another unit is
// surfaced as a view stall and classified DoS instead of silently
// degrading.
func TestFleetSubcommandTCPTwoView(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)

	const (
		units = 3
		rows  = 200
		shift = 100
	)
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-onset-hour", "0.25", // row 100 at 9 s samples
			"-listen", "127.0.0.1:0",
			"-pair-window", "32",
			"-max-obs", fmt.Sprint(units * rows),
			"-idle", "30s",
		}, strings.NewReader(""), &out)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("listener address never printed:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
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
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		for u := 0; u < units; u++ {
			z := rng.NormFloat64()
			ctrl := make([]float64, m)
			for j := 0; j < m; j++ {
				ctrl[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
			}
			proc := append([]float64(nil), ctrl...)
			switch {
			case u == 1 && i >= shift:
				// A forged channel: the two views disagree about var 0.
				ctrl[0] -= 30
				proc[0] += 30
			case u == 2 && i >= shift:
				// The plant moves while its actuator view goes dark below.
				ctrl[3] += 30
				proc[3] += 30
			}
			if err := cli.Send(&fieldbus.Frame{
				Type: fieldbus.FrameSensor, Unit: uint8(u), Seq: uint64(i + 1), Values: ctrl,
			}); err != nil {
				t.Fatal(err)
			}
			if u == 2 && i >= shift {
				continue // actuator-view blackout on unit 2
			}
			if err := cli.Send(&fieldbus.Frame{
				Type: fieldbus.FrameActuator, Unit: uint8(u), Seq: uint64(i + 1), Values: proc,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet tcp two-view: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet tcp two-view never finished:\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{
		"plant unit-000 attached",
		"plant unit-000: normal",
		"ALARM [unit-001/",
		"plant unit-001: integrity-attack",
		"VIEW STALL [unit-002] actuator frames missing",
		"plant unit-002: dos-attack",
		"pairing: ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet tcp two-view output missing %q:\n%s", want, text)
		}
	}
}

// TestFleetSubcommandTCPShortFeed: a feed shorter than the reorder window
// leaves all emission — including the first-sight attach and its output
// callback — to the final flush. This is the regression test for a
// deadlock where that flush ran while holding the output mutex the
// callbacks need.
func TestFleetSubcommandTCPShortFeed(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)

	const rows = 10 // far fewer than the default 64-deep window
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-listen", "127.0.0.1:0",
			"-max-obs", fmt.Sprint(rows),
			"-idle", "30s",
		}, strings.NewReader(""), &out)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("listener address never printed:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
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
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		z := rng.NormFloat64()
		vals := make([]float64, m)
		for j := 0; j < m; j++ {
			vals[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		if err := cli.Send(&fieldbus.Frame{
			Type: fieldbus.FrameSensor, Unit: 0, Seq: uint64(i), Values: vals,
		}); err != nil {
			t.Fatal(err)
		}
		if err := cli.Send(&fieldbus.Frame{
			Type: fieldbus.FrameActuator, Unit: 0, Seq: uint64(i), Values: vals,
		}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet tcp short feed: %v\n%s", err, out.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("short feed hung (flush deadlock):\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{
		"plant unit-000 attached",
		fmt.Sprintf("pairing: %d frames -> %d paired, 0 orphaned", 2*rows, rows),
		"plant unit-000: normal",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("short-feed output missing %q:\n%s", want, text)
		}
	}
}

// TestFleetFlagValidation: every bad flag combination must fail up front
// with an ErrBadConfig-wrapped error, before calibration or any streaming —
// no panics, no silently ignored flags.
func TestFleetFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	cases := [][]string{
		{"-cal", cal, "-sample", "0"},
		{"-cal", cal, "-sample", "-4.5"},
		{"-cal", cal, "-onset-hour", "-1"},
		{"-cal", cal, "-components", "-2"},
		{"-cal", cal, "-workers", "-1"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-max-obs", "-5"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-idle", "-1s"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-pair-window", "0"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-pair-window", "-4"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-pair-timeout", "-1s"},
		{"-cal", cal, "-max-obs", "10"},      // TCP-only flag without -listen
		{"-cal", cal, "-idle", "1s"},         // TCP-only flag without -listen
		{"-cal", cal, "-pair-window", "16"},  // TCP-only flag without -listen
		{"-cal", cal, "-pair-timeout", "1s"}, // TCP-only flag without -listen
		{"-cal", cal, "-record", "x.cap"},    // live-only flag without a listener
		{"-cal", cal, "-dedup", "4"},         // live-only flag without a listener
		{"-cal", cal, "-record-flush", "2s"}, // live-only flag without a listener
		{"-cal", cal, "-listen", "127.0.0.1:0", "-dedup", "-1"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-record", "x.cap", "-record-segment-bytes", "-1"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-record", "x.cap", "-record-keep-age", "-1s"},
		{"-cal", cal, "-listen", "127.0.0.1:0", "-record-segment-bytes", "4096"}, // rotation without -record
		{"-cal", cal, "-listen", "127.0.0.1:0", "-record-keep", "3"},             // retention without -record
		{"-cal", cal, "-adapt-every", "-10"},
		{"-cal", cal, "-adapt-every", "100", "-adapt-forget", "1.5"},
		{"-cal", cal, "-adapt-every", "100", "-adapt-forget", "0"},
		{"-cal", cal, "-adapt-forget", "0.99"}, // forget without cadence
		{"-cal", cal, "-batch", "-1"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		err := runFleet(args, strings.NewReader(""), &out)
		if !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%v: want ErrBadConfig, got %v", args, err)
		}
		if strings.Contains(out.String(), "calibrated") {
			t.Errorf("%v: calibration ran before validation", args)
		}
	}
}

// TestFleetSubcommandAdaptive: the -adapt-every/-adapt-forget pair must
// drive the adaptive pool end to end — NOC plants classified normal, the
// attacked plant still localized.
func TestFleetSubcommandAdaptive(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	plants := []string{"alpha", "beta"}
	stream := interleavedCSV(t, 3, plants, 260, 0, 130, -30,
		map[string]bool{"beta": true})
	var out bytes.Buffer
	err := runFleet([]string{
		"-cal", cal,
		"-sample", "9",
		"-onset-hour", "0.325",
		"-adapt-every", "64",
		"-adapt-forget", "0.999",
	}, strings.NewReader(stream), &out)
	if err != nil {
		t.Fatalf("runFleet: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "plant alpha: normal") {
		t.Errorf("alpha not normal:\n%s", text)
	}
	// Single-view streams cannot diverge, so the shifted plant reads as an
	// anomaly/disturbance — it must alarm and must not be normal.
	if !strings.Contains(text, "ALARM [beta/") || strings.Contains(text, "plant beta: normal") {
		t.Errorf("beta not flagged:\n%s", text)
	}
	if !strings.Contains(text, "MODEL SWAP [") {
		t.Errorf("no model swaps surfaced:\n%s", text)
	}
}

// udpAddrOf scrapes the UDP listen address from the command's output.
func udpAddrOf(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on udp://"); ok {
				return rest
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("UDP listener address never printed:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetSubcommandUDPTwoView: the lossy transport end to end — paired
// sensor+actuator frames as datagrams, with duplicates and reordering
// injected on the way (plus a burst of corrupt datagrams), still reach the
// cross-view verdicts: the diverging unit is an integrity attack, the
// clean unit normal, and the corrupt datagrams are counted, not fatal.
func TestFleetSubcommandUDPTwoView(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)

	const (
		units = 2
		rows  = 200
		shift = 100
	)
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-onset-hour", "0.25", // row 100 at 9 s samples
			"-listen-udp", "127.0.0.1:0",
			"-pair-window", "32",
			"-pair-timeout", "500ms",
			"-max-obs", fmt.Sprint(units * rows),
			"-idle", "2s", // datagram loss must not hang the cap
		}, strings.NewReader(""), &out)
	}()
	addr := udpAddrOf(t, &out)

	cli, err := fieldbus.DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()

	rng := rand.New(rand.NewSource(3))
	m := historian.NumVars
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	// Build the frame schedule first so reordering can be injected.
	var frames []*fieldbus.Frame
	for i := 0; i < rows; i++ {
		for u := 0; u < units; u++ {
			z := rng.NormFloat64()
			ctrl := make([]float64, m)
			for j := 0; j < m; j++ {
				ctrl[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
			}
			proc := append([]float64(nil), ctrl...)
			if u == 1 && i >= shift {
				ctrl[0] -= 30 // the two views disagree: a forged channel
				proc[0] += 30
			}
			frames = append(frames,
				&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: uint8(u), Seq: uint64(i + 1), Values: ctrl},
				&fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: uint8(u), Seq: uint64(i + 1), Values: proc})
		}
	}
	// Reorder within 16-frame bursts (inside the 32-obs pairing window).
	shuf := rand.New(rand.NewSource(7))
	for start := 0; start < len(frames); start += 16 {
		end := start + 16
		if end > len(frames) {
			end = len(frames)
		}
		sub := frames[start:end]
		shuf.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	}
	for i, f := range frames {
		if err := cli.Send(f); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 { // duplicate injection: every 10th datagram twice
			if err := cli.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		if i%25 == 0 { // corrupt datagram burst: counted, never fatal
			if _, err := raw.Write([]byte("garbage datagram")); err != nil {
				t.Fatal(err)
			}
		}
		if i%16 == 0 {
			time.Sleep(300 * time.Microsecond) // loopback pacing
		}
	}

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet udp: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet udp never finished:\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{
		"plant unit-000 attached",
		"plant unit-001 attached",
		"plant unit-000: normal",
		"ALARM [unit-001/",
		"plant unit-001: integrity-attack",
		"pairing: ",
		"udp: ",
		"corrupt dropped",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet udp output missing %q:\n%s", want, text)
		}
	}
}

// TestFleetRecordThenReplay: frames recorded from a live TCP feed replay
// through `mspctool replay` to the same verdicts — the capture round trip
// of the record/replay subsystem.
func TestFleetRecordThenReplay(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	capPath := filepath.Join(dir, "live.cap")

	const (
		rows  = 200
		shift = 100
	)
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-onset-hour", "0.25",
			"-listen", "127.0.0.1:0",
			"-record", capPath,
			"-max-obs", fmt.Sprint(rows),
			"-idle", "30s",
		}, strings.NewReader(""), &out)
	}()
	feedTwoViewTCP(t, &out, rows, shift)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet record: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet record never finished:\n%s", out.String())
	}
	liveText := out.String()
	if !strings.Contains(liveText, "plant unit-000: integrity-attack") {
		t.Fatalf("live run verdict missing:\n%s", liveText)
	}
	if !strings.Contains(liveText, "recorded ") || !strings.Contains(liveText, capPath) {
		t.Errorf("recording summary missing:\n%s", liveText)
	}

	var replayOut bytes.Buffer
	err := runReplay([]string{
		"-cal", cal,
		"-capture", capPath,
		"-speed", "0",
		"-sample", "9",
		"-onset-hour", "0.25",
	}, &replayOut)
	if err != nil {
		t.Fatalf("replay of recording: %v\n%s", err, replayOut.String())
	}
	replayText := replayOut.String()
	for _, want := range []string{
		"plant unit-000 attached",
		"ALARM [unit-000/",
		"plant unit-000: integrity-attack",
		"replay: ",
	} {
		if !strings.Contains(replayText, want) {
			t.Errorf("replayed recording missing %q:\n%s", want, replayText)
		}
	}
}

// TestFleetRecordStartupFailureKeepsExistingCapture: -record must not
// destroy an existing capture when the listener fails to come up — the
// recording lands by rename, so the target is only replaced on success.
func TestFleetRecordStartupFailureKeepsExistingCapture(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	capPath := filepath.Join(dir, "precious.cap")
	if err := os.WriteFile(capPath, []byte("prior capture bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runFleet([]string{
		"-cal", cal,
		"-listen", "256.256.256.256:1", // cannot bind
		"-record", capPath,
	}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatal("unbindable listen address accepted")
	}
	got, rerr := os.ReadFile(capPath)
	if rerr != nil || string(got) != "prior capture bytes" {
		t.Errorf("existing capture was destroyed: %q, %v", got, rerr)
	}
	if _, serr := os.Stat(capPath + ".tmp"); serr == nil {
		t.Error("abandoned .tmp recording left behind")
	}
}

// feedTwoViewTCP drives a live fleet run's TCP listener with `rows` paired
// observations of unit 0, forging channel 0 from row `shift` on (shift >=
// rows = pure NOC). It waits for the listener address line first.
func feedTwoViewTCP(t *testing.T, out *syncBuffer, rows, shift int) {
	t.Helper()
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("listener address never printed:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok && !strings.HasPrefix(rest, "udp://") {
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
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		z := rng.NormFloat64()
		ctrl := make([]float64, m)
		for j := 0; j < m; j++ {
			ctrl[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		proc := append([]float64(nil), ctrl...)
		if i >= shift {
			ctrl[0] -= 30
			proc[0] += 30
		}
		if err := cli.Send(&fieldbus.Frame{
			Type: fieldbus.FrameSensor, Unit: 0, Seq: uint64(i + 1), Values: ctrl,
		}); err != nil {
			t.Fatal(err)
		}
		if err := cli.Send(&fieldbus.Frame{
			Type: fieldbus.FrameActuator, Unit: 0, Seq: uint64(i + 1), Values: proc,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetRecordRotatedThenReplay: with a rotation flag, -record writes a
// durable segment chain instead of one file — sealed, indexed segments
// that `mspctool replay` plays back to the same verdicts as the live run.
func TestFleetRecordRotatedThenReplay(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	base := filepath.Join(dir, "chain")

	const (
		rows  = 200
		shift = 100
	)
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-onset-hour", "0.25",
			"-listen", "127.0.0.1:0",
			"-record", base,
			"-record-segment-bytes", "32768", // ~450 B/record: rotate every ~72
			"-max-obs", fmt.Sprint(rows),
			"-idle", "30s",
		}, strings.NewReader(""), &out)
	}()
	feedTwoViewTCP(t, &out, rows, shift)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet record: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet record never finished:\n%s", out.String())
	}
	liveText := out.String()
	for _, want := range []string{
		"plant unit-000: integrity-attack",
		fmt.Sprintf("recorded %d frames", 2*rows),
		"segments",
		base,
	} {
		if !strings.Contains(liveText, want) {
			t.Errorf("live output missing %q:\n%s", want, liveText)
		}
	}

	// The chain on disk: rotated segments, every one sealed with its index
	// sidecar (the run closed cleanly), and no plain file at the base path.
	segs, err := filepath.Glob(base + ".*.pcscap")
	if err != nil || len(segs) < 2 {
		t.Fatalf("recording did not rotate: %v segments, %v\n%s", segs, err, liveText)
	}
	for _, seg := range segs {
		if _, serr := os.Stat(strings.TrimSuffix(seg, ".pcscap") + ".pcsidx"); serr != nil {
			t.Errorf("segment %s not sealed: %v", seg, serr)
		}
	}
	if _, serr := os.Stat(base); serr == nil {
		t.Errorf("plain capture file written alongside the chain")
	}

	var replayOut bytes.Buffer
	err = runReplay([]string{
		"-cal", cal,
		"-capture", base,
		"-speed", "0",
		"-sample", "9",
		"-onset-hour", "0.25",
	}, &replayOut)
	if err != nil {
		t.Fatalf("replay of chain: %v\n%s", err, replayOut.String())
	}
	replayText := replayOut.String()
	for _, want := range []string{
		fmt.Sprintf("(%d segments)", len(segs)),
		"plant unit-000 attached",
		"ALARM [unit-000/",
		"plant unit-000: integrity-attack",
		fmt.Sprintf("replay: %d frames", 2*rows),
	} {
		if !strings.Contains(replayText, want) {
			t.Errorf("replayed chain missing %q:\n%s", want, replayText)
		}
	}
}

// TestFleetRecordFlushDurability: the -record-flush cadence pushes the
// recording's buffered tail to the OS while the run is still live, so a
// recorder killed mid-run loses at most one cadence of frames. Proven by
// reading the in-progress chain's unsealed segment from the outside before
// the run ends — without the cadence, everything sits in the bufio buffer
// until the final flush and the prefix would be unreadable.
func TestFleetRecordFlushDurability(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	capPath := filepath.Join(dir, "live.cap")

	const rows = 40
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- runFleet([]string{
			"-cal", cal,
			"-sample", "9",
			"-listen", "127.0.0.1:0",
			"-record", capPath,
			"-record-flush", "50ms",
			"-idle", "2s",
		}, strings.NewReader(""), &out)
	}()
	feedTwoViewTCP(t, &out, rows, rows) // pure NOC

	// readableFrames counts the decodable prefix, tolerating a tail cut
	// mid-record by a flush racing this read.
	readableFrames := func(path string) uint64 {
		cr, err := fieldbus.OpenCaptureChain(path, fieldbus.ChainOptions{})
		if err != nil {
			return 0
		}
		defer func() { _ = cr.Close() }()
		for {
			if _, _, err := cr.Next(); err != nil {
				return cr.Delivered()
			}
		}
	}

	// All frames are on the wire; the 50ms cadence must make every one of
	// them readable from the live chain well before the 2s idle stop
	// seals it.
	deadline := time.Now().Add(10 * time.Second)
	for readableFrames(capPath) < 2*rows {
		if time.Now().After(deadline) {
			t.Fatalf("flushed prefix never became readable (got %d of %d frames):\n%s",
				readableFrames(capPath), 2*rows, out.String())
		}
		select {
		case err := <-errCh:
			t.Fatalf("run finished before the flushed prefix was observed: %v\n%s", err, out.String())
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet record: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fleet record never finished:\n%s", out.String())
	}
	if got := readableFrames(capPath); got != 2*rows {
		t.Errorf("finalized capture holds %d frames, want %d", got, 2*rows)
	}
	if _, serr := os.Stat(capPath + ".tmp"); serr == nil {
		t.Error("finalized recording left its .tmp behind")
	}
}
