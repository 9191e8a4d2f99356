package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/adapt"
	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
)

// writeSynthetic writes a CSV of n correlated 53-variable observations,
// optionally shifting one channel by delta after row shiftFrom (-1 = no
// shift).
func writeSynthetic(t *testing.T, path string, seed int64, n, shiftChannel, shiftFrom int, delta float64) {
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
		if shiftFrom >= 0 && i >= shiftFrom {
			row[shiftChannel] += delta
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

func TestMspctoolEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	ctrl := filepath.Join(dir, "ctrl.csv")
	proc := filepath.Join(dir, "proc.csv")
	// Same latent loading draw via the same seed, then a divergent shift:
	// the controller view reads low while the process view stays clean.
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	writeSynthetic(t, ctrl, 3, 300, 0, 150, -25)
	writeSynthetic(t, proc, 3, 300, 0, 150, +25)
	err := run([]string{
		"-cal", cal,
		"-ctrl", ctrl,
		"-proc", proc,
		"-onset-hour", "0.375", // row 150 at 9 s samples
		"-sample", "9",
		"-charts",
	})
	if err != nil {
		t.Fatalf("mspctool: %v", err)
	}
}

func TestWatchSubcommand(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	ctrl := filepath.Join(dir, "ctrl.csv")
	proc := filepath.Join(dir, "proc.csv")
	writeSynthetic(t, cal, 3, 800, -1, -1, 0)
	writeSynthetic(t, ctrl, 3, 300, 0, 150, -25)
	writeSynthetic(t, proc, 3, 300, 0, 150, +25)

	in, err := os.Open(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = in.Close() }()
	var out bytes.Buffer
	err = runWatch([]string{
		"-cal", cal,
		"-proc", proc,
		"-onset-hour", "0.375",
		"-sample", "9",
		"-every", "100",
	}, in, &out)
	if err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"calibrated on 800 observations", "ALARM [", "VERDICT:", "end of stream after 300 observations"} {
		if !strings.Contains(text, want) {
			t.Errorf("watch output missing %q:\n%s", want, text)
		}
	}
}

func TestWatchSingleView(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	ctrl := filepath.Join(dir, "ctrl.csv")
	writeSynthetic(t, cal, 7, 800, -1, -1, 0)
	writeSynthetic(t, ctrl, 7, 260, 2, 130, -30)
	in, err := os.Open(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = in.Close() }()
	var out bytes.Buffer
	if err := runWatch([]string{"-cal", cal, "-sample", "9"}, in, &out); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ALARM [") {
		t.Errorf("single-view watch raised no alarm:\n%s", out.String())
	}
}

func TestWatchRequiresCal(t *testing.T) {
	var out bytes.Buffer
	if err := runWatch(nil, strings.NewReader(""), &out); err == nil {
		t.Error("missing -cal accepted")
	}
}

// TestMspctoolRequiresFlags: batch mode rejects missing files and
// impossible flag values with ErrBadConfig before calibrating.
func TestMspctoolRequiresFlags(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 1, 600, -1, -1, 0)
	for _, args := range [][]string{
		nil,
		{"-cal", cal},
		{"-cal", cal, "-ctrl", cal, "-sample", "0"},
		{"-cal", cal, "-ctrl", cal, "-sample", "-9"},
		{"-cal", cal, "-ctrl", cal, "-onset-hour", "-1"},
		{"-cal", cal, "-ctrl", cal, "-components", "-1"},
	} {
		if err := run(args); !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%v: want ErrBadConfig, got %v", args, err)
		}
	}
}

func TestMspctoolMissingFile(t *testing.T) {
	if err := run([]string{"-cal", "/nonexistent.csv", "-ctrl", "/nonexistent.csv"}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestErrorPrefixOncePerCommand: the line main prints for a failed
// command names that command once, whether the error is the command's own
// (a missing required flag) or one it passes through from below (a
// calibration file that does not exist).
func TestErrorPrefixOncePerCommand(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.csv")
	for _, tc := range []struct {
		prefix string
		args   []string
	}{
		{"mspctool: ", nil},
		{"mspctool watch: ", []string{"watch"}},
		{"mspctool fleet: ", []string{"fleet"}},
		{"mspctool replay: ", []string{"replay"}},
		{"mspctool serve: ", []string{"serve"}},
		{"mspctool status: ", []string{"status"}},
		{"mspctool fleet: ", []string{"fleet", "-cal", missing}},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%v: no error", tc.args)
			continue
		}
		line := err.Error()
		if !strings.HasPrefix(line, tc.prefix) || strings.Count(line, "mspctool") != 1 {
			t.Errorf("%v: printed %q, want one %q prefix and no other mspctool", tc.args, line, tc.prefix)
		}
	}
}

// TestWatchAdaptiveFlagValidation: the watch subcommand shares the adapt
// and model flag validation with fleet.
func TestWatchAdaptiveFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	writeSynthetic(t, cal, 1, 600, -1, -1, 0)
	for _, args := range [][]string{
		{"-cal", cal, "-adapt-every", "-1"},
		{"-cal", cal, "-adapt-forget", "0.9"},
		{"-cal", cal, "-adapt-every", "50", "-adapt-forget", "2"},
		{"-cal", cal, "-adapt-every", "64", "-adapt-forget", "NaN"},
		{"-cal", cal, "-onset-hour", "-1"},
		{"-cal", cal, "-onset-hour", "NaN"},
		{"-cal", cal, "-sample", "NaN"},
		{"-cal", cal, "-components", "-1"},
	} {
		var out bytes.Buffer
		if err := runWatch(args, strings.NewReader(""), &out); !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%v: want ErrBadConfig, got %v", args, err)
		}
	}
}

// TestAdaptForgetBelowMinWeightRefused: -adapt-forget 0.99 caps the EWMA
// weight at 100, under the default minimum weight of 212 on 53 variables,
// so watch and CSV fleet must fail when they build the tracker — before
// the first row is scored — instead of vetoing every refit in silence.
func TestAdaptForgetBelowMinWeightRefused(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	live := filepath.Join(dir, "live.csv")
	writeSynthetic(t, cal, 1, 600, -1, -1, 0)
	writeSynthetic(t, live, 1, 100, -1, -1, 0)
	data, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-cal", cal, "-sample", "9", "-adapt-every", "64", "-adapt-forget", "0.99"}
	var out bytes.Buffer
	if err := runWatch(args, bytes.NewReader(data), &out); !errors.Is(err, adapt.ErrBadConfig) {
		t.Errorf("watch: want adapt.ErrBadConfig, got %v", err)
	}
	if strings.Contains(out.String(), "end of stream") {
		t.Errorf("watch scored rows:\n%s", out.String())
	}
	out.Reset()
	stream := interleavedCSV(t, 1, []string{"alpha"}, 50, 0, 0, 0, nil)
	if err := runFleet(args, strings.NewReader(stream), &out); !errors.Is(err, adapt.ErrBadConfig) {
		t.Errorf("fleet: want adapt.ErrBadConfig, got %v", err)
	}
	if strings.Contains(out.String(), "plant alpha") {
		t.Errorf("fleet scored rows:\n%s", out.String())
	}
}

// TestWatchSubcommandAdaptive: watch with adaptation enabled still scores a
// NOC stream quiet end to end.
func TestWatchSubcommandAdaptive(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	live := filepath.Join(dir, "live.csv")
	writeSynthetic(t, cal, 1, 600, -1, -1, 0)
	writeSynthetic(t, live, 1, 200, -1, -1, 0)
	data, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = runWatch([]string{
		"-cal", cal, "-sample", "9",
		"-adapt-every", "64", "-adapt-forget", "0.999",
	}, bytes.NewReader(data), &out)
	if err != nil {
		t.Fatalf("runWatch: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "normal") {
		t.Errorf("NOC watch not normal:\n%s", out.String())
	}
}

// watchReport runs watch with args over the stdin CSV at ctrl and returns
// its whole output and the report it printed after the end-of-stream line.
func watchReport(t *testing.T, ctrl string, args []string) (text, report string) {
	t.Helper()
	in, err := os.Open(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = in.Close() }()
	var out bytes.Buffer
	if err := runWatch(args, in, &out); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	text = out.String()
	_, report, ok := strings.Cut(text, "end of stream after ")
	if !ok {
		t.Fatalf("watch printed no end-of-stream line:\n%s", text)
	}
	_, report, _ = strings.Cut(report, "\n\n")
	return text, report
}

// TestWatchMatchesBatch: the report watch prints at end of stream is the
// batch analysis of the same CSVs, byte for byte — on the two-view inputs
// of TestWatchSubcommand and the single-view inputs of TestWatchSingleView.
func TestWatchMatchesBatch(t *testing.T) {
	cases := []struct {
		name, verdict   string
		seed            int64
		rows, ch, shift int
		ctrlD, procD    float64
		twoView         bool
		args            []string
	}{
		{"two-view", "integrity-attack", 3, 300, 0, 150, -25, +25, true,
			[]string{"-onset-hour", "0.375", "-sample", "9", "-every", "100"}},
		{"single-view", "disturbance", 7, 260, 2, 130, -30, 0, false,
			[]string{"-sample", "9"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cal := filepath.Join(dir, "cal.csv")
			ctrl := filepath.Join(dir, "ctrl.csv")
			proc := ctrl
			writeSynthetic(t, cal, c.seed, 800, -1, -1, 0)
			writeSynthetic(t, ctrl, c.seed, c.rows, c.ch, c.shift, c.ctrlD)
			args := append([]string{"-cal", cal}, c.args...)
			if c.twoView {
				proc = filepath.Join(dir, "proc.csv")
				writeSynthetic(t, proc, c.seed, c.rows, c.ch, c.shift, c.procD)
				args = append(args, "-proc", proc)
			}
			_, got := watchReport(t, ctrl, args)

			sys, err := control.Calibrate(cal, 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cd, err := readCSV(ctrl)
			if err != nil {
				t.Fatal(err)
			}
			pd, err := readCSV(proc)
			if err != nil {
				t.Fatal(err)
			}
			onset := 0
			if c.twoView {
				onset = onsetIndex(0.375, 9)
			}
			rep, err := sys.AnalyzeViews(cd, pd, onset, 9*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if want := rep.Render(); got != want {
				t.Errorf("watch report differs from batch\nwatch:\n%s\nbatch:\n%s", got, want)
			}
			if rep.Verdict.String() != c.verdict {
				t.Errorf("verdict %v, want %s", rep.Verdict, c.verdict)
			}
		})
	}
}

// TestWatchAdaptiveMatchesTracker: a NOC stream long enough for adaptive
// refits to land. The expected MODEL SWAP lines and final report come from
// the reference protocol — adapt.Tracker.Step driven over one
// core.OnlineAnalyzer — not from watch itself.
func TestWatchAdaptiveMatchesTracker(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "cal.csv")
	live := filepath.Join(dir, "live.csv")
	writeSynthetic(t, cal, 1, 600, -1, -1, 0)
	writeSynthetic(t, live, 1, 2000, -1, -1, 0)
	text, got := watchReport(t, live, []string{
		"-cal", cal, "-sample", "9",
		"-adapt-every", "64", "-adapt-forget", "0.999",
	})

	sys, err := control.Calibrate(cal, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := adapt.NewTracker(sys, adapt.Options{Enabled: true, Every: 64, Forget: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	cur, gen := tracker.System()
	oa, err := cur.NewOnlineAnalyzer(0, 9*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d, err := readCSV(live)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		res, err := oa.Push(row, row)
		if err != nil {
			t.Fatal(err)
		}
		var swap *core.ModelSwapped
		if gen, swap = tracker.Step(oa, res, row, row, gen); swap != nil {
			want = append(want, fmt.Sprintf("MODEL SWAP at obs %d -> generation %d (D99=%.2f Q99=%.2f)",
				swap.Index, swap.Generation, swap.D99, swap.Q99))
		}
	}
	rep, err := oa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference stream never swapped: the case is too short to reach the adaptive path")
	}
	t.Logf("reference protocol swapped %d times", len(want))
	var swaps []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "MODEL SWAP") {
			swaps = append(swaps, line)
		}
	}
	if strings.Join(swaps, "\n") != strings.Join(want, "\n") {
		t.Errorf("watch swaps differ from the tracker protocol\nwatch:\n%s\nwant:\n%s",
			strings.Join(swaps, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(text, "end of stream after 2000 observations") {
		t.Errorf("watch did not score all 2000 observations:\n%s", text)
	}
	if want := rep.Render(); got != want {
		t.Errorf("watch report differs from the tracker protocol\nwatch:\n%s\nwant:\n%s", got, want)
	}
}
