package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcsmon"
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
		{"-cal", cal, "-onset-hour", "-1"},
		{"-cal", cal, "-components", "-1"},
	} {
		var out bytes.Buffer
		if err := runWatch(args, strings.NewReader(""), &out); !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%v: want ErrBadConfig, got %v", args, err)
		}
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
