package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
	"pcsmon/internal/te"
)

// pushAll replays two datasets through a fresh online analyzer row by row,
// exactly as a live feed would, and returns the analyzer.
func pushAll(t *testing.T, sys *System, ctrl, proc *dataset.Dataset, onset int) *OnlineAnalyzer {
	t.Helper()
	oa, err := sys.NewOnlineAnalyzer(onset, time.Second)
	if err != nil {
		t.Fatalf("NewOnlineAnalyzer: %v", err)
	}
	n := ctrl.Rows()
	if proc.Rows() > n {
		n = proc.Rows()
	}
	for i := 0; i < n; i++ {
		var cr, pr []float64
		if i < ctrl.Rows() {
			cr = ctrl.RowView(i)
		}
		if i < proc.Rows() {
			pr = proc.RowView(i)
		}
		if _, err := oa.Push(cr, pr); err != nil {
			t.Fatalf("Push row %d: %v", i, err)
		}
	}
	return oa
}

// TestOnlineMatchesBatch is the streaming/batch parity golden test: for
// every anomaly pattern the classifier distinguishes, feeding the run one
// observation at a time must produce the identical Report (detection
// indices, run starts, verdict, oMEDA profiles, frozen/diverged evidence)
// as the batch entry point.
func TestOnlineMatchesBatch(t *testing.T) {
	xmv3 := te.NumXMEAS + te.XmvAFeed
	cases := []struct {
		name       string
		seed       int64
		ctrl, proc map[int]float64 // per-view shifts after the onset
	}{
		{"normal", 201, nil, nil},
		{"disturbance", 202,
			map[int]float64{te.XmeasAFeed: -12},
			map[int]float64{te.XmeasAFeed: -12}},
		{"sign-flip integrity", 203,
			map[int]float64{te.XmeasAFeed: -12},
			map[int]float64{te.XmeasAFeed: +12}},
		{"actuator integrity", 204,
			map[int]float64{xmv3: +10, te.XmeasAFeed: -12},
			map[int]float64{xmv3: -10, te.XmeasAFeed: -12}},
		{"ctrl-only dos", 205,
			map[int]float64{xmv3: +9},
			nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newSynthFixture(t, tc.seed)
			cd, pd := f.viewsWithShift(t, 100, 60, tc.ctrl, tc.proc)
			const onset = 100
			batch, err := f.sys.AnalyzeViews(cd, pd, onset, time.Second)
			if err != nil {
				t.Fatalf("AnalyzeViews: %v", err)
			}
			online, err := pushAll(t, f.sys, cd, pd, onset).Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if !reflect.DeepEqual(batch, online) {
				t.Errorf("online report differs from batch:\nbatch:  %+v\nonline: %+v", batch, online)
			}
		})
	}
}

// TestOnlineMatchesBatchFrozen covers the frozen-channel (hold-last-value
// DoS) evidence path, whose window statistics are accumulated incrementally
// on the online path.
func TestOnlineMatchesBatchFrozen(t *testing.T) {
	f := newSynthFixture(t, 211)
	xmv := te.NumXMEAS + te.XmvAFeed
	cd, pd := f.viewsWithFreeze(t, 120, 60, xmv, true)
	batch, err := f.sys.AnalyzeViews(cd, pd, 120, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	online, err := pushAll(t, f.sys, cd, pd, 120).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, online) {
		t.Errorf("online report differs from batch:\nbatch:  %+v\nonline: %+v", batch, online)
	}
	if online.Verdict != VerdictDoS {
		t.Errorf("verdict = %v, want dos-attack", online.Verdict)
	}
}

// TestOnlineUnequalViews checks that a view ending early (nil rows) matches
// the batch analysis of truncated datasets.
func TestOnlineUnequalViews(t *testing.T) {
	f := newSynthFixture(t, 212)
	shift := map[int]float64{te.XmeasAFeed: -12}
	cd, pd := f.viewsWithShift(t, 100, 60, shift, shift)
	short, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 130; i++ {
		if err := short.Append(pd.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := f.sys.AnalyzeViews(cd, short, 100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	online, err := pushAll(t, f.sys, cd, short, 100).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, online) {
		t.Errorf("online report differs from batch on unequal views:\nbatch:  %+v\nonline: %+v", batch, online)
	}
}

// TestOnlinePreOnsetFalseAlarm: a burst of out-of-control samples before
// the declared onset must not latch a detection — only the post-onset event
// counts, in both paths.
func TestOnlinePreOnsetFalseAlarm(t *testing.T) {
	f := newSynthFixture(t, 213)
	cd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	pd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 220; i++ {
		row := f.nocRow()
		// Pre-onset burst at [40, 50), the real event from 150.
		if (i >= 40 && i < 50) || i >= 150 {
			row[te.XmeasAFeed] -= 12 * f.stds[te.XmeasAFeed]
		}
		if err := cd.Append(row); err != nil {
			t.Fatal(err)
		}
		if err := pd.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	const onset = 150
	batch, err := f.sys.AnalyzeViews(cd, pd, onset, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	oa := pushAll(t, f.sys, cd, pd, onset)
	online, err := oa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, online) {
		t.Errorf("online differs from batch:\nbatch:  %+v\nonline: %+v", batch, online)
	}
	if !online.Controller.Detected {
		t.Fatal("post-onset event not detected")
	}
	if online.Controller.DetectionIndex < onset {
		t.Errorf("detection index %d before onset %d", online.Controller.DetectionIndex, onset)
	}
}

// TestOnlineStepSemantics checks the live-protocol contract: alarms are
// delivered exactly once on the latching step, Settled goes (and stays)
// true once the evidence is complete, and the analyzer is sealed by
// Finish.
func TestOnlineStepSemantics(t *testing.T) {
	f := newSynthFixture(t, 214)
	shift := map[int]float64{te.XmeasAFeed: -12}
	cd, pd := f.viewsWithShift(t, 100, 60, shift, shift)
	oa, err := f.sys.NewOnlineAnalyzer(100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var ctrlAlarms, procAlarms int
	settledAt := -1
	for i := 0; i < cd.Rows(); i++ {
		res, err := oa.Push(cd.RowView(i), pd.RowView(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Index != i {
			t.Fatalf("step index %d, want %d", res.Index, i)
		}
		if res.Ctrl == nil || res.Proc == nil {
			t.Fatalf("missing point at step %d", i)
		}
		if res.CtrlAlarm != nil {
			ctrlAlarms++
			if res.CtrlAlarm.Index != i {
				t.Errorf("ctrl alarm index %d delivered at step %d", res.CtrlAlarm.Index, i)
			}
		}
		if res.ProcAlarm != nil {
			procAlarms++
		}
		if oa.Settled() && settledAt < 0 {
			settledAt = i
		}
		if settledAt >= 0 && !oa.Settled() {
			t.Fatalf("Settled flipped back at step %d", i)
		}
	}
	if ctrlAlarms != 1 || procAlarms != 1 {
		t.Errorf("alarm deliveries ctrl=%d proc=%d, want exactly 1 each", ctrlAlarms, procAlarms)
	}
	if !oa.Detected() {
		t.Error("Detected=false after both views alarmed")
	}
	if settledAt < 0 {
		t.Error("analyzer never settled despite detection in both views")
	}
	rep, err := oa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	again, err := oa.Finish()
	if err != nil || again != rep {
		t.Errorf("Finish not idempotent: %v %p %p", err, rep, again)
	}
	if _, err := oa.Push(cd.RowView(0), pd.RowView(0)); !errors.Is(err, ErrBadInput) {
		t.Errorf("push after Finish: want ErrBadInput, got %v", err)
	}
}

// TestOnlineValidation covers the analyzer's error paths.
func TestOnlineValidation(t *testing.T) {
	var unset System
	if _, err := unset.NewOnlineAnalyzer(0, time.Second); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("uncalibrated: want ErrNotCalibrated, got %v", err)
	}
	f := newSynthFixture(t, 215)
	oa, err := f.sys.NewOnlineAnalyzer(0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oa.Push([]float64{1, 2}, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("narrow row: want ErrBadInput, got %v", err)
	}
	if _, err := oa.Finish(); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty stream: want ErrBadInput, got %v", err)
	}
}

// TestBatchWrapperStillValidates pins the wrapper's own input checks.
func TestBatchWrapperStillValidates(t *testing.T) {
	f := newSynthFixture(t, 216)
	cd, _ := f.viewsWithShift(t, 10, 0, nil, nil)
	empty, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.sys.AnalyzeViews(cd, empty, 0, time.Second); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty view: want ErrBadInput, got %v", err)
	}
}
