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

// identicalSystem rebuilds the fixture's system from the same seed — a
// distinct *System with bit-identical parameters, as an adaptive refit on
// unchanged statistics would produce.
func identicalSystem(t *testing.T, seed int64) *System {
	t.Helper()
	return newSynthFixture(t, seed).sys
}

// TestTrySwapIdenticalModelParity: a forced mid-stream swap to a
// bit-identical model must change nothing — detector state carries over and
// every downstream result (detection indices, oMEDA, verdict) is
// DeepEqual to the unswapped stream.
func TestTrySwapIdenticalModelParity(t *testing.T) {
	const (
		seed   = 401
		onset  = 100
		sample = time.Second
	)
	f := newSynthFixture(t, seed)
	sys2 := identicalSystem(t, seed)
	shift := map[int]float64{te.XmeasAFeed: -12}
	cd, pd := f.viewsWithShift(t, onset, 60, shift, shift)

	golden, err := f.sys.AnalyzeViews(cd, pd, onset, sample)
	if err != nil {
		t.Fatal(err)
	}

	oa, err := f.sys.NewOnlineAnalyzer(onset, sample)
	if err != nil {
		t.Fatal(err)
	}
	swapAt := DiagnoseWindow * 2 // a quiet pre-onset boundary
	for i := 0; i < cd.Rows(); i++ {
		if _, err := oa.Push(cd.RowView(i), pd.RowView(i)); err != nil {
			t.Fatal(err)
		}
		if oa.N() == swapAt {
			swapped, err := oa.TrySwap(sys2)
			if err != nil {
				t.Fatalf("TrySwap: %v", err)
			}
			if !swapped {
				t.Fatal("quiescent swap refused")
			}
		}
	}
	rep, err := oa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden, rep) {
		t.Errorf("forced identical-model swap changed the report:\ngolden:  %+v\nswapped: %+v", golden, rep)
	}
}

// TestTrySwapRefusedMidIncident: once a detection is latched (or a run is
// open) the swap must be refused without error — the incident is judged by
// one model end to end.
func TestTrySwapRefusedMidIncident(t *testing.T) {
	const (
		seed  = 402
		onset = 80
	)
	f := newSynthFixture(t, seed)
	sys2 := identicalSystem(t, seed)
	shift := map[int]float64{te.XmeasAFeed: -12}
	cd, pd := f.viewsWithShift(t, onset, 40, shift, shift)

	oa, err := f.sys.NewOnlineAnalyzer(onset, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cd.Rows(); i++ {
		if _, err := oa.Push(cd.RowView(i), pd.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !oa.Detected() {
		t.Fatal("fixture stream did not detect")
	}
	swapped, err := oa.TrySwap(sys2)
	if err != nil {
		t.Fatalf("TrySwap mid-incident errored: %v", err)
	}
	if swapped {
		t.Error("swap accepted while an alarm is latched")
	}
	if _, err := oa.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := oa.TrySwap(sys2); !errors.Is(err, ErrBadInput) {
		t.Errorf("swap after Finish: want ErrBadInput, got %v", err)
	}
}

// TestTrySwapIncompatibleSystem: a system with a different run length must
// be rejected with an error, leaving the stream untouched.
func TestTrySwapIncompatibleSystem(t *testing.T) {
	f := newSynthFixture(t, 403)
	oa, err := f.sys.NewOnlineAnalyzer(0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oa.TrySwap(nil); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("nil system: %v", err)
	}

	// Same kind of data, different run-rule configuration.
	other := newSynthFixture(t, 403)
	d, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := d.Append(other.nocRow()); err != nil {
			t.Fatal(err)
		}
	}
	otherSys, err := Calibrate(d, Config{Components: 4, RunLength: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oa.TrySwap(otherSys); !errors.Is(err, ErrBadInput) {
		t.Errorf("incompatible run length: %v", err)
	}
}
