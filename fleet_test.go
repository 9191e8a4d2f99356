package pcsmon_test

import (
	"errors"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/fleet"
)

// TestFleetFacadeLifecycle drives the Fleet wrapper directly with a
// steady-state single-view feed, mirroring TestStreamFeed.
func TestFleetFacadeLifecycle(t *testing.T) {
	l := testLab(t)
	f, err := pcsmon.NewFleet(l.System, pcsmon.FleetOptions{Workers: 2, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var events []pcsmon.FleetEvent
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range f.Events() {
			events = append(events, ev)
		}
	}()

	// The calibration mean is the steady operating point.
	_, means, _ := l.System.CalibrationMoments()
	row := append([]float64(nil), means...)
	if err := f.Attach("steady", 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("steady", 0); !errors.Is(err, fleet.ErrDuplicatePlant) {
		t.Errorf("duplicate attach: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := f.Push("steady", row, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Push("ghost", row, row); !errors.Is(err, fleet.ErrUnknownPlant) {
		t.Errorf("push unknown: %v", err)
	}
	rep, err := f.Detach("steady")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != pcsmon.VerdictNormal {
		t.Errorf("steady fleet stream classified %v (%s)", rep.Verdict, rep.Explanation)
	}
	if st := f.Stats(); st.Observations != 50 || st.Verdicts != 1 {
		t.Errorf("stats %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
	if err := f.Attach("late", 0); !errors.Is(err, fleet.ErrClosed) {
		t.Errorf("attach after close: %v", err)
	}
	// The event stream ends with the verdict.
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last, ok := events[len(events)-1].Event.(pcsmon.VerdictReady)
	if !ok || last.Samples != 50 {
		t.Errorf("last event %+v, want VerdictReady with 50 samples", events[len(events)-1])
	}
}
