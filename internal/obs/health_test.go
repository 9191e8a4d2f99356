package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestUnitHealthLifecycle(t *testing.T) {
	h := NewHealthRegistry()
	u := h.Attach("unit-007")
	if h.Attach("unit-007") != u {
		t.Fatal("re-attach returned a different handle")
	}
	base := time.Now()
	u.Observe(base.UnixNano(), 1, 1.5, 0.2, 9.5, 3.1, true)
	u.SetLimits(8.0, 2.5)
	u.Alarm(AlarmProc)
	u.SetGeneration(3)
	u.AddHeld(2)
	u.AddDropped(5)

	st := u.Status(base.Add(2 * time.Second))
	if st.Unit != "unit-007" || st.Observations != 1 || st.Alarms != 1 {
		t.Errorf("counts wrong: %+v", st)
	}
	if st.AgeSeconds < 1.9 || st.AgeSeconds > 2.1 {
		t.Errorf("age = %v, want ~2s", st.AgeSeconds)
	}
	if st.CtrlD != 1.5 || st.ProcD != 9.5 || st.D99 != 8.0 || st.Q99 != 2.5 {
		t.Errorf("statistics wrong: %+v", st)
	}
	if !st.OverLimit || st.AlarmViews != "proc" {
		t.Errorf("alarm state wrong: %+v", st)
	}
	if st.Generation != 3 || st.HeldObs != 2 || st.DroppedFr != 5 {
		t.Errorf("bookkeeping wrong: %+v", st)
	}

	// NaN views keep the previous value.
	u.Observe(base.UnixNano(), 1, math.NaN(), math.NaN(), 4.0, 1.0, false)
	st = u.Status(base)
	if st.CtrlD != 1.5 || st.ProcD != 4.0 {
		t.Errorf("NaN hold-last broken: ctrl_d=%v proc_d=%v", st.CtrlD, st.ProcD)
	}

	u.Alarm(AlarmCtrl)
	if got := u.Status(base).AlarmViews; got != "ctrl+proc" {
		t.Errorf("alarm views = %q, want ctrl+proc", got)
	}

	u.SetVerdict("intrusion")
	st = u.Status(base)
	if st.Verdict != "intrusion" || !st.Detached {
		t.Errorf("verdict wrong: %+v", st)
	}
	// Reattach revives.
	h.Attach("unit-007")
	if u.Status(base).Detached {
		t.Error("re-attach did not clear detached")
	}
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	h := NewHealthRegistry()
	for _, id := range []string{"unit-2", "unit-0", "unit-1"} {
		h.Attach(id)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	snap := h.Snapshot(time.Now())
	if len(snap) != 3 || snap[0].Unit != "unit-0" || snap[2].Unit != "unit-2" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	doc := StatusDoc{UptimeSeconds: 1.5, Totals: map[string]float64{"fleet_observations": 10}, Units: snap}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back StatusDoc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Totals["fleet_observations"] != 10 || len(back.Units) != 3 {
		t.Errorf("round trip wrong: %+v", back)
	}
}

func TestHealthRegistryConcurrent(t *testing.T) {
	h := NewHealthRegistry()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			u := h.Attach("unit-" + string(rune('a'+n)))
			now := time.Now().UnixNano()
			for k := 0; k < 2000; k++ {
				u.Observe(now, 1, 1, 2, 3, 4, false)
				u.Alarm(AlarmCtrl)
			}
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		h.Snapshot(time.Now())
		h.Get("unit-a")
	}
	for _, st := range h.Snapshot(time.Now()) {
		if st.Observations == 0 || st.Alarms == 0 {
			t.Errorf("unit %s recorded nothing", st.Unit)
		}
	}
}
