package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
)

// testSystem calibrates a small monitoring system on synthetic correlated
// NOC data — milliseconds instead of the full plant-simulation lab, so the
// concurrency tests can afford hundreds of streams.
func testSystem(tb testing.TB) *core.System {
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

// plantRows generates one plant's deterministic observation stream with
// the same latent structure as the calibration data: n paired rows, with
// the controller view of channel shiftCh shifted by -delta and the process
// view by +delta from row shiftFrom on (delta 0 = a NOC stream).
func plantRows(seed int64, n, shiftCh, shiftFrom int, delta float64) (ctrl, proc [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	m := historian.NumVars
	// Same loading draw as testSystem's seed would give a different w; the
	// monitor only needs the stream to be in-distribution, which the large
	// common mean guarantees before the shift.
	w := make([]float64, m)
	wr := rand.New(rand.NewSource(99))
	for j := range w {
		w[j] = wr.NormFloat64()
	}
	ctrl = make([][]float64, n)
	proc = make([][]float64, n)
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
		ctrl[i] = c
		proc[i] = p
	}
	return ctrl, proc
}

// drain consumes the pool's events on a goroutine, returning a function
// that waits for the channel to close and hands back every event in
// arrival order.
func drain(p *Pool) func() []Event {
	var mu sync.Mutex
	var events []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range p.Events() {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	}()
	return func() []Event {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return events
	}
}

func TestPoolLifecycle(t *testing.T) {
	sys := testSystem(t)
	p, err := NewPool(sys, Config{Workers: 2, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	collect := drain(p)

	a, err := p.Attach("plant-a", 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Attach("plant-a", 150); !errors.Is(err, ErrDuplicatePlant) {
		t.Errorf("duplicate attach: want ErrDuplicatePlant, got %v", err)
	}

	ctrl, proc := plantRows(7, 220, 0, 150, 25)
	for i := range ctrl {
		if err := a.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := a.Detach()
	if err != nil {
		t.Fatal(err)
	}
	// The detached handle is stale: Push and a second Detach are refused.
	if err := a.Push(ctrl[0], proc[0]); !errors.Is(err, ErrUnknownPlant) {
		t.Errorf("push on detached handle: want ErrUnknownPlant, got %v", err)
	}
	if _, err := a.Detach(); !errors.Is(err, ErrUnknownPlant) {
		t.Errorf("second detach: want ErrUnknownPlant, got %v", err)
	}
	if rep == nil || !rep.Controller.Detected {
		t.Fatalf("diverging stream not detected: %+v", rep)
	}
	if rep.Verdict != core.VerdictIntegrityAttack {
		t.Errorf("verdict %v, want integrity-attack (%s)", rep.Verdict, rep.Explanation)
	}

	st := p.Stats()
	if st.Observations != 220 || st.Verdicts != 1 || st.Attached != 1 || st.Active != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.Alarms == 0 {
		t.Error("no alarms counted")
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := p.Attach("late", 0); !errors.Is(err, ErrClosed) {
		t.Errorf("attach after close: want ErrClosed, got %v", err)
	}
	if err := a.Push(nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("push after close: want ErrClosed, got %v", err)
	}

	// Per-plant event stream: SampleScored indices strictly increasing, alarms
	// after their index was scored, verdict last.
	events := collect()
	lastIdx := -1
	sawVerdict := false
	for _, ev := range events {
		switch e := ev.Event.(type) {
		case *core.SampleScored:
			if sawVerdict {
				t.Fatal("SampleScored after VerdictReady")
			}
			if e.Index != lastIdx+1 {
				t.Fatalf("scored index %d after %d", e.Index, lastIdx)
			}
			lastIdx = e.Index
		case core.VerdictReady:
			if sawVerdict {
				t.Fatal("duplicate VerdictReady")
			}
			sawVerdict = true
			if e.Samples != 220 {
				t.Errorf("verdict samples %d, want 220", e.Samples)
			}
			if e.Report != rep {
				t.Error("verdict report differs from Detach's")
			}
		}
	}
	if !sawVerdict || lastIdx != 219 {
		t.Errorf("event stream incomplete: lastIdx=%d verdict=%v", lastIdx, sawVerdict)
	}
}

func TestPoolConfigValidation(t *testing.T) {
	sys := testSystem(t)
	if _, err := NewPool(nil, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil system: want ErrBadConfig, got %v", err)
	}
	for _, cfg := range []Config{
		{Workers: -1},
		{Mailbox: -2},
		{EventBuffer: -1},
		{Sample: -time.Second},
	} {
		if _, err := NewPool(sys, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%+v: want ErrBadConfig, got %v", cfg, err)
		}
	}
	p, err := NewPool(sys, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	collect := drain(p)
	if _, err := p.Attach("", 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty id: want ErrBadConfig, got %v", err)
	}
	a, err := p.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Push(make([]float64, 3), nil); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("short ctrl row: want ErrBadInput, got %v", err)
	}
	if err := a.Push(nil, make([]float64, 3)); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("short proc row: want ErrBadInput, got %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	collect()
}

// TestDetachWithoutObservations: an empty stream cannot be diagnosed; the
// error must surface both from Detach and in the VerdictReady event.
func TestDetachWithoutObservations(t *testing.T) {
	sys := testSystem(t)
	p, err := NewPool(sys, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	collect := drain(p)
	st, err := p.Attach("empty", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Detach()
	if err == nil || rep != nil {
		t.Fatalf("empty detach: rep=%v err=%v", rep, err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range collect() {
		if v, ok := ev.Event.(core.VerdictReady); ok && ev.Plant == "empty" {
			found = true
			if v.Err == nil {
				t.Error("verdict event carries no error for empty stream")
			}
		}
	}
	if !found {
		t.Error("no VerdictReady event for empty stream")
	}
}

// TestCloseFinishesRemainingStreams: Close must emit a VerdictReady for every
// still-attached stream.
func TestCloseFinishesRemainingStreams(t *testing.T) {
	sys := testSystem(t)
	p, err := NewPool(sys, Config{Workers: 3, EmitEvery: -1, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	collect := drain(p)
	const n = 12
	ctrl, proc := plantRows(3, 40, 0, 0, 0)
	var last *Stream
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%02d", i)
		st, err := p.Attach(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		for r := range ctrl {
			if err := st.Push(ctrl[r], proc[r]); err != nil {
				t.Fatal(err)
			}
		}
		last = st
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close finalized the live handles: Push on one is refused as closed.
	if err := last.Push(ctrl[0], proc[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("push on a handle Close finalized: want ErrClosed, got %v", err)
	}
	verdicts := map[string]int{}
	for _, ev := range collect() {
		if v, ok := ev.Event.(core.VerdictReady); ok {
			verdicts[ev.Plant]++
			if v.Err != nil {
				t.Errorf("%s: verdict error %v", ev.Plant, v.Err)
			}
			if v.Report == nil || v.Report.Verdict != core.VerdictNormal {
				t.Errorf("%s: NOC stream not classified normal: %+v", ev.Plant, v.Report)
			}
		}
	}
	if len(verdicts) != n {
		t.Fatalf("got verdicts for %d plants, want %d", len(verdicts), n)
	}
	for id, c := range verdicts {
		if c != 1 {
			t.Errorf("%s: %d verdicts", id, c)
		}
	}
	if st := p.Stats(); st.Verdicts != n || st.Observations != uint64(n*len(ctrl)) {
		t.Errorf("stats %+v", st)
	}
}

// TestScoredThinning: EmitEvery must thin SampleScored events without
// touching AlarmRaised or VerdictReady events.
func TestScoredThinning(t *testing.T) {
	sys := testSystem(t)
	p, err := NewPool(sys, Config{Workers: 1, EmitEvery: 50, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	collect := drain(p)
	a, err := p.Attach("a", 150)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, proc := plantRows(7, 220, 0, 150, 25)
	for i := range ctrl {
		if err := a.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	scored, alarms, verdicts := 0, 0, 0
	for _, ev := range collect() {
		switch ev.Event.(type) {
		case *core.SampleScored:
			scored++
		case core.AlarmRaised:
			alarms++
		case core.VerdictReady:
			verdicts++
		}
	}
	if want := 5; scored != want { // indices 0,50,100,150,200
		t.Errorf("scored events %d, want %d", scored, want)
	}
	if alarms == 0 || verdicts != 1 {
		t.Errorf("alarms=%d verdicts=%d", alarms, verdicts)
	}
}
