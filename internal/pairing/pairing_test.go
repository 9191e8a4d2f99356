package pairing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"pcsmon/internal/fieldbus"
)

const testCols = 4

// row builds a distinguishable test row: value v in every column.
func row(v float64) []float64 {
	r := make([]float64, testCols)
	for j := range r {
		r[j] = v
	}
	return r
}

// collector is a sink that records every event with copied rows.
type collector struct {
	events []Event
}

func (c *collector) sink(ev Event) error {
	cp := ev
	cp.Ctrl = append([]float64(nil), ev.Ctrl...)
	cp.Proc = append([]float64(nil), ev.Proc...)
	c.events = append(c.events, cp)
	return nil
}

// scoreable filters the collected events down to observation outcomes.
func (c *collector) scoreable() []Event {
	var out []Event
	for _, ev := range c.events {
		switch ev.Outcome {
		case Paired, OrphanSensor, OrphanActuator:
			out = append(out, ev)
		}
	}
	return out
}

func newTestCorrelator(t *testing.T, cfg Config) (*Correlator, *collector) {
	t.Helper()
	col := &collector{}
	if cfg.Cols == 0 {
		cfg.Cols = testCols
	}
	c, err := NewCorrelator(cfg, col.sink)
	if err != nil {
		t.Fatal(err)
	}
	return c, col
}

func offer(t *testing.T, c *Correlator, typ fieldbus.FrameType, unit uint8, seq uint64, v float64) {
	t.Helper()
	if err := c.Offer(typ, unit, seq, row(v)); err != nil {
		t.Fatalf("offer %v unit %d seq %d: %v", typ, unit, seq, err)
	}
}

func TestInOrderPairing(t *testing.T) {
	c, col := newTestCorrelator(t, Config{})
	for seq := uint64(1); seq <= 5; seq++ {
		offer(t, c, fieldbus.FrameSensor, 0, seq, float64(seq))
		offer(t, c, fieldbus.FrameActuator, 0, seq, float64(seq)+100)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != 5 {
		t.Fatalf("got %d observations, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Outcome != Paired {
			t.Errorf("obs %d: outcome %v, want paired", i, ev.Outcome)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("obs %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Ctrl[0] != float64(i+1) || ev.Proc[0] != float64(i+1)+100 {
			t.Errorf("obs %d: rows ctrl=%g proc=%g", i, ev.Ctrl[0], ev.Proc[0])
		}
	}
	st := c.Stats()
	if st.Paired != 5 || st.Frames != 10 || st.PendingFrames != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestReorderWithinWindow: arbitrary arrival order inside the window must
// still emit strictly in sequence order, all paired.
func TestReorderWithinWindow(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 16})
	const n = 12
	type fr struct {
		typ fieldbus.FrameType
		seq uint64
	}
	var frames []fr
	for seq := uint64(0); seq < n; seq++ {
		frames = append(frames, fr{fieldbus.FrameSensor, seq}, fr{fieldbus.FrameActuator, seq})
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	for _, f := range frames {
		offer(t, c, f.typ, 3, f.seq, float64(f.seq))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != n {
		t.Fatalf("got %d observations, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Outcome != Paired {
			t.Errorf("obs %d: seq %d outcome %v", i, ev.Seq, ev.Outcome)
		}
	}
}

// TestInterleavedUnits: units are correlated independently; one unit's
// reordering does not disturb another's stream.
func TestInterleavedUnits(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 8})
	for seq := uint64(0); seq < 6; seq++ {
		for _, unit := range []uint8{1, 2, 7} {
			// Unit 2's actuator frames arrive one seq late (skewed).
			offer(t, c, fieldbus.FrameSensor, unit, seq, float64(unit)*1000+float64(seq))
			if unit == 2 && seq > 0 {
				offer(t, c, fieldbus.FrameActuator, unit, seq-1, float64(unit)*1000+float64(seq-1))
			}
			if unit != 2 {
				offer(t, c, fieldbus.FrameActuator, unit, seq, float64(unit)*1000+float64(seq))
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	perUnit := map[uint8][]Event{}
	for _, ev := range col.scoreable() {
		perUnit[ev.Unit] = append(perUnit[ev.Unit], ev)
	}
	for _, unit := range []uint8{1, 2, 7} {
		evs := perUnit[unit]
		if len(evs) != 6 {
			t.Fatalf("unit %d: %d observations, want 6", unit, len(evs))
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i) {
				t.Errorf("unit %d obs %d: seq %d", unit, i, ev.Seq)
			}
			if i < 5 && ev.Outcome != Paired {
				t.Errorf("unit %d obs %d: outcome %v", unit, i, ev.Outcome)
			}
			if ev.Ctrl[0] != float64(unit)*1000+float64(i) {
				t.Errorf("unit %d obs %d: row %g", unit, i, ev.Ctrl[0])
			}
		}
	}
	// Unit 2's final actuator frame never arrived: its last observation is
	// an orphan with the previous actuator row held.
	last := perUnit[2][5]
	if last.Outcome != OrphanSensor || !last.Held || last.View != fieldbus.FrameActuator {
		t.Errorf("unit 2 tail: %+v", last)
	}
	if last.Proc[0] != 2004 { // held from seq 4
		t.Errorf("unit 2 tail held row %g, want 2004", last.Proc[0])
	}
}

// TestDuplicatesDropped: replayed frames are counted and dropped; the
// emitted stream is unchanged.
func TestDuplicatesDropped(t *testing.T) {
	c, col := newTestCorrelator(t, Config{})
	for seq := uint64(0); seq < 4; seq++ {
		offer(t, c, fieldbus.FrameSensor, 0, seq, float64(seq))
		offer(t, c, fieldbus.FrameSensor, 0, seq, float64(seq)+999) // duplicate: first wins
		offer(t, c, fieldbus.FrameActuator, 0, seq, float64(seq))
		offer(t, c, fieldbus.FrameActuator, 0, seq, float64(seq)+999)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != 4 {
		t.Fatalf("got %d observations, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Outcome != Paired || ev.Ctrl[0] != float64(i) || ev.Proc[0] != float64(i) {
			t.Errorf("obs %d: %+v", i, ev)
		}
	}
	st := c.Stats()
	if st.Duplicates+st.Stale != 8 {
		t.Errorf("dropped %d+%d frames, want 8 total", st.Duplicates, st.Stale)
	}
	if st.Frames != 16 || st.Paired != 4 {
		t.Errorf("stats %+v", st)
	}
}

// TestWindowOverflowFlushesOldest: a frame far ahead forces the oldest
// pending slots out as orphans and the skipped range out as one gap.
func TestWindowOverflowFlushesOldest(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 4})
	offer(t, c, fieldbus.FrameSensor, 0, 0, 0) // pending, never paired
	offer(t, c, fieldbus.FrameSensor, 0, 10, 10)
	// Window is [7,11) now: seq 0 must have been flushed as an orphan and
	// seqs 1..6 as a gap.
	var got []string
	for _, ev := range col.events {
		got = append(got, fmt.Sprintf("%v@%d/%d", ev.Outcome, ev.Seq, ev.Span))
	}
	want := []string{"orphan-sensor@0/0", "gap@1/6"}
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: %s, want %s", i, got[i], want[i])
		}
	}
	st := c.Stats()
	if st.GapSeqs != 6 || st.OrphanSensors != 1 || st.PendingSteps != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestHoldLastValueSynthesis: after a pairing, orphans of the missing view
// carry the held mate row — and before any pairing they mirror.
func TestHoldLastValueSynthesis(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 2})
	// Seq 0: sensor only, actuator never seen -> mirror.
	offer(t, c, fieldbus.FrameSensor, 0, 0, 1)
	// Seq 1: full pair -> establishes hold-last state.
	offer(t, c, fieldbus.FrameSensor, 0, 1, 2)
	offer(t, c, fieldbus.FrameActuator, 0, 1, 102)
	// Seqs 2,3: sensor only -> actuator view held at 102.
	offer(t, c, fieldbus.FrameSensor, 0, 2, 3)
	offer(t, c, fieldbus.FrameSensor, 0, 3, 4)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != 4 {
		t.Fatalf("got %d observations, want 4", len(evs))
	}
	if evs[0].Outcome != OrphanSensor || evs[0].Held || evs[0].Proc[0] != 1 {
		t.Errorf("mirror orphan: %+v", evs[0])
	}
	if evs[1].Outcome != Paired {
		t.Errorf("pair: %+v", evs[1])
	}
	for i, ev := range evs[2:] {
		if ev.Outcome != OrphanSensor || !ev.Held || ev.Proc[0] != 102 || ev.Ctrl[0] != float64(i)+3 {
			t.Errorf("held orphan %d: %+v", i, ev)
		}
	}
}

// TestViewStalledOnBlackout: a systematic one-view blackout raises exactly
// one ViewStalled per episode, and a recovered view re-arms the detector.
func TestViewStalledOnBlackout(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 2, StallAfter: 3})
	seq := uint64(0)
	pair := func() {
		offer(t, c, fieldbus.FrameSensor, 0, seq, 1)
		offer(t, c, fieldbus.FrameActuator, 0, seq, 2)
		seq++
	}
	sensorOnly := func(n int) {
		for i := 0; i < n; i++ {
			offer(t, c, fieldbus.FrameSensor, 0, seq, 1)
			seq++
		}
		// Push the pending orphans out of the 2-deep window.
		offer(t, c, fieldbus.FrameSensor, 0, seq+1, 1)
		offer(t, c, fieldbus.FrameActuator, 0, seq+1, 2)
		seq += 2
	}
	pair()
	sensorOnly(5) // blackout #1: 5 held orphans -> one stall event
	pair()
	sensorOnly(4) // blackout #2 after recovery -> a second stall event
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var stalls []Event
	for _, ev := range col.events {
		if ev.Outcome == ViewStalled {
			stalls = append(stalls, ev)
		}
	}
	if len(stalls) != 2 {
		t.Fatalf("got %d stall events, want 2 (%v)", len(stalls), stalls)
	}
	for i, ev := range stalls {
		if ev.View != fieldbus.FrameActuator {
			t.Errorf("stall %d view %v, want actuator", i, ev.View)
		}
	}
	if st := c.Stats(); st.Stalls != 2 {
		t.Errorf("stats %+v", st)
	}
}

// TestTickAgeHorizon: slots past MaxAge are flushed by Tick, younger ones
// stay pending.
func TestTickAgeHorizon(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, col := newTestCorrelator(t, Config{Window: 8, MaxAge: time.Second, Clock: clock})
	offer(t, c, fieldbus.FrameSensor, 0, 0, 1)
	now = now.Add(700 * time.Millisecond)
	offer(t, c, fieldbus.FrameSensor, 0, 1, 2)
	if err := c.Tick(now); err != nil {
		t.Fatal(err)
	}
	if len(col.scoreable()) != 0 {
		t.Fatalf("premature flush: %v", col.events)
	}
	now = now.Add(400 * time.Millisecond) // seq 0 is now 1.1s old, seq 1 only 0.4s
	if err := c.Tick(now); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != 1 || evs[0].Seq != 0 || evs[0].Outcome != OrphanSensor {
		t.Fatalf("after first horizon: %v", col.events)
	}
	now = now.Add(time.Hour)
	if err := c.Tick(now); err != nil {
		t.Fatal(err)
	}
	if evs := col.scoreable(); len(evs) != 2 || evs[1].Seq != 1 {
		t.Fatalf("after second horizon: %v", col.events)
	}
	if st := c.Stats(); st.PendingFrames != 0 || st.PendingSteps != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestTickSparesFreshHead: the age horizon gates on the slot the flush
// would actually emit — an expired newer-sequence slot parked behind a
// fresh head must NOT force the fresh head out as an orphan; it waits its
// in-order turn.
func TestTickSparesFreshHead(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	c, col := newTestCorrelator(t, Config{Window: 8, MaxAge: time.Second, Clock: clock})
	offer(t, c, fieldbus.FrameSensor, 0, 5, 5) // old slot, ahead of the head
	now = now.Add(950 * time.Millisecond)
	offer(t, c, fieldbus.FrameSensor, 0, 0, 1) // fresh head (rebase down)
	now = now.Add(100 * time.Millisecond)      // seq 5 is 1.05s old, head only 0.1s
	if err := c.Tick(now); err != nil {
		t.Fatal(err)
	}
	if len(col.events) != 0 {
		t.Fatalf("fresh head force-flushed: %v", col.events)
	}
	offer(t, c, fieldbus.FrameActuator, 0, 0, 2) // mate arrives within MaxAge
	now = now.Add(900 * time.Millisecond)        // both head and slot 5 now overdue
	if err := c.Tick(now); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != 2 || evs[0].Seq != 0 || evs[0].Outcome != Paired {
		t.Fatalf("head not paired despite its mate arriving in time: %v", col.events)
	}
	if evs[1].Seq != 5 || evs[1].Outcome != OrphanSensor {
		t.Fatalf("parked slot not flushed at its turn: %v", col.events)
	}
}

// TestInterleavedOutliersNeverAdopt: forged far-off frames interleaved
// with genuine traffic must never accumulate into an epoch adoption —
// every accepted frame clears the candidate, whatever path it takes
// (including the window-slide path of a one-view feed).
func TestInterleavedOutliersNeverAdopt(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 4})
	// Sensor-only feed: steady state flows through the window-slide path.
	seq := uint64(0)
	for ; seq < 12; seq++ {
		offer(t, c, fieldbus.FrameSensor, 0, seq, float64(seq))
	}
	// Many forged frames in one far region, each separated by genuine
	// traffic of every flavour: placed slide-path frames, duplicates of a
	// pending frame, and near-horizon stale retransmits — all of which
	// must clear the quarantine candidate.
	for k := 0; k < 9; k++ {
		offer(t, c, fieldbus.FrameSensor, 0, 1_000_000+uint64(k), -1)
		switch k % 3 {
		case 0:
			for j := 0; j < 3; j++ {
				offer(t, c, fieldbus.FrameSensor, 0, seq, float64(seq))
				seq++
			}
		case 1:
			offer(t, c, fieldbus.FrameSensor, 0, seq-1, -2) // duplicate of a pending frame
		case 2:
			offer(t, c, fieldbus.FrameSensor, 0, 0, -3) // stale retransmit
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Outliers != 9 {
		t.Errorf("outliers %d, want 9 (no adoption): %+v", st.Outliers, st)
	}
	if st.GapSeqs != 0 {
		t.Errorf("forged frames opened a gap: %+v", st)
	}
	for _, ev := range col.events {
		if ev.Outcome == EpochReset {
			t.Fatalf("interleaved outliers adopted an epoch: %+v", ev)
		}
		if (ev.Outcome == Paired || ev.Outcome == OrphanSensor) && ev.Seq >= 1_000_000 {
			t.Fatalf("forged seq scored: %+v", ev)
		}
	}
	if got := len(col.scoreable()); got != int(seq) {
		t.Errorf("scored %d genuine observations, want %d", got, seq)
	}
}

// TestStaleFramesDropped: frames below the reorder horizon are dropped
// with accounting, whatever their type.
func TestStaleFramesDropped(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 2})
	offer(t, c, fieldbus.FrameSensor, 0, 10, 1)
	offer(t, c, fieldbus.FrameActuator, 0, 10, 2)
	offer(t, c, fieldbus.FrameSensor, 0, 3, 9)    // too far below the window to rebase
	offer(t, c, fieldbus.FrameActuator, 0, 10, 9) // redundant copy of a pending half
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(col.scoreable()); n != 1 {
		t.Fatalf("%d observations, want 1", n)
	}
	if st := c.Stats(); st.Stale != 1 || st.Duplicates != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestAccountingInvariant: the frame conservation equation holds at every
// point of a messy interleaved run.
func TestAccountingInvariant(t *testing.T) {
	c, _ := newTestCorrelator(t, Config{Window: 4})
	rng := rand.New(rand.NewSource(17))
	check := func() {
		st := c.Stats()
		sum := 2*st.Paired + st.OrphanSensors + st.OrphanActuators + st.Duplicates + st.Stale + st.Outliers + st.PendingFrames
		if st.Frames != sum {
			t.Fatalf("conservation violated: frames=%d sum=%d (%+v)", st.Frames, sum, st)
		}
	}
	for i := 0; i < 2000; i++ {
		typ := fieldbus.FrameSensor
		if rng.Intn(2) == 0 {
			typ = fieldbus.FrameActuator
		}
		unit := uint8(rng.Intn(3))
		seq := uint64(i/6) + uint64(rng.Intn(5))
		offer(t, c, typ, unit, seq, float64(i))
		if i%97 == 0 {
			check()
		}
	}
	check()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PendingFrames != 0 || st.PendingSteps != 0 {
		t.Errorf("pending after close: %+v", st)
	}
	check2 := 2*st.Paired + st.OrphanSensors + st.OrphanActuators + st.Duplicates + st.Stale + st.Outliers
	if st.Frames != check2 {
		t.Errorf("conservation after close: frames=%d sum=%d", st.Frames, check2)
	}
}

// TestSeqJumpQuarantine: one corrupted/forged far-future sequence number
// must not blind the unit — it is dropped as an outlier and the genuine
// stream keeps scoring — while a sustained run of frames in a new region
// (collector restart, long outage) is adopted as a new epoch.
func TestSeqJumpQuarantine(t *testing.T) {
	c, col := newTestCorrelator(t, Config{Window: 4})
	pair := func(seq uint64, v float64) {
		offer(t, c, fieldbus.FrameSensor, 0, seq, v)
		offer(t, c, fieldbus.FrameActuator, 0, seq, v)
	}
	for seq := uint64(0); seq < 8; seq++ {
		pair(seq, float64(seq))
	}
	// The poisoned frame: a single forged far-future sequence number.
	offer(t, c, fieldbus.FrameSensor, 0, 1<<60, -1)
	// The genuine stream continues and must still be scored.
	for seq := uint64(8); seq < 16; seq++ {
		pair(seq, float64(seq))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != 16 {
		t.Fatalf("scored %d observations after the poison frame, want 16", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Outcome != Paired {
			t.Errorf("obs %d: seq %d outcome %v", i, ev.Seq, ev.Outcome)
		}
	}
	st := c.Stats()
	if st.Outliers != 1 {
		t.Errorf("stats %+v", st)
	}

	// A sustained jump is a genuine epoch: after epochFrames in-region
	// frames the window re-anchors and scoring resumes there.
	const epoch = uint64(1 << 40)
	pair(epoch, 100)
	offer(t, c, fieldbus.FrameSensor, 0, epoch+1, 101)
	pair(epoch+2, 102)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	evs = col.scoreable()
	tail := evs[16:]
	if len(tail) < 2 {
		t.Fatalf("epoch frames not scored: %d tail observations", len(tail))
	}
	for _, ev := range tail {
		if ev.Seq < epoch {
			t.Errorf("post-epoch observation at seq %d", ev.Seq)
		}
	}
	var gapSpans uint64
	for _, ev := range col.events {
		if ev.Outcome == GapDetected {
			gapSpans += ev.Span
		}
	}
	if gapSpans == 0 {
		t.Error("epoch adoption recorded no gap")
	}

	// A collector restart: the counter drops back to zero. The first two
	// frames are quarantined, the third confirms the backward epoch, and
	// scoring resumes from the new numbering with an EpochReset event.
	before := len(col.scoreable())
	pair(0, 200)
	pair(1, 201)
	pair(2, 202)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	resets := 0
	for _, ev := range col.events {
		if ev.Outcome == EpochReset {
			resets++
		}
	}
	if resets != 1 {
		t.Fatalf("%d epoch resets, want 1", resets)
	}
	restarted := col.scoreable()[before:]
	if len(restarted) == 0 {
		t.Fatal("no observations scored after the restart")
	}
	for _, ev := range restarted {
		if ev.Seq > 2 {
			t.Errorf("post-restart observation at stale seq %d", ev.Seq)
		}
	}
}

// TestSinkErrorPropagates: a failing sink aborts the offer and surfaces.
func TestSinkErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	c, err := NewCorrelator(Config{Cols: testCols}, func(Event) error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Offer(fieldbus.FrameSensor, 0, 0, row(1)); err != nil {
		t.Fatalf("pending offer must not hit the sink: %v", err)
	}
	if err := c.Offer(fieldbus.FrameActuator, 0, 0, row(2)); err != nil {
		t.Fatalf("pending pair must not hit the sink before the first forced emission: %v", err)
	}
	if err := c.Flush(); !errors.Is(err, boom) {
		t.Fatalf("want sink error from the flush, got %v", err)
	}
}

// TestConfigAndFrameValidation: bad parameters and malformed frames are
// rejected with the package sentinels.
func TestConfigAndFrameValidation(t *testing.T) {
	sink := func(Event) error { return nil }
	for _, cfg := range []Config{
		{Cols: 0},
		{Cols: -1},
		{Cols: fieldbus.MaxValues + 1},
		{Cols: 4, Window: -1},
		{Cols: 4, MaxAge: -time.Second},
	} {
		if _, err := NewCorrelator(cfg, sink); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%+v: want ErrBadConfig, got %v", cfg, err)
		}
	}
	if _, err := NewCorrelator(Config{Cols: 4}, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil sink: want ErrBadConfig, got %v", err)
	}
	c, _ := NewCorrelator(Config{Cols: 4}, sink)
	if err := c.Offer(fieldbus.FrameType(9), 0, 0, row(1)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad type: %v", err)
	}
	if err := c.Offer(fieldbus.FrameSensor, 0, 0, []float64{1}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad width: %v", err)
	}
	if err := c.OfferFrame(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("nil frame: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Offer(fieldbus.FrameSensor, 0, 0, row(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("offer after close: %v", err)
	}
	if err := c.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("flush after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestOfferFrameRoundTrip: a frame that went through the wire codec pairs
// exactly like direct values.
func TestOfferFrameRoundTrip(t *testing.T) {
	c, col := newTestCorrelator(t, Config{})
	sf := &fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: 5, Seq: 9, Values: row(3)}
	af := &fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: 5, Seq: 9, Values: row(4)}
	for _, f := range []*fieldbus.Frame{sf, af} {
		data, err := f.MarshalTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded := &fieldbus.Frame{}
		if err := decoded.UnmarshalInto(data); err != nil {
			t.Fatal(err)
		}
		if err := c.OfferFrame(decoded); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := col.scoreable()
	if len(evs) != 1 || evs[0].Outcome != Paired || evs[0].Unit != 5 || evs[0].Seq != 9 {
		t.Fatalf("events %v", col.events)
	}
	if evs[0].Ctrl[0] != 3 || evs[0].Proc[0] != 4 {
		t.Errorf("rows %v %v", evs[0].Ctrl, evs[0].Proc)
	}
}

// TestNoAllocationSteadyState: once warm, pairing a frame allocates
// nothing.
func TestNoAllocationSteadyState(t *testing.T) {
	sink := func(Event) error { return nil }
	c, err := NewCorrelator(Config{Cols: testCols, Window: 8}, sink)
	if err != nil {
		t.Fatal(err)
	}
	sens, act := row(1), row(2)
	seq := uint64(0)
	// Warm the buffer pool and unit state.
	for ; seq < 32; seq++ {
		_ = c.Offer(fieldbus.FrameSensor, 0, seq, sens)
		_ = c.Offer(fieldbus.FrameActuator, 0, seq, act)
	}
	avg := testing.AllocsPerRun(200, func() {
		_ = c.Offer(fieldbus.FrameSensor, 0, seq, sens)
		_ = c.Offer(fieldbus.FrameActuator, 0, seq, act)
		seq++
	})
	if avg > 0 {
		t.Errorf("steady-state pairing allocates %.1f times per observation, want 0", avg)
	}
}

// TestLossRate: the loss figure counts exactly the frames the finalized
// sequence space implies but never received — orphan mates and gaps — and
// excludes pending slots and redundant (duplicate/stale) traffic.
func TestLossRate(t *testing.T) {
	c, _ := newTestCorrelator(t, Config{Window: 4})
	if got := c.Stats().LossRate(); got != 0 {
		t.Fatalf("empty correlator LossRate = %g, want 0", got)
	}
	// Three full pairs, the third's actuator duplicated.
	for seq := uint64(0); seq < 3; seq++ {
		offer(t, c, fieldbus.FrameSensor, 1, seq, 1)
		offer(t, c, fieldbus.FrameActuator, 1, seq, 2)
	}
	offer(t, c, fieldbus.FrameActuator, 1, 2, 2) // duplicate: redundant, not loss
	// Seq 3 loses its actuator mate; seqs 4-5 vanish entirely; seq 6 pairs.
	offer(t, c, fieldbus.FrameSensor, 1, 3, 1)
	offer(t, c, fieldbus.FrameSensor, 1, 6, 1)
	offer(t, c, fieldbus.FrameActuator, 1, 6, 2)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// Emitted space: 4 paired + 1 orphan + 2 gap seqs = 14 expected frames,
	// 9 received (the duplicate doesn't count) -> 5/14 lost.
	if st.Paired != 4 || st.OrphanSensors != 1 || st.GapSeqs != 2 || st.Duplicates != 1 {
		t.Fatalf("unexpected accounting: %+v", st)
	}
	want := 5.0 / 14.0
	if got := st.LossRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("LossRate = %g, want %g", got, want)
	}
}

// TestLossRateSingleView is the regression for the healthy-single-view
// bug: a sensor-only feed — a deployment with no actuator tap at all —
// used to score 50% loss, because every mirrored orphan was charged a
// phantom mate. Single-view operation is not loss; LossRate must be 0.
func TestLossRateSingleView(t *testing.T) {
	c, _ := newTestCorrelator(t, Config{Window: 4})
	for seq := uint64(0); seq < 20; seq++ {
		offer(t, c, fieldbus.FrameSensor, 1, seq, 1)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.OrphanSensors != 20 {
		t.Fatalf("unexpected accounting: %+v", st)
	}
	if got := st.LossRate(); got != 0 {
		t.Errorf("healthy sensor-only feed LossRate = %g, want 0", got)
	}
	if st.ExpectedFrames != 20 || st.MissingFrames != 0 {
		t.Errorf("expected/missing = %d/%d, want 20/0", st.ExpectedFrames, st.MissingFrames)
	}

	// A gap in a single-view feed IS loss — one frame per missing seq, not
	// two: seqs 20-21 vanish, 22 arrives.
	offer(t, c, fieldbus.FrameSensor, 1, 22, 1)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.GapSeqs != 2 {
		t.Fatalf("unexpected accounting: %+v", st)
	}
	want := 2.0 / 23.0 // 21 sensor frames expected + 2 gapped, 2 missing
	if got := st.LossRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("single-view LossRate with gap = %g, want %g", got, want)
	}
}

// TestLossRateViewAppears covers the transition: once the second view
// delivers even once, its absence from later observations is genuine loss.
func TestLossRateViewAppears(t *testing.T) {
	c, _ := newTestCorrelator(t, Config{Window: 4})
	// Two mirrored sensor-only observations, then the actuator tap comes
	// online for seq 2, then disappears again for 3-4.
	offer(t, c, fieldbus.FrameSensor, 1, 0, 1)
	offer(t, c, fieldbus.FrameSensor, 1, 1, 1)
	offer(t, c, fieldbus.FrameSensor, 1, 2, 1)
	offer(t, c, fieldbus.FrameActuator, 1, 2, 2)
	offer(t, c, fieldbus.FrameSensor, 1, 3, 1)
	offer(t, c, fieldbus.FrameSensor, 1, 4, 1)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// Seqs 0-1: 1 expected each, 0 missing. Seq 2: 2 expected, 0 missing.
	// Seqs 3-4 (held): 2 expected each, 1 missing each.
	if st.ExpectedFrames != 8 || st.MissingFrames != 2 {
		t.Fatalf("expected/missing = %d/%d, want 8/2 (%+v)", st.ExpectedFrames, st.MissingFrames, st)
	}
	want := 2.0 / 8.0
	if got := st.LossRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("LossRate = %g, want %g", got, want)
	}
}
