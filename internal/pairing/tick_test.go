package pairing

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pcsmon/internal/fieldbus"
)

// fullScanTick is Tick before the arrival bound, kept as the reference:
// every call walks every unit and flushes while the slot a flush would
// emit arrived at or before the horizon.
func fullScanTick(c *Correlator, now time.Time) error {
	if c.cfg.MaxAge <= 0 {
		return nil
	}
	horizon := now.Add(-c.cfg.MaxAge).UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for id := 0; id < len(c.units); id++ {
		u := c.units[id]
		if u == nil {
			continue
		}
		for u.pending > 0 && c.headArrival(u) <= horizon {
			if err := c.flushHead(u, uint8(id)); err != nil {
				return err
			}
			if err := c.drain(u, uint8(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// tickFrame is one frame of a generated stream plus the clock step taken
// before it is offered.
type tickFrame struct {
	typ  fieldbus.FrameType
	unit uint8
	seq  uint64
	step time.Duration
}

// tickStream generates a seeded two-view feed of 1–64 units with burst
// reorder, random drops, duplicates, one-view blackouts, and a clock that
// steps, stalls, jumps forward past the age horizon and jumps backwards.
func tickStream(rng *rand.Rand, maxAge time.Duration) (frames []tickFrame, units int) {
	units = 1 + rng.Intn(64)
	obs := 20 + rng.Intn(120)
	drop := rng.Float64() * 0.15
	dup := rng.Float64() * 0.1
	// A blackout silences one view of one unit for a run of observations.
	bUnit, bView := uint8(rng.Intn(units)), fieldbus.FrameSensor
	if rng.Intn(2) == 0 {
		bView = fieldbus.FrameActuator
	}
	bFrom := uint64(rng.Intn(obs))
	bTo := bFrom + uint64(rng.Intn(obs/2+1))
	for o := 0; o < obs; o++ {
		for u := 0; u < units; u++ {
			for _, typ := range []fieldbus.FrameType{fieldbus.FrameSensor, fieldbus.FrameActuator} {
				seq := uint64(o)
				if uint8(u) == bUnit && typ == bView && seq >= bFrom && seq < bTo {
					continue
				}
				if rng.Float64() < drop {
					continue
				}
				frames = append(frames, tickFrame{typ: typ, unit: uint8(u), seq: seq})
				if rng.Float64() < dup {
					frames = append(frames, tickFrame{typ: typ, unit: uint8(u), seq: seq})
				}
			}
		}
	}
	burst := 1 + rng.Intn(48)
	for start := 0; start < len(frames); start += burst {
		sub := frames[start:min(start+burst, len(frames))]
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	}
	for i := range frames {
		switch r := rng.Intn(100); {
		case r < 70: // steady step, well inside the horizon
			frames[i].step = time.Duration(rng.Int63n(int64(maxAge / 8)))
		case r < 85: // stall
		case r < 95: // jump forward, often past the horizon
			frames[i].step = time.Duration(rng.Int63n(int64(2 * maxAge)))
		default: // jump backwards
			frames[i].step = -time.Duration(rng.Int63n(int64(2 * maxAge)))
		}
	}
	return frames, units
}

// TestTickMatchesFullScan pins Tick's arrival-bound fast path to the full
// scan it replaces: on seeded lossy, reordered feeds with an erratic clock,
// ticked after every frame as a replay does, both produce the same event
// sequence and the same Stats. An occasional Flush empties every window
// behind Tick's back, leaving its bound stale.
func TestTickMatchesFullScan(t *testing.T) {
	ticked := 0 // events emitted by a Tick, across all seeds
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxAge := time.Duration(20+rng.Intn(200)) * time.Millisecond
		frames, units := tickStream(rng, maxAge)
		now := time.Unix(5000, 0)
		cfg := Config{
			Window:     []int{4, 8, 16, 64}[rng.Intn(4)],
			MaxAge:     maxAge,
			StallAfter: []int{3, 8, -1}[rng.Intn(3)],
			Clock:      func() time.Time { return now },
		}
		c, got := newTestCorrelator(t, cfg)
		ref, want := newTestCorrelator(t, cfg)
		name := fmt.Sprintf("seed %d (%d units, %d frames, window %d, max age %v)",
			seed, units, len(frames), cfg.Window, maxAge)
		for i, f := range frames {
			now = now.Add(f.step)
			v := float64(int(f.unit)<<20|int(f.seq)<<1) + float64(f.typ)
			offer(t, c, f.typ, f.unit, f.seq, v)
			offer(t, ref, f.typ, f.unit, f.seq, v)
			before := len(got.events)
			if err := c.Tick(now); err != nil {
				t.Fatalf("%s: tick after frame %d: %v", name, i, err)
			}
			if err := fullScanTick(ref, now); err != nil {
				t.Fatalf("%s: reference tick after frame %d: %v", name, i, err)
			}
			ticked += len(got.events) - before
			if i%997 == 996 {
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if len(got.events) != len(want.events) {
				t.Fatalf("%s: after frame %d: %d events, reference %d", name, i, len(got.events), len(want.events))
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		// Nothing is pending after Close, but a Tick still reports it.
		if err := c.Tick(now.Add(time.Hour)); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: tick after close: %v, want ErrClosed", name, err)
		}
		if !reflect.DeepEqual(got.events, want.events) {
			for i := range got.events {
				if !reflect.DeepEqual(got.events[i], want.events[i]) {
					t.Fatalf("%s: event %d = %+v, reference %+v", name, i, got.events[i], want.events[i])
				}
			}
		}
		if gs, ws := c.Stats(), ref.Stats(); gs != ws {
			t.Fatalf("%s: stats %+v, reference %+v", name, gs, ws)
		}
	}
	if ticked == 0 {
		t.Fatal("no Tick flushed anything: the streams never reach the age horizon")
	}
}
