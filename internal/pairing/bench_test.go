package pairing

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
)

// BenchmarkPairingThroughput measures frame-correlation throughput at
// fleet scale: U units, obsPerUnit observations each (two 53-var frames
// per observation), with reorder injection — frames are shuffled inside
// window-sized bursts, so roughly half of all pairings complete out of
// order. The benchmark asserts the protocol invariant that every
// observation is recovered as a full pair: reordering inside the window
// must never cost an observation.
//
// The ticked variants add the replay pattern: an age horizon, a fake clock
// stepping 1µs per frame, and a Tick after every offered frame. The
// horizon (1ms, 1000 frames) lets Tick force each unit's first emission
// but never orphans a reordered slot.
func BenchmarkPairingThroughput(b *testing.B) {
	for _, ticked := range []bool{false, true} {
		for _, units := range []int{1, 8, 64} {
			name := fmt.Sprintf("units-%d", units)
			if ticked {
				name = "ticked/" + name
			}
			b.Run(name, func(b *testing.B) { benchPairing(b, units, ticked) })
		}
	}
}

func benchPairing(b *testing.B, units int, ticked bool) {
	const (
		obsPerUnit = 200
		window     = 32
		burst      = 16 // reorder radius in frames (< window observations)
	)
	type fr struct {
		typ  fieldbus.FrameType
		unit uint8
		seq  uint64
	}
	// Schedule: round-robin units, both frames per observation,
	// then shuffle within bursts (deterministic seed).
	frames := make([]fr, 0, 2*units*obsPerUnit)
	for o := 0; o < obsPerUnit; o++ {
		for u := 0; u < units; u++ {
			frames = append(frames,
				fr{fieldbus.FrameSensor, uint8(u), uint64(o)},
				fr{fieldbus.FrameActuator, uint8(u), uint64(o)})
		}
	}
	rng := rand.New(rand.NewSource(42))
	for start := 0; start < len(frames); start += burst {
		end := start + burst
		if end > len(frames) {
			end = len(frames)
		}
		sub := frames[start:end]
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	}
	row := make([]float64, historian.NumVars)
	for j := range row {
		row[j] = float64(j)
	}
	now := time.Unix(0, 0)
	cfg := Config{Cols: historian.NumVars, Window: window}
	if ticked {
		cfg.MaxAge = time.Millisecond
		cfg.Clock = func() time.Time { return now }
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var scored uint64
		sink := func(ev Event) error {
			switch ev.Outcome {
			case Paired, OrphanSensor, OrphanActuator:
				scored++
			}
			return nil
		}
		c, err := NewCorrelator(cfg, sink)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			now = now.Add(time.Microsecond)
			if err := c.Offer(f.typ, f.unit, f.seq, row); err != nil {
				b.Fatal(err)
			}
			if ticked {
				if err := c.Tick(now); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if want := uint64(units * obsPerUnit); scored != want {
			b.Fatalf("scored %d observations, want %d", scored, want)
		}
		if st := c.Stats(); st.Paired != uint64(units*obsPerUnit) {
			b.Fatalf("reordering cost pairings: %+v", st)
		}
	}
	obs := float64(units * obsPerUnit)
	b.ReportMetric(obs*float64(b.N)/b.Elapsed().Seconds(), "obs/sec")
	b.ReportMetric(2*obs*float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(2*obs*float64(b.N)), "ns/frame")
}
