package adapt

import (
	"testing"
	"time"
)

// BenchmarkAdaptiveSwap measures the full adaptation cycle per accepted
// generation: Every in-control observations learned into the EWMA
// accumulator, one candidate refit (covariance blend + PCA + limits +
// guards) and the stream's TrySwap migration. This is the path the CI
// bench-smoke step guards against regressions.
func BenchmarkAdaptiveSwap(b *testing.B) {
	sys := testSystem(b)
	const every = 64
	ctrl, proc := nocRows(17, every, 0, 0, 0)
	tracker, err := NewTracker(sys, Options{
		Enabled: true, Every: every, Forget: 0.999, MinWeight: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	a := newTestStream(b, tracker, 0, time.Second, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < every; i++ {
			if _, err := a.Push(ctrl[i], proc[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if st := tracker.Stats(); st.Accepted == 0 {
		b.Fatalf("no generation ever accepted: %+v", st)
	}
	b.ReportMetric(float64(tracker.Stats().Accepted)/float64(b.N), "swaps/op")
}

// BenchmarkAdaptiveOverhead compares the per-observation cost of an
// adaptive stream (scoring plus Tracker.Step's learn guard + accumulator,
// no refit due) against the frozen analyzer alone.
func BenchmarkAdaptiveOverhead(b *testing.B) {
	sys := testSystem(b)
	const rows = 256
	ctrl, proc := nocRows(18, rows, 0, 0, 0)

	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			oa, err := sys.NewOnlineAnalyzer(0, time.Second)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if _, err := oa.Push(ctrl[i], proc[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		tracker, err := NewTracker(sys, Options{Enabled: true, Every: 1 << 30, Forget: 0.999})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			a := newTestStream(b, tracker, 0, time.Second, nil)
			for i := 0; i < rows; i++ {
				if _, err := a.Push(ctrl[i], proc[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
