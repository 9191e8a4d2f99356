package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"pcsmon/internal/core"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/fleet"
	"pcsmon/internal/pairing"
)

// replayFrame is one scheduled fieldbus frame of a replay: the view and
// the observation index it carries (seq == index).
type replayFrame struct {
	typ fieldbus.FrameType
	idx int
}

// captureRun re-simulates one seeded run through the streaming feed and
// copies every retained paired observation — the frame payloads every
// replay variant below shares.
func captureRun(t *testing.T, exp *Experiment, sc Scenario, seed int64) (ctrl, proc [][]float64) {
	t.Helper()
	_, err := exp.Feed(sc, seed, func(idx int, c, p []float64) error {
		ctrl = append(ctrl, append([]float64(nil), c...))
		proc = append(proc, append([]float64(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("capture %s: %v", sc.Key, err)
	}
	return ctrl, proc
}

// replayThroughPairing plays a frame schedule into a pairing correlator
// feeding a fleet pool — the full live-transport stack minus the socket —
// and returns the plant's classified report.
func replayThroughPairing(t *testing.T, exp *Experiment, frames []replayFrame, ctrl, proc [][]float64, window int) *core.Report {
	t.Helper()
	pool, err := fleet.NewPool(exp.System, fleet.Config{
		Workers: 1, EmitEvery: -1, Sample: exp.SampleInterval(),
	})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range pool.Events() {
		}
	}()
	const id = "unit-000"
	st, err := pool.Attach(id, exp.OnsetIndex())
	if err != nil {
		t.Fatal(err)
	}
	cor, err := pairing.NewCorrelator(pairing.Config{
		Cols: len(ctrl[0]), Window: window,
	}, func(ev pairing.Event) error {
		switch ev.Outcome {
		case pairing.Paired, pairing.OrphanSensor, pairing.OrphanActuator:
			return st.Push(ev.Ctrl, ev.Proc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		row := ctrl[f.idx]
		if f.typ == fieldbus.FrameActuator {
			row = proc[f.idx]
		}
		if err := cor.Offer(f.typ, 0, uint64(f.idx), row); err != nil {
			t.Fatal(err)
		}
	}
	if err := cor.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
	return rep
}

// inOrderFrames schedules the clean interleaving: sensor then actuator
// frame of each observation, in order.
func inOrderFrames(n int) []replayFrame {
	frames := make([]replayFrame, 0, 2*n)
	for i := 0; i < n; i++ {
		frames = append(frames,
			replayFrame{fieldbus.FrameSensor, i},
			replayFrame{fieldbus.FrameActuator, i})
	}
	return frames
}

// TestPairedFrameReplayMatchesBatch is the transport-layer acceptance
// parity: replaying each paper scenario's run as an interleaved fieldbus
// frame stream through pairing.Correlator and fleet.Pool must reproduce
// the batch two-view report bit for bit — in clean order and under
// adversarial interleavings (view skew, burst reorder, duplicate floods)
// that stay inside the reorder window.
func TestPairedFrameReplayMatchesBatch(t *testing.T) {
	exp, res := fixture(t)
	const window = 64
	for _, sc := range PaperScenarios(testOnsetHour) {
		t.Run(sc.Key, func(t *testing.T) {
			batch := res[sc.Key].Runs[0]
			ctrl, proc := captureRun(t, exp, sc, batch.Seed)
			if len(ctrl) != batch.Samples {
				t.Fatalf("captured %d observations, batch scored %d", len(ctrl), batch.Samples)
			}
			n := len(ctrl)

			variants := map[string][]replayFrame{"in-order": inOrderFrames(n)}

			// View skew: the actuator collector lags 16 observations.
			skew := make([]replayFrame, 0, 2*n)
			const lag = 16
			for i := 0; i < n; i++ {
				skew = append(skew, replayFrame{fieldbus.FrameSensor, i})
				if i >= lag {
					skew = append(skew, replayFrame{fieldbus.FrameActuator, i - lag})
				}
			}
			for i := n - lag; i < n; i++ {
				skew = append(skew, replayFrame{fieldbus.FrameActuator, i})
			}
			variants["view-skew"] = skew

			// Burst reorder: shuffle within 48-frame bursts (< window obs).
			burst := inOrderFrames(n)
			rng := rand.New(rand.NewSource(5))
			for start := 0; start < len(burst); start += 48 {
				end := start + 48
				if end > len(burst) {
					end = len(burst)
				}
				sub := burst[start:end]
				rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			}
			variants["burst-reorder"] = burst

			// Duplicate flood: every frame transmitted twice.
			flood := make([]replayFrame, 0, 4*n)
			for _, f := range inOrderFrames(n) {
				flood = append(flood, f, f)
			}
			variants["dup-flood"] = flood

			for name, frames := range variants {
				rep := replayThroughPairing(t, exp, frames, ctrl, proc, window)
				if !reflect.DeepEqual(rep, batch.Report) {
					t.Errorf("%s replay differs from batch report:\nreplay: %+v\nbatch:  %+v",
						name, rep, batch.Report)
				}
			}
		})
	}
}

// TestOneViewBlackoutReplayIsDoSConsistent: cutting the actuator
// (process-view) frames at onset while the disturbance unfolds must not
// silently degrade to single-view monitoring — the held process view
// freezes while the controller view moves, which the analyzer classifies
// as a DoS, the verdict consistent with losing one view to an attacker.
func TestOneViewBlackoutReplayIsDoSConsistent(t *testing.T) {
	exp, res := fixture(t)
	sc := PaperScenarios(testOnsetHour)[0] // IDV(6): the plant moves after onset
	batch := res[sc.Key].Runs[0]
	ctrl, proc := captureRun(t, exp, sc, batch.Seed)
	cut := exp.OnsetIndex()
	frames := make([]replayFrame, 0, 2*len(ctrl))
	for i := range ctrl {
		frames = append(frames, replayFrame{fieldbus.FrameSensor, i})
		if i < cut {
			frames = append(frames, replayFrame{fieldbus.FrameActuator, i})
		}
	}
	rep := replayThroughPairing(t, exp, frames, ctrl, proc, 64)
	if rep.Verdict != core.VerdictDoS {
		t.Fatalf("blackout verdict %v (%s), want dos-attack", rep.Verdict, rep.Explanation)
	}
	if len(rep.FrozenProc) == 0 {
		t.Errorf("no frozen process-side channels recorded: %+v", rep)
	}
}
