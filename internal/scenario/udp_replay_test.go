package scenario

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/fleet"
	"pcsmon/internal/pairing"
)

// newReplayPool builds the pairing-correlator-into-fleet-pool stack every
// transport replay in this file scores through, returning the correlator,
// a report fetcher (detach + close) and the plant id.
func newReplayPool(t *testing.T, exp *Experiment, cols, window int) (*pairing.Correlator, func() *core.Report) {
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
		Cols: cols, Window: window,
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
	finish := func() *core.Report {
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
	return cor, finish
}

// replayOverUDP plays a frame schedule through a real UDP socket pair into
// the correlator/pool stack and returns the classified report plus the
// pairing stats. The schedule is what the sender *attempts*; the kernel
// may add loss of its own on top, which the pairing layer absorbs the same
// way — that's the point of the transport.
func replayOverUDP(t *testing.T, exp *Experiment, frames []replayFrame, ctrl, proc [][]float64, window int) (*core.Report, pairing.Stats) {
	t.Helper()
	cor, finish := newReplayPool(t, exp, len(ctrl[0]), window)

	// The receive goroutine offers straight into the correlator; serialize
	// against the progress probe below.
	var mu sync.Mutex
	offerErr := error(nil)
	srv, err := fieldbus.NewUDPServer("127.0.0.1:0", func(f *fieldbus.Frame) {
		mu.Lock()
		if offerErr == nil {
			offerErr = cor.OfferFrame(f)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := fieldbus.DialUDP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame := &fieldbus.Frame{Unit: 0}
	for i, f := range frames {
		frame.Type = f.typ
		frame.Seq = uint64(f.idx)
		frame.Values = ctrl[f.idx]
		if f.typ == fieldbus.FrameActuator {
			frame.Values = proc[f.idx]
		}
		if err := cli.Send(frame); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			// Pace below the scoring rate so the socket buffer never has to
			// absorb more than a burst (any kernel drop is tolerated, but
			// the parity assertion is strongest when the injected schedule
			// dominates the loss).
			time.Sleep(time.Millisecond)
		}
	}
	// Ingestion is done when the frame count stops advancing.
	last, lastChange := uint64(0), time.Now()
	for time.Since(lastChange) < 300*time.Millisecond {
		if n := cor.Stats().Frames; n != last {
			last, lastChange = n, time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = cli.Close()
	_ = srv.Close()
	mu.Lock()
	err = offerErr
	mu.Unlock()
	if err != nil {
		t.Fatalf("udp ingest: %v", err)
	}
	stats := cor.Stats()
	return finish(), stats
}

// lossySchedule builds the adversarial datagram schedule: in-order frames
// run through deterministic drop (2%), duplication (2%) and burst reorder
// (16-frame shuffle windows) — the lossy network between collector and
// monitor.
func lossySchedule(n int, seed int64) []replayFrame {
	rng := rand.New(rand.NewSource(seed))
	var out []replayFrame
	for _, f := range inOrderFrames(n) {
		r := rng.Float64()
		switch {
		case r < 0.02: // dropped in transit
		case r < 0.04: // duplicated in transit
			out = append(out, f, f)
		default:
			out = append(out, f)
		}
	}
	for start := 0; start < len(out); start += 16 {
		end := start + 16
		if end > len(out) {
			end = len(out)
		}
		sub := out[start:end]
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	}
	return out
}

// TestLossyUDPReplayVerdictParity is the lossy-transport acceptance: each
// paper scenario, replayed as datagrams over a real UDP socket with
// injected drop/duplicate/reorder, must reach the same verdict as the
// batch two-view analysis — frame loss becomes orphan accounting and
// hold-last scoring, not a different diagnosis.
func TestLossyUDPReplayVerdictParity(t *testing.T) {
	exp, res := fixture(t)
	for _, sc := range PaperScenarios(testOnsetHour) {
		t.Run(sc.Key, func(t *testing.T) {
			batch := res[sc.Key].Runs[0]
			ctrl, proc := captureRun(t, exp, sc, batch.Seed)
			frames := lossySchedule(len(ctrl), 11)
			rep, stats := replayOverUDP(t, exp, frames, ctrl, proc, 64)
			if rep.Verdict != batch.Report.Verdict {
				t.Errorf("lossy UDP verdict %v, batch %v (loss rate %.2f%%)\nudp:   %s\nbatch: %s",
					rep.Verdict, batch.Report.Verdict, 100*stats.LossRate(),
					rep.Explanation, batch.Report.Explanation)
			}
			if stats.LossRate() == 0 {
				t.Error("injected drops produced no measured loss — the harness is not lossy")
			}
			if stats.Duplicates == 0 {
				t.Error("injected duplicates were not observed")
			}
		})
	}
}

// TestOneViewUDPBlackoutIsDoS: losing every actuator datagram from onset
// on (a one-view UDP blackout) must classify as a DoS, exactly like the
// TCP blackout replay — the transport changes, the diagnosis does not.
func TestOneViewUDPBlackoutIsDoS(t *testing.T) {
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
	rep, stats := replayOverUDP(t, exp, frames, ctrl, proc, 64)
	if rep.Verdict != core.VerdictDoS {
		t.Fatalf("blackout verdict %v (%s), want dos-attack", rep.Verdict, rep.Explanation)
	}
	if len(rep.FrozenProc) == 0 {
		t.Errorf("no frozen process-side channels recorded: %+v", rep)
	}
	if stats.OrphanSensors == 0 {
		t.Error("blackout produced no sensor orphans")
	}
}

// TestCaptureReplayMatchesBatch: a capture of the clean in-order frame
// stream must replay bit-identically to the batch report — the capture
// codec preserves every frame (NaNs, signs, all 64 bits) and the replay
// path is the same pairing/fleet stack the live listeners feed.
func TestCaptureReplayMatchesBatch(t *testing.T) {
	exp, res := fixture(t)
	for _, sc := range PaperScenarios(testOnsetHour) {
		t.Run(sc.Key, func(t *testing.T) {
			batch := res[sc.Key].Runs[0]
			ctrl, proc := captureRun(t, exp, sc, batch.Seed)

			// Record the in-order two-view stream, one observation per
			// sample interval.
			var buf bytes.Buffer
			cw, err := fieldbus.NewCaptureWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ctrl {
				at := time.Duration(i) * exp.SampleInterval()
				if err := cw.WriteAt(&fieldbus.Frame{
					Type: fieldbus.FrameSensor, Unit: 0, Seq: uint64(i), Values: ctrl[i],
				}, at); err != nil {
					t.Fatal(err)
				}
				if err := cw.WriteAt(&fieldbus.Frame{
					Type: fieldbus.FrameActuator, Unit: 0, Seq: uint64(i), Values: proc[i],
				}, at); err != nil {
					t.Fatal(err)
				}
			}
			if err := cw.Flush(); err != nil {
				t.Fatal(err)
			}

			cor, finish := newReplayPool(t, exp, len(ctrl[0]), 64)
			cr, err := fieldbus.NewCaptureReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var got uint64
			for {
				_, f, err := cr.Next()
				if err != nil {
					break // io.EOF; anything else fails the frame count below
				}
				got++
				if err := cor.OfferFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			if want := uint64(2 * len(ctrl)); got != want {
				t.Fatalf("capture replayed %d frames, want %d", got, want)
			}
			rep := finish()
			if !reflect.DeepEqual(rep, batch.Report) {
				t.Errorf("capture replay differs from batch report:\nreplay: %+v\nbatch:  %+v",
					rep, batch.Report)
			}
		})
	}
}

// TestRotatedChainReplayMatchesBatch is the durable-store parity
// acceptance: the same two-view stream recorded through a CaptureStore —
// rotated into many sealed segments on disk — must replay through the
// chain reader to a verdict bit-identical to the batch analysis AND to the
// single-file capture path. Rotation must be invisible to the diagnosis.
func TestRotatedChainReplayMatchesBatch(t *testing.T) {
	exp, res := fixture(t)
	for _, sc := range PaperScenarios(testOnsetHour) {
		t.Run(sc.Key, func(t *testing.T) {
			batch := res[sc.Key].Runs[0]
			ctrl, proc := captureRun(t, exp, sc, batch.Seed)

			// Record through the store, sized to force frequent rotation
			// (tens of segments over a full scenario).
			base := t.TempDir() + "/chain"
			st, err := fieldbus.OpenCaptureStore(base, fieldbus.StoreOptions{
				SegmentBytes: 64 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ctrl {
				at := time.Duration(i) * exp.SampleInterval()
				if err := st.WriteAt(&fieldbus.Frame{
					Type: fieldbus.FrameSensor, Unit: 0, Seq: uint64(i), Values: ctrl[i],
				}, at); err != nil {
					t.Fatal(err)
				}
				if err := st.WriteAt(&fieldbus.Frame{
					Type: fieldbus.FrameActuator, Unit: 0, Seq: uint64(i), Values: proc[i],
				}, at); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st.Segments() < 2 {
				t.Fatalf("only %d segments — rotation never fired, parity not exercised", st.Segments())
			}

			cor, finish := newReplayPool(t, exp, len(ctrl[0]), 64)
			cr, err := fieldbus.OpenCaptureChain(base, fieldbus.ChainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, f, err := cr.Next()
				if err != nil {
					break // io.EOF; anything else fails the frame count below
				}
				if err := cor.OfferFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := cr.Truncated(); err != nil {
				t.Fatalf("sealed chain reported truncation: %v", err)
			}
			if got, want := cr.RecordsRead(), uint64(2*len(ctrl)); got != want {
				t.Fatalf("chain replayed %d frames, want %d", got, want)
			}
			rep := finish()
			if !reflect.DeepEqual(rep, batch.Report) {
				t.Errorf("rotated chain replay differs from batch report:\nreplay: %+v\nbatch:  %+v",
					rep, batch.Report)
			}
		})
	}
}
