// Flight-recorder: the durable capture store as the fleet's
// incident-response workflow.
//
// A recorder runs beside the plant: two redundant collectors tap the same
// wire (every frame arrives twice) and everything is written into a
// rotating, index-sealed segment chain — bounded segments, cadence
// flushes, a sidecar index per sealed segment. Mid-run an attacker forges
// XMV(3) on unit 1; shortly after, the recorder host loses power, tearing
// the last record of the unsealed final segment.
//
// Then the incident response: reopen the chain, seek straight to the
// minutes around the incident (the index skips the sealed segments before
// the window without decoding a record), suppress the second collector's
// redundant copies with a dedup window, tolerate the torn tail as a typed
// warning — and replay the surviving frames through a control plane, the
// same pairing → fleet path the live monitor runs, to a localized
// cross-view verdict.
//
//	go run ./examples/flight-recorder
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
	"pcsmon/internal/te"
)

func main() {
	dir, err := os.MkdirTemp("", "flight-recorder")
	if err != nil {
		fmt.Fprintln(os.Stderr, "flight-recorder:", err)
		os.Exit(1)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	if err := run(os.Stdout, dir, 260, 130); err != nil {
		fmt.Fprintln(os.Stderr, "flight-recorder:", err)
		os.Exit(1)
	}
}

// syncWriter serializes the plane's log goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run records `samples` observations (the attack arms at `armAt`), kills
// the recorder uncleanly, then replays the incident window from the chain.
func run(w io.Writer, dir string, samples, armAt int) error {
	const (
		xmv3 = te.NumXMEAS + te.XmvAFeed // the forged observation column
		step = 100 * time.Millisecond    // capture-time spacing of observations
	)

	// Calibrate the monitor on synthetic NOC rows (the same quick plant as
	// the other demos: correlated noise around an operating point).
	m := historian.NumVars
	loadings := make([]float64, m)
	lr := rand.New(rand.NewSource(99))
	for j := range loadings {
		loadings[j] = lr.NormFloat64()
	}
	rng := rand.New(rand.NewSource(7))
	noc := func() []float64 {
		z := rng.NormFloat64()
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			row[j] = 50 + z*loadings[j] + 0.3*rng.NormFloat64()
		}
		return row
	}
	cal, err := dataset.New(historian.VarNames())
	if err != nil {
		return err
	}
	for i := 0; i < 600; i++ {
		if err := cal.Append(noc()); err != nil {
			return err
		}
	}
	sys, err := core.Calibrate(cal, core.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "monitor calibrated on %d NOC observations\n", cal.Rows())

	// ---- Part 1: the flight recorder runs beside the plant. ----
	//
	// 128 KiB segments rotate the chain every few hundred records; the
	// explicit Flush below stands in for the live recorder's -record-flush
	// cadence (we manage the cadence ourselves, so the store's own timer
	// is off).
	base := filepath.Join(dir, "plant")
	st, err := fieldbus.OpenCaptureStore(base, fieldbus.StoreOptions{
		SegmentBytes: 128 << 10,
		FlushEvery:   -1,
	})
	if err != nil {
		return err
	}
	tap := func(f *fieldbus.Frame, at time.Duration) error {
		// Collector A and collector B see the same wire: two identical
		// copies of every frame land in the store.
		if err := st.WriteAt(f, at); err != nil {
			return err
		}
		return st.WriteAt(f, at)
	}
	fmt.Fprintf(w, "recording 2 units × 2 views × 2 collectors to %s…\n", base)
	for i := 0; i < samples; i++ {
		at := time.Duration(i) * step
		for unit := uint8(0); unit < 2; unit++ {
			truth := noc()
			ctrlView := append([]float64(nil), truth...)
			procView := append([]float64(nil), truth...)
			if unit == 1 && i >= armAt {
				if i == armAt {
					fmt.Fprintf(w, ">>> attack armed at obs %d (capture time %v): XMV(3) forged on unit 1\n", armAt, at)
				}
				ramp := 0.1 * float64(i-armAt)
				if ramp > 15 {
					ramp = 15
				}
				ctrlView[xmv3] = truth[xmv3] + ramp
				procView[xmv3] = 0
			}
			seq := uint64(i + 1)
			if err := tap(&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: unit, Seq: seq, Values: ctrlView}, at); err != nil {
				return err
			}
			if err := tap(&fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: unit, Seq: seq, Values: procView}, at); err != nil {
				return err
			}
		}
		if i%32 == 31 { // the crash-durability flush cadence
			if err := st.Flush(); err != nil {
				return err
			}
		}
	}
	stats := st.Stats()
	fmt.Fprintf(w, "recorder: %d frames (%v of plant time) in %d segments, %d rotations, %d cadence flushes\n",
		stats.Frames, stats.Span, stats.Segments+1, stats.Rotations, stats.Flushes)

	// ---- Power loss. ----
	//
	// The recorder process dies without Close: the final segment is never
	// sealed (no index sidecar), and the torn write leaves its last record
	// incomplete. Everything up to the previous cadence flush survives.
	if err := st.Flush(); err != nil {
		return err
	}
	segs, err := filepath.Glob(base + ".*.pcscap")
	if err != nil || len(segs) < 2 {
		return fmt.Errorf("chain did not rotate: %v (%d segments)", err, len(segs))
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		return err
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		return err
	}
	fmt.Fprintf(w, ">>> power loss: recorder killed mid-record — %s unsealed, tail torn\n", filepath.Base(last))

	// ---- Part 2: incident response from the chain. ----
	//
	// Replay only the window around the incident through a control plane
	// whose frame source is the chain. Sealed segments wholly before the
	// window are skipped via their index sidecars; the dedup window
	// collapses the two collectors' copies back into one stream. The plane
	// logs attachments, alarms and the pairing and dedup accounting, and
	// drains itself at the end of the chain.
	from := time.Duration(armAt-60) * step
	cr, err := fieldbus.OpenCaptureChain(base, fieldbus.ChainOptions{From: from})
	if err != nil {
		return err
	}
	defer func() { _ = cr.Close() }()
	p, err := control.New(&control.Config{
		SampleSeconds: 9,
		OnsetHour:     60 * 9.0 / 3600, // the anomaly is 60 observations into the window
		Pairing: control.Pairing{
			Window:         16,
			TimeoutSeconds: -1,
			Dedup:          8, // two taps: the adjacent redundant copy is suppressed
		},
		Fleet: control.FleetCfg{Workers: 1},
	}, control.Options{
		Out:     &syncWriter{w: w},
		System:  sys,
		Capture: &control.Capture{Chain: cr, Name: fmt.Sprintf("window [%v, end] of %d segments…", from, cr.Segments())},
	})
	if err != nil {
		return err
	}
	<-p.Drained()
	if err := p.Close(); err != nil {
		return err
	}
	if terr := cr.Truncated(); terr != nil {
		fmt.Fprintf(w, "warning: %v — replaying the %d readable frames\n", terr, cr.Delivered())
	}
	fmt.Fprintf(w, "window seek: %d of %d segments skipped via index (%d records decoded, %d delivered)\n",
		cr.SegmentsSkipped(), cr.Segments(), cr.RecordsRead(), cr.Delivered())

	reports := p.Reports()
	ids := make([]string, 0, len(reports))
	for id := range reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rep := reports[id]
		fmt.Fprintf(w, "\nplant %s VERDICT: %s", id, rep.Verdict)
		if rep.AttackedVar >= 0 {
			fmt.Fprintf(w, " — localized channel: %s", historian.VarName(rep.AttackedVar))
		}
		fmt.Fprintf(w, "\n  %s\n", rep.Explanation)
	}
	fmt.Fprintln(w, "\nthe recorder died mid-write, half the chain was never read, every frame")
	fmt.Fprintln(w, "arrived twice — and the replayed window still localizes the forgery.")
	return nil
}
