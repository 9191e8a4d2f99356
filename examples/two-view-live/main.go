// Two-view-live: the paper's monitoring topology end to end over real TCP
// sockets, through the control plane's two-view pairing ingest.
//
// Two collectors observe the same plant from the two ends of an insecure
// fieldbus with a man-in-the-middle on the actuator link:
//
//   - the controller-side collector reports what the controller believes —
//     the XMEAS it received and the XMV it commanded — as sensor frames;
//   - the plant-side collector reports what the process experienced — the
//     XMEAS the sensors produced and the XMV the actuators received
//     (forged mid-stream: the MitM forces XMV(3) to zero) — as actuator
//     frames.
//
// Both frame streams travel over separate TCP connections to the monitor,
// whose listener hands every frame to a control plane: it correlates them
// by (unit, sequence number) into paired two-view observations and scores
// them through the fleet engine. The cross-view
// diagnosis concludes what no single view can: the two views *disagree*
// about XMV(3), so the channel is forged — an integrity attack, not a
// disturbance.
//
//	go run ./examples/two-view-live
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
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
	if err := run(os.Stdout, 260, 130); err != nil {
		fmt.Fprintln(os.Stderr, "two-view-live:", err)
		os.Exit(1)
	}
}

// syncWriter serializes the plane's log goroutines and the demo's lines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run streams samples observations, arming the MitM at step armAt.
func run(w io.Writer, samples, armAt int) error {
	const xmv3 = te.NumXMEAS + te.XmvAFeed // XMV(3) observation column
	w = &syncWriter{w: w}

	// A quick synthetic plant stands in for the TE simulator so the demo
	// runs in milliseconds: correlated NOC rows around an operating point.
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

	// Commission the monitor on normal operation.
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

	// The monitoring endpoint: fieldbus server -> control plane (pairing
	// ingest -> fleet scoring). The plane logs attachments, alarms, view
	// stalls and the pairing accounting on w.
	p, err := control.New(&control.Config{
		SampleSeconds: 9,
		OnsetHour:     float64(armAt) * 9 / 3600, // onset at observation armAt
		Pairing: control.Pairing{
			Window:         512, // generous: the two collectors' connections race freely
			TimeoutSeconds: 5,   // age horizon far beyond any scheduling skew
		},
		Fleet: control.FleetCfg{Workers: 1},
	}, control.Options{Out: w, System: sys})
	if err != nil {
		return err
	}
	defer func() { _ = p.Close() }()
	srv, err := fieldbus.NewServer("127.0.0.1:0", func(f *fieldbus.Frame) { _ = p.Ingest(f) })
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Fprintf(w, "monitor listening on %s\n", srv.Addr())

	// The two collectors dial the monitor over plain TCP.
	ctrlSide, err := fieldbus.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = ctrlSide.Close() }()
	plantSide, err := fieldbus.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = plantSide.Close() }()

	fmt.Fprintf(w, "streaming %d observations; MitM on the actuator link arms at obs %d…\n", samples, armAt)
	for i := 0; i < samples; i++ {
		truth := noc()
		ctrlView := append([]float64(nil), truth...)
		procView := append([]float64(nil), truth...)
		if i >= armAt {
			if i == armAt {
				fmt.Fprintln(w, ">>> MitM armed: actuator frames now deliver XMV(3)=0 to the plant")
			}
			// The controller keeps raising its command (integrator windup
			// against the missing flow); the plant receives the forged zero.
			ramp := 0.1 * float64(i-armAt)
			if ramp > 15 {
				ramp = 15
			}
			ctrlView[xmv3] = truth[xmv3] + ramp
			procView[xmv3] = 0
		}
		seq := uint64(i)
		if err := ctrlSide.Send(&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: 1, Seq: seq, Values: ctrlView}); err != nil {
			return err
		}
		if err := plantSide.Send(&fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: 1, Seq: seq, Values: procView}); err != nil {
			return err
		}
	}
	// Wait until both connections' frame streams have fully arrived (two
	// frames per observation), then drain: the plane flushes the pairing,
	// scores every observation and reports each unit's verdict.
	deadline := time.Now().Add(30 * time.Second)
	for p.Accepted() < uint64(2*samples) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.Drain(); err != nil {
		return err
	}

	for id, rep := range p.Reports() {
		fmt.Fprintf(w, "\nplant %s VERDICT: %s", id, rep.Verdict)
		if rep.AttackedVar >= 0 {
			fmt.Fprintf(w, " — localized channel: %s", historian.VarName(rep.AttackedVar))
		}
		fmt.Fprintf(w, "\n  %s\n", rep.Explanation)
	}
	fmt.Fprintln(w, "\nonly the paired cross-view diagnosis can reach this conclusion: each view")
	fmt.Fprintln(w, "alone sees a plausible disturbance; their disagreement proves the forgery.")
	return nil
}
