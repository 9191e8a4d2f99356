// Lossy-udp: the paper's monitoring topology over a transport that
// actually loses frames — the regime the pairing layer's orphan/gap/
// hold-last machinery was built for.
//
// Two collectors observe the same plant and report over UDP, one datagram
// per frame. Between collectors and monitor sits a lossy channel that
// drops, duplicates, delays and reorders datagrams (seeded, so the demo is
// reproducible); a man-in-the-middle on the actuator path forges XMV(3) to
// zero mid-stream. The monitor never sees a connection — only whatever
// datagrams survive, handed by its UDP listener to a control plane — yet
// the plane's pairing correlator turns the surviving frames into paired
// cross-view observations, accounts every loss, and the diagnosis still
// concludes what no single view can: the two views disagree about XMV(3),
// an integrity attack, localized.
//
//	go run ./examples/lossy-udp
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
		fmt.Fprintln(os.Stderr, "lossy-udp:", err)
		os.Exit(1)
	}
}

// lossyChannel models the unreliable network between a collector and the
// monitor: datagrams are dropped, duplicated, or held back and released
// out of order. Deterministic given its seed.
type lossyChannel struct {
	cli  *fieldbus.UDPClient
	rng  *rand.Rand
	held []*fieldbus.Frame // delayed datagrams awaiting release

	sent, dropped, dups, reordered int
}

func newLossyChannel(cli *fieldbus.UDPClient, seed int64) *lossyChannel {
	return &lossyChannel{cli: cli, rng: rand.New(rand.NewSource(seed))}
}

// send passes one frame through the channel.
func (ch *lossyChannel) send(f *fieldbus.Frame) error {
	r := ch.rng.Float64()
	switch {
	case r < 0.03: // lost in transit
		ch.dropped++
		return nil
	case r < 0.05: // duplicated by a flaky switch
		ch.dups++
		if err := ch.transmit(f); err != nil {
			return err
		}
		return ch.transmit(f)
	case r < 0.12: // delayed: held back, released later out of order
		ch.held = append(ch.held, f.Clone())
		ch.reordered++
		return nil
	}
	if err := ch.transmit(f); err != nil {
		return err
	}
	// Release held datagrams behind fresher traffic (the reorder).
	if len(ch.held) > 0 && ch.rng.Float64() < 0.5 {
		old := ch.held[0]
		ch.held = ch.held[1:]
		return ch.transmit(old)
	}
	return nil
}

// flush releases everything still held.
func (ch *lossyChannel) flush() error {
	for _, f := range ch.held {
		if err := ch.transmit(f); err != nil {
			return err
		}
	}
	ch.held = nil
	return nil
}

func (ch *lossyChannel) transmit(f *fieldbus.Frame) error {
	ch.sent++
	return ch.cli.Send(f)
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

	// The same quick synthetic plant as the two-view-live demo: correlated
	// NOC rows around an operating point.
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

	// The monitoring endpoint: UDP listener -> control plane (pairing
	// ingest -> fleet scoring). The plane logs attachments, alarms, view
	// stalls and the pairing accounting on w.
	p, err := control.New(&control.Config{
		SampleSeconds: 9,
		OnsetHour:     float64(armAt) * 9 / 3600, // onset at observation armAt
		Pairing: control.Pairing{
			Window:         64, // the reorder depth the lossy channel must stay inside
			TimeoutSeconds: 2,  // wall-clock horizon for datagrams that never arrive
		},
		Fleet: control.FleetCfg{Workers: 1},
	}, control.Options{Out: w, System: sys})
	if err != nil {
		return err
	}
	defer func() { _ = p.Close() }()
	srv, err := fieldbus.NewUDPServer("127.0.0.1:0", func(f *fieldbus.Frame) { _ = p.Ingest(f) })
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Fprintf(w, "monitor listening on udp://%s\n", srv.Addr())

	// Each collector sends through its own lossy channel.
	ctrlCli, err := fieldbus.DialUDP(srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = ctrlCli.Close() }()
	plantCli, err := fieldbus.DialUDP(srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = plantCli.Close() }()
	ctrlNet := newLossyChannel(ctrlCli, 41)
	plantNet := newLossyChannel(plantCli, 42)

	fmt.Fprintf(w, "streaming %d observations through a lossy network; MitM arms at obs %d…\n", samples, armAt)
	for i := 0; i < samples; i++ {
		truth := noc()
		ctrlView := append([]float64(nil), truth...)
		procView := append([]float64(nil), truth...)
		if i >= armAt {
			if i == armAt {
				fmt.Fprintln(w, ">>> MitM armed: actuator datagrams now deliver XMV(3)=0 to the plant")
			}
			ramp := 0.1 * float64(i-armAt)
			if ramp > 15 {
				ramp = 15
			}
			ctrlView[xmv3] = truth[xmv3] + ramp
			procView[xmv3] = 0
		}
		seq := uint64(i)
		if err := ctrlNet.send(&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: 1, Seq: seq, Values: ctrlView}); err != nil {
			return err
		}
		if err := plantNet.send(&fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: 1, Seq: seq, Values: procView}); err != nil {
			return err
		}
		if i%32 == 31 {
			time.Sleep(time.Millisecond) // loopback pacing
		}
	}
	if err := ctrlNet.flush(); err != nil {
		return err
	}
	if err := plantNet.flush(); err != nil {
		return err
	}
	// Wait until the surviving datagrams have been ingested, then drain:
	// the plane flushes the pairing, scores every observation and reports
	// each unit's verdict.
	attempted := uint64(ctrlNet.sent + plantNet.sent)
	deadline := time.Now().Add(30 * time.Second)
	for p.Accepted() < attempted && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Drain(); err != nil {
		return err
	}
	st := p.Totals()
	ust := srv.Stats()
	fmt.Fprintf(w, "channel: %d datagrams sent, %d dropped, %d duplicated, %d delayed/reordered\n",
		ctrlNet.sent+plantNet.sent, ctrlNet.dropped+plantNet.dropped,
		ctrlNet.dups+plantNet.dups, ctrlNet.reordered+plantNet.reordered)
	fmt.Fprintf(w, "monitor:  %d datagrams received (%d corrupt), %g paired, %g orphaned, %g gap obs, %g dup — measured loss rate %.1f%%\n",
		ust.Datagrams, ust.Corrupt, st["pairing_paired"], st["pairing_orphans"],
		st["pairing_gap_seqs"], st["pairing_duplicates"], 100*st["pairing_loss_ratio"])

	for id, rep := range p.Reports() {
		fmt.Fprintf(w, "\nplant %s VERDICT: %s", id, rep.Verdict)
		if rep.AttackedVar >= 0 {
			fmt.Fprintf(w, " — localized channel: %s", historian.VarName(rep.AttackedVar))
		}
		fmt.Fprintf(w, "\n  %s\n", rep.Explanation)
	}
	fmt.Fprintln(w, "\nthe network lost, duplicated and reordered datagrams; the pairing layer")
	fmt.Fprintln(w, "accounted every one, and the cross-view diagnosis still holds.")
	return nil
}
