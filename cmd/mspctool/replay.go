package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/fieldbus"
)

// runReplay implements the replay subcommand: play a recorded frame
// capture (written by `mspctool fleet -record`, or synthesized by any
// tool emitting the internal/fieldbus capture format) back through the
// same control plane a live listener feeds, at a configurable speed-up.
//
// The clock mapping is the whole trick: the capture's monotonic
// timestamps form a virtual timeline that is (a) compressed by -speed for
// wall-clock pacing and (b) the plane's clock, so -pair-timeout keeps
// meaning *capture time* at any speed-up — a 2s mate-loss horizon in the
// plant's timeline stays a 2s horizon whether the capture replays at 1x
// or 1000x. With -speed 0 the capture replays as fast as the scoring path
// can drain it (the virtual clock still advances by the capture's
// stamps).
func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mspctool replay", flag.ContinueOnError)
	var (
		calPath     = fs.String("cal", "", "NOC calibration CSV (required)")
		capPath     = fs.String("capture", "", "capture file or segment-chain base to replay (required)")
		speed       = fs.Float64("speed", 0, "replay speed-up factor (1 = real time, 0 = as fast as possible)")
		from        = fs.Duration("from", 0, "replay only records at or after this capture-relative time (segments outside the window are skipped via their index)")
		to          = fs.Duration("to", 0, "replay only records at or before this capture-relative time (0 = to the end)")
		unit        = fs.Int("unit", -1, "replay only this fieldbus unit's frames, 0-255 (segments without the unit are skipped via their index; -1 = every unit)")
		dedup       = fs.Int("dedup", 0, "suppress content-identical frames seen within the last N frames (two-tap captures; 0 = off)")
		sampleSec   = fs.Float64("sample", 4.5, "observation interval of the captured streams [s]")
		onsetHour   = fs.Float64("onset-hour", 0, "hour the anomaly was injected, if known (applies to every plant)")
		components  = fs.Int("components", 0, "PCA components (0 = 90% cumulative variance rule)")
		workers     = fs.Int("workers", 0, "scoring workers (0 = GOMAXPROCS)")
		every       = fs.Int("every", -1, "print chart statistics every N observations per plant (-1 = alarms only)")
		pairWindow  = fs.Int("pair-window", 64, "reorder window for sensor/actuator frame pairing, in sequence numbers")
		pairTimeout = fs.Duration("pair-timeout", 2*time.Second, "flush observations whose mate frame is this late in capture time (0 = never)")
		batch       = fs.Int("batch", 0, "observations aggregated per worker delivery (0 = default 16, 1 = per-observation)")
		metricsAddr = fs.String("metrics", "", "serve the ops endpoints (/metrics /healthz /status /debug/pprof/ and the control API) on this address while the replay runs")
		statsEvery  = fs.Duration("stats-every", 0, "print a live progress line with the fleet/pairing counters on this cadence (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The plane's event consumer and its ingest callbacks write
	// concurrently.
	out = &syncWriter{w: out}
	// The plane's config validation covers the remaining flags, also
	// before calibration.
	switch {
	case *calPath == "" || *capPath == "":
		fs.Usage()
		return fmt.Errorf("mspctool replay: -cal and -capture are required: %w", pcsmon.ErrBadConfig)
	case *speed < 0:
		return fmt.Errorf("mspctool replay: -speed %g must be >= 0: %w", *speed, pcsmon.ErrBadConfig)
	case *sampleSec <= 0:
		return fmt.Errorf("mspctool replay: -sample %g must be positive: %w", *sampleSec, pcsmon.ErrBadConfig)
	case *pairWindow <= 0:
		return fmt.Errorf("mspctool replay: -pair-window %d must be positive: %w", *pairWindow, pcsmon.ErrBadConfig)
	case *pairTimeout < 0:
		return fmt.Errorf("mspctool replay: -pair-timeout %v must be >= 0: %w", *pairTimeout, pcsmon.ErrBadConfig)
	case *from < 0 || *to < 0:
		return fmt.Errorf("mspctool replay: -from %v / -to %v must be >= 0: %w", *from, *to, pcsmon.ErrBadConfig)
	case *to > 0 && *to < *from:
		return fmt.Errorf("mspctool replay: -to %v is before -from %v: %w", *to, *from, pcsmon.ErrBadConfig)
	case *unit < -1 || *unit > 255:
		return fmt.Errorf("mspctool replay: -unit %d must be a fieldbus unit id (0-255) or -1: %w", *unit, pcsmon.ErrBadConfig)
	case *statsEvery < 0:
		return fmt.Errorf("mspctool replay: -stats-every %v must be >= 0: %w", *statsEvery, pcsmon.ErrBadConfig)
	}

	// A chain reader replays either a single capture file or the rotated
	// segment chain a -record store wrote, as one stream; the -from/-to
	// window and -unit seek via the sealed segments' index sidecars.
	copts := fieldbus.ChainOptions{From: *from, To: *to}
	if *unit >= 0 {
		copts.Units = []uint8{uint8(*unit)}
	}
	cr, err := fieldbus.OpenCaptureChain(*capPath, copts)
	if err != nil {
		return fmt.Errorf("mspctool replay: %w", err)
	}
	defer func() { _ = cr.Close() }()

	name := *capPath
	if cr.Segments() > 1 {
		name += fmt.Sprintf(" (%d segments)", cr.Segments())
	}
	if *speed > 0 {
		name += fmt.Sprintf(" at %gx", *speed)
	} else {
		name += " unpaced"
	}
	if *from > 0 || *to > 0 {
		end := "end"
		if *to > 0 {
			end = (*to).String()
		}
		name += fmt.Sprintf(", window [%v, %s]", *from, end)
	}
	if *unit >= 0 {
		name += fmt.Sprintf(", unit %s only", pcsmon.PlantID(uint8(*unit)))
	}

	cfg := &control.Config{
		Calibration:   *calPath,
		SampleSeconds: *sampleSec,
		OnsetHour:     *onsetHour,
		Components:    *components,
		Ops:           control.Ops{Addr: *metricsAddr},
		Pairing:       pairingConfig(*pairWindow, *pairTimeout, *dedup),
		Fleet:         control.FleetCfg{Workers: *workers, Batch: *batch, EmitEvery: max(*every, 0)},
	}
	v := newVerdicts(*every, out)
	p, err := control.New(cfg, control.Options{
		Out:     out,
		OnEvent: v.event,
		Capture: &control.Capture{Chain: cr, Name: name, Speed: *speed},
	})
	if err != nil {
		return fmt.Errorf("mspctool replay: %w", err)
	}
	start := time.Now()
	stopStats := startStatsTicker(*statsEvery, p.Totals, out)
	<-p.Drained()
	wall := time.Since(start)
	stopStats()
	if err := p.Close(); err != nil {
		// Mid-chain damage is real corruption; the one legitimate form of
		// damage — a truncated tail in an unsealed final segment — the
		// chain reader tolerates by itself (see below).
		return fmt.Errorf("mspctool replay: %w", err)
	}
	if terr := cr.Truncated(); terr != nil {
		// A recording monitor that died uncleanly (kill, crash, power loss)
		// leaves its unsealed final segment ending mid-record — exactly the
		// post-mortem a replay is for. The readable prefix was scored; say
		// so instead of discarding everything over the tail.
		fmt.Fprintf(out, "warning: %s: %v — replaying the %d readable frames\n",
			*capPath, terr, p.Played())
	}
	if cr.SegmentsSkipped() > 0 {
		fmt.Fprintf(out, "index seek: %d of %d segments skipped via index\n", cr.SegmentsSkipped(), cr.Segments())
	}
	v.print()
	span := cr.Span()
	effective := "∞"
	if wall > 0 && span > 0 {
		effective = fmt.Sprintf("%.0f", float64(span)/float64(wall))
	}
	t := p.Totals()
	fmt.Fprintf(out, "\nreplay: %d frames, capture span %v in %v (%sx effective), %.0f plants, %.0f observations, %.0f alarms\n",
		p.Played(), span.Round(time.Millisecond), wall.Round(time.Millisecond),
		effective, t["fleet_attached"], t["fleet_observations"], t["fleet_alarms"])
	return nil
}
