package control

import (
	"sync"
	"testing"

	"pcsmon"
	"pcsmon/internal/control/router"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/scenario"
)

// The lab fixture (plant template warmup + NOC calibration) dominates the
// cost of the cluster parity test, so it is shared across the package.
var (
	clusterLabOnce sync.Once
	clusterLab     *pcsmon.Lab
	clusterLabErr  error
)

func clusterTestLab(t *testing.T) *pcsmon.Lab {
	t.Helper()
	clusterLabOnce.Do(func() {
		clusterLab, clusterLabErr = pcsmon.NewLab(pcsmon.LabConfig{
			CalibrationRuns:  3,
			CalibrationHours: 12,
			Seed:             5,
		})
	})
	if clusterLabErr != nil {
		t.Fatalf("NewLab: %v", clusterLabErr)
	}
	return clusterLab
}

// TestClusterTwoNodeParity is the scale-out acceptance test: the four §V
// scenarios, one per fieldbus unit, routed through a two-node rendezvous
// table into two independent planes sharing one calibration, must produce
// verdicts bit-identical to a single plane that owns the whole fleet. The
// units are picked from the live table so each node owns two of them.
func TestClusterTwoNodeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four multi-hour scenario runs")
	}
	l := clusterTestLab(t)

	tab, err := router.NewTable("node-a", "node-b")
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	var aUnits, bUnits []uint8
	for u := 0; u < 256 && (len(aUnits) < 2 || len(bUnits) < 2); u++ {
		switch tab.Owner(uint8(u)) {
		case "node-a":
			if len(aUnits) < 2 {
				aUnits = append(aUnits, uint8(u))
			}
		case "node-b":
			if len(bUnits) < 2 {
				bUnits = append(bUnits, uint8(u))
			}
		}
	}
	if len(aUnits) < 2 || len(bUnits) < 2 {
		t.Fatalf("table does not spread units: node-a %v node-b %v", aUnits, bUnits)
	}
	units := []uint8{aUnits[0], bUnits[0], aUnits[1], bUnits[1]}

	const onsetHour = 3
	scs := pcsmon.PaperScenarios(onsetHour)
	exp := &scenario.Experiment{
		Template:  l.Template,
		System:    l.System,
		Hours:     10,
		OnsetHour: onsetHour,
		Decimate:  2,
		SeedBase:  9000,
	}
	// One simulated run per scenario, converted to paired fieldbus frames
	// on that scenario's unit. The tap's rows are reused buffers — copy.
	frames := make([][]*fieldbus.Frame, len(scs))
	for i, sc := range scs {
		u := units[i]
		_, err := exp.Feed(sc, exp.SeedBase+int64(i), func(index int, ctrl, proc []float64) error {
			frames[i] = append(frames[i],
				&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: u, Seq: uint64(index + 1),
					Values: append([]float64(nil), ctrl...)},
				&fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: u, Seq: uint64(index + 1),
					Values: append([]float64(nil), proc...)},
			)
			return nil
		})
		if err != nil {
			t.Fatalf("feed %s: %v", sc.Key, err)
		}
	}
	// Interleave the four runs round-robin — the mixed wire traffic a
	// shared ingest edge actually sees.
	var wire []*fieldbus.Frame
	for i := 0; ; i++ {
		any := false
		for _, fr := range frames {
			if 2*i+1 < len(fr) {
				wire = append(wire, fr[2*i], fr[2*i+1])
				any = true
			}
		}
		if !any {
			break
		}
	}

	newPlane := func() *Plane {
		cfg := &Config{
			SampleSeconds: exp.SampleInterval().Seconds(),
			OnsetHour:     onsetHour,
			Listeners:     Listeners{TCP: "127.0.0.1:0"},
			Ops:           Ops{Addr: "127.0.0.1:0"},
			Pairing:       Pairing{TimeoutSeconds: -1},
		}
		if got, want := cfg.OnsetIndex(), exp.OnsetIndex(); got != want {
			t.Fatalf("config onset index %d, experiment %d — geometry drifted", got, want)
		}
		p, err := New(cfg, Options{System: l.System})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return p
	}

	// Single node: one plane owns every unit.
	single := newPlane()
	for _, f := range wire {
		if err := single.Ingest(f); err != nil {
			t.Fatalf("single ingest: %v", err)
		}
	}
	if err := single.Drain(); err != nil {
		t.Fatalf("single drain: %v", err)
	}
	want := single.Reports()
	_ = single.Close()
	if len(want) != len(units) {
		t.Fatalf("single node reported %d units, want %d", len(want), len(units))
	}

	// Two nodes: the same wire traffic through the rendezvous router.
	pa, pb := newPlane(), newPlane()
	defer func() { _ = pa.Close(); _ = pb.Close() }()
	rt, err := router.NewRouter(tab, map[string]router.Sink{
		"node-a": pa.Ingest,
		"node-b": pb.Ingest,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for _, f := range wire {
		if err := rt.Route(f); err != nil {
			t.Fatalf("route unit %d seq %d: %v", f.Unit, f.Seq, err)
		}
	}
	if got := rt.Forwarded(); got != uint64(len(wire)) {
		t.Errorf("forwarded %d frames, want %d", got, len(wire))
	}
	if got := rt.Unrouted(); got != 0 {
		t.Errorf("unrouted %d frames, want 0", got)
	}
	if err := pa.Drain(); err != nil {
		t.Fatalf("node-a drain: %v", err)
	}
	if err := pb.Drain(); err != nil {
		t.Fatalf("node-b drain: %v", err)
	}

	// Each node reports exactly the units it owns, and the merged verdicts
	// are bit-identical to the single-node run.
	merged := map[string]UnitReport{}
	for node, reps := range map[string]map[string]UnitReport{"node-a": pa.Reports(), "node-b": pb.Reports()} {
		for id, rep := range reps {
			if _, dup := merged[id]; dup {
				t.Errorf("unit %s reported by both nodes", id)
			}
			merged[id] = rep
			u, err := parseUnitKey(id)
			if err != nil {
				t.Fatalf("report id %q: %v", id, err)
			}
			if owner := tab.Owner(u); owner != node {
				t.Errorf("unit %s reported by %s, owned by %s", id, node, owner)
			}
		}
	}
	for i, sc := range scs {
		id := pcsmon.PlantID(units[i])
		w, ok := want[id]
		if !ok {
			t.Errorf("scenario %s: no single-node report for %s", sc.Key, id)
			continue
		}
		g, ok := merged[id]
		if !ok {
			t.Errorf("scenario %s: no two-node report for %s", sc.Key, id)
			continue
		}
		if g.Verdict != w.Verdict || g.AttackedVar != w.AttackedVar || g.Explanation != w.Explanation {
			t.Errorf("scenario %s unit %s: two-node report diverged:\n  one node:  %s var %d (%s)\n  two nodes: %s var %d (%s)",
				sc.Key, id, w.Verdict, w.AttackedVar, w.Explanation, g.Verdict, g.AttackedVar, g.Explanation)
		}
		// Ground-truth sanity on the two §V cases the lab tests also pin.
		switch sc.Key {
		case "idv6":
			if w.Verdict != pcsmon.VerdictDisturbance.String() {
				t.Errorf("idv6 verdict %s, want disturbance (%s)", w.Verdict, w.Explanation)
			}
		case "xmv3-integrity":
			if w.Verdict != pcsmon.VerdictIntegrityAttack.String() {
				t.Errorf("xmv3 verdict %s, want integrity-attack (%s)", w.Verdict, w.Explanation)
			}
		}
	}
}
