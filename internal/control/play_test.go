package control

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pcsmon/internal/fieldbus"
	"pcsmon/internal/fleet"
)

// writeTestChain records units × rows two-view observation frames (units
// interleaved per row, sensor before actuator) into a capture chain at
// base, one frame every step of capture time, rotating segments at
// segBytes. It returns the number of frames written.
func writeTestChain(t *testing.T, base string, units, rows int, step time.Duration, segBytes int64) int {
	t.Helper()
	st, err := fieldbus.OpenCaptureStore(base, fieldbus.StoreOptions{SegmentBytes: segBytes, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	views := make([][2][][]float64, units)
	for u := range views {
		ctrl, proc := pairingRows(int64(40+u), rows, 0, 0, 0)
		views[u] = [2][][]float64{ctrl, proc}
	}
	n := 0
	for i := 0; i < rows; i++ {
		for u, v := range views {
			for _, f := range []*fieldbus.Frame{
				obsFrame(fieldbus.FrameSensor, uint8(u), uint64(i+1), v[0][i]),
				obsFrame(fieldbus.FrameActuator, uint8(u), uint64(i+1), v[1][i]),
			} {
				if err := st.WriteAt(f, time.Duration(n)*step); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// capturePlane starts a plane that plays the chain at base at the given
// speed (0 = unpaced), with age flushing off so the frame accounting is
// exact. It returns the plane, the open chain and the verdict count its
// OnEvent keeps; read the count only after the drain.
func capturePlane(t *testing.T, base string, speed float64) (*Plane, *fieldbus.ChainReader, *int) {
	t.Helper()
	cr, err := fieldbus.OpenCaptureChain(base, fieldbus.ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := new(int)
	cfg := &Config{SampleSeconds: 9, Pairing: Pairing{Window: 16, TimeoutSeconds: -1}, Fleet: FleetCfg{Workers: 2}}
	p, err := New(cfg, Options{
		System:  pairingTestSystem(t),
		Out:     &syncBuffer{},
		Capture: &Capture{Chain: cr, Name: base, Speed: speed},
		OnEvent: func(ev fleet.Event) {
			if _, ok := ev.(fleet.Verdict); ok {
				*verdicts++
			}
		},
	})
	if err != nil {
		_ = cr.Close()
		t.Fatalf("New: %v", err)
	}
	return p, cr, verdicts
}

// TestPlaneCaptureDrainMidReplay: a drain that lands while a capture
// plays stops the pump between frames and joins the read-ahead before the
// plane reports drained — the chain is closed the moment Drained fires,
// as `mspctool replay` does, and the race detector watches the reader.
// Every unit the correlator saw gets a verdict, and Played counts exactly
// the frames offered: the correlator's frames plus those refused at the
// door, never the decoded-but-unplayed read-ahead.
func TestPlaneCaptureDrainMidReplay(t *testing.T) {
	base := filepath.Join(t.TempDir(), "chain")
	// 16 000 frames over 1.6 s of capture time, replayed in real time:
	// the drain after the first 1 000 lands well inside the replay.
	total := writeTestChain(t, base, 4, 2000, 100*time.Microsecond, 1<<20)
	p, cr, verdicts := capturePlane(t, base, 1)
	for p.Played() < 1000 {
		time.Sleep(time.Millisecond)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	<-p.Drained()
	if err := cr.Close(); err != nil {
		t.Fatalf("chain Close: %v", err)
	}

	played := p.Played()
	if played == 0 || played >= uint64(total) {
		t.Fatalf("played %d of %d frames — the drain did not land mid-replay", played, total)
	}
	if d := cr.Delivered(); played > d {
		t.Errorf("played %d frames, more than the chain delivered (%d)", played, d)
	}
	tot := p.Totals()
	atDoor := tot["control_frames_rejected"] + tot["pairing_quiesced_drops"] + tot["pairing_deduped"]
	if got := tot["pairing_frames"] + atDoor; got != float64(played) {
		t.Errorf("played %d frames, but pairing saw %.0f and %.0f stopped at the door", played, tot["pairing_frames"], atDoor)
	}
	units := p.cor.Stats().Units
	if units == 0 || *verdicts != units {
		t.Errorf("%d verdicts for %d units seen", *verdicts, units)
	}
	reps := p.Reports()
	if len(reps) != units {
		t.Errorf("%d reports for %d units seen", len(reps), units)
	}
	for id, rep := range reps {
		if rep.Verdict == "error" {
			t.Errorf("unit %s drained without a classifiable report: %s", id, rep.Explanation)
		}
	}
}

// TestPlaneCaptureCorruptRecordPrefix: a CRC failure in a sealed,
// non-final segment ends the replay with the codec's typed error after
// offering exactly the records before it — the read-ahead neither drops
// the prefix nor plays past the damage.
func TestPlaneCaptureCorruptRecordPrefix(t *testing.T) {
	const recBytes = 12 + 14 + 8*53 + 4 // record header + frame header, values, CRC
	base := filepath.Join(t.TempDir(), "chain")
	total := writeTestChain(t, base, 2, 300, time.Millisecond, 8+100*recBytes)
	segs, err := filepath.Glob(base + ".*.pcscap")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) < 4 {
		t.Fatalf("%d segments, want at least 4", len(segs))
	}
	// Record k is the 51st record of the third segment.
	k, seg := 0, segs[2]
	for _, s := range segs[:2] {
		fi, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		k += int(fi.Size()-8) / recBytes
	}
	const j = 50
	k += j
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[8+j*recBytes+12+14+8] ^= 0x01 // a payload byte of the second value
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p, cr, _ := capturePlane(t, base, 0)
	<-p.Drained()
	defer func() { _ = cr.Close() }()
	if err := p.Close(); !errors.Is(err, fieldbus.ErrBadCRC) {
		t.Fatalf("plane error %v, want ErrBadCRC", err)
	}
	if got := p.Totals()["pairing_frames"]; got != float64(k) {
		t.Errorf("pairing_frames %.0f, want the %d records before the corrupt one (of %d)", got, k, total)
	}
	if got := p.Played(); got != uint64(k) {
		t.Errorf("played %d frames, want %d", got, k)
	}
}
