package mspc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"pcsmon/internal/mat"
)

// stepMonitor builds a monitor whose behaviour on crafted rows is easy to
// reason about: calibrate on tight NOC data, then "anomalous" rows are the
// same rows with a large shift.
func stepMonitor(t *testing.T, rng *rand.Rand) (*Monitor, func(shifted bool) []float64) {
	t.Helper()
	n, m := 500, 6
	x := correlatedNormal(rng, n, m, 2, 0.3)
	mon, err := calibrate(x, WithComponents(2))
	if err != nil {
		t.Fatal(err)
	}
	stds := mon.Scaler().Stds()
	mkRow := func(shifted bool) []float64 {
		row := append([]float64(nil), x.RowView(rng.Intn(n))...)
		if shifted {
			row[2] += 12 * stds[2]
		}
		return row
	}
	return mon, mkRow
}

func TestDetectorRunRule(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mon, mkRow := stepMonitor(t, rng)
	det, err := NewDetector(mon, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 10 normal, then continuous anomaly.
	for i := 0; i < 10; i++ {
		if _, d, err := det.Step(mkRow(false)); err != nil {
			t.Fatal(err)
		} else if d != nil {
			t.Fatalf("false alarm at %d", i)
		}
	}
	var detection *Detection
	for i := 0; i < 20 && detection == nil; i++ {
		_, detection, err = det.Step(mkRow(true))
		if err != nil {
			t.Fatal(err)
		}
	}
	if detection == nil {
		t.Fatal("no detection on sustained 12σ shift")
	}
	if detection.Index != 12 {
		t.Errorf("detection at %d, want 12 (3rd consecutive after 10 normals)", detection.Index)
	}
	if detection.RunStart != 10 {
		t.Errorf("run start %d, want 10", detection.RunStart)
	}
	if len(detection.Charts) == 0 {
		t.Error("no charts recorded in detection")
	}
	if got := det.index; got != 13 {
		t.Errorf("observations consumed = %d, want 13", got)
	}
}

func TestDetectorResetsOnDip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	mon, mkRow := stepMonitor(t, rng)
	det, err := NewDetector(mon, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Pattern: 2 anomalous, 1 normal, 2 anomalous, 1 normal — never 3 in a
	// row, so never a detection.
	pattern := []bool{true, true, false, true, true, false, true, true, false}
	for i, shifted := range pattern {
		_, d, err := det.Step(mkRow(shifted))
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatalf("unexpected detection at step %d", i)
		}
	}
	// Now 3 in a row fires.
	var d *Detection
	for i := 0; i < 3; i++ {
		_, d, err = det.Step(mkRow(true))
		if err != nil {
			t.Fatal(err)
		}
	}
	if d == nil {
		t.Fatal("no detection after 3 consecutive")
	}
	if d.RunStart != len(pattern) {
		t.Errorf("run start %d, want %d", d.RunStart, len(pattern))
	}
}

func TestDetectorLatchesFirstDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	mon, mkRow := stepMonitor(t, rng)
	det, err := NewDetector(mon, 2)
	if err != nil {
		t.Fatal(err)
	}
	var first *Detection
	for i := 0; i < 10; i++ {
		_, d, err := det.Step(mkRow(true))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = d
		}
	}
	if first == nil {
		t.Fatal("no detection")
	}
	if det.detected != first {
		t.Error("detection not latched")
	}
}

func TestNewDetectorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	mon, _ := stepMonitor(t, rng)
	if _, err := NewDetector(nil, 3); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil monitor: want ErrBadInput, got %v", err)
	}
	if _, err := NewDetector(mon, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("k=0: want ErrBadConfig, got %v", err)
	}
}

func TestMeasureRunLength(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	mon, mkRow := stepMonitor(t, rng)
	rows := make([][]float64, 0, 40)
	for i := 0; i < 20; i++ {
		rows = append(rows, mkRow(false))
	}
	for i := 0; i < 20; i++ {
		rows = append(rows, mkRow(true))
	}
	res, err := MeasureRunLength(mon, rows, 20, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("anomaly not detected")
	}
	if res.RunLength != 3 {
		t.Errorf("run length = %d, want 3 (immediate detection)", res.RunLength)
	}
	if res.Time != 3*time.Second {
		t.Errorf("time = %v, want 3s", res.Time)
	}
	if res.FalseAlarm {
		t.Error("unexpected false alarm")
	}
}

// referenceRunLength is MeasureRunLength's former stand-alone loop, kept as
// the oracle for the version built on Detector.Step and Detector.Discard.
func referenceRunLength(m *Monitor, rows [][]float64, onset int, k int, sample time.Duration) (RunLengthResult, error) {
	res := RunLengthResult{OnsetIndex: onset}
	lim := m.Limits()
	runLen := 0
	for i, row := range rows {
		stats, err := m.Compute(row)
		if err != nil {
			return RunLengthResult{}, err
		}
		if stats.D > lim.D99 || stats.Q > lim.Q99 {
			runLen++
		} else {
			runLen = 0
		}
		if runLen >= k {
			if i < onset {
				res.FalseAlarm = true
				runLen = 0
				continue
			}
			res.Detected = true
			res.DetectionIndex = i
			res.RunLength = i - onset + 1
			res.Time = time.Duration(res.RunLength) * sample
			return res, nil
		}
	}
	return res, nil
}

func TestMeasureRunLengthMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mon, mkRow := stepMonitor(t, rng)
	stream := func(pattern []bool) [][]float64 {
		rows := make([][]float64, len(pattern))
		for i, shifted := range pattern {
			rows[i] = mkRow(shifted)
		}
		return rows
	}
	// run returns n copies of v.
	run := func(n int, v bool) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cat := func(parts ...[]bool) []bool {
		var out []bool
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	type tc struct {
		name    string
		pattern []bool
		onset   int
	}
	var seen struct{ falseAlarm, straddle, miss int }
	for _, k := range []int{1, 2, 3, 5} {
		cases := []tc{
			// A pre-onset burst that fires, then the real event.
			{"false-alarm-then-event", cat(run(4, false), run(k+1, true), run(6, false), run(k+4, true)), 4 + k + 1 + 6},
			// A run that opens before onset and fires after it.
			{"straddling-run", cat(run(8, false), run(k+3, true)), 8 + k - 1},
			// Runs of k-1 never fire (all in control for k=1).
			{"never-fires", cat(run(3, false), run(k-1, true), run(1, false), run(k-1, true), run(5, false)), 5},
		}
		for r := 0; r < 40; r++ {
			n := 20 + rng.Intn(30)
			p := 0.2 + 0.6*rng.Float64()
			pattern := make([]bool, n)
			for i := range pattern {
				pattern[i] = rng.Float64() < p
			}
			cases = append(cases, tc{"random", pattern, rng.Intn(n)})
		}
		for _, c := range cases {
			rows := stream(c.pattern)
			want, err := referenceRunLength(mon, rows, c.onset, k, 9*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MeasureRunLength(mon, rows, c.onset, k, 9*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("k=%d %s onset=%d: got %+v, want %+v", k, c.name, c.onset, got, want)
			}
			if want.FalseAlarm {
				seen.falseAlarm++
			}
			if want.Detected && want.DetectionIndex-want.OnsetIndex < k-1 {
				seen.straddle++
			}
			if !want.Detected {
				seen.miss++
			}
		}
	}
	// The streams must exercise every branch of the run-length accounting.
	if seen.falseAlarm == 0 || seen.straddle == 0 || seen.miss == 0 {
		t.Errorf("coverage: %+v, want every branch taken", seen)
	}
}

func TestMeasureRunLengthNoDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	mon, mkRow := stepMonitor(t, rng)
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = mkRow(false)
	}
	res, err := MeasureRunLength(mon, rows, 10, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("detected an anomaly in pure NOC data (run of 3 beyond 99% is ~1e-6/obs)")
	}
}

func TestMeasureRunLengthBadOnset(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	mon, mkRow := stepMonitor(t, rng)
	rows := [][]float64{mkRow(false)}
	if _, err := MeasureRunLength(mon, rows, 5, 3, time.Second); !errors.Is(err, ErrBadInput) {
		t.Errorf("want ErrBadInput, got %v", err)
	}
	if _, err := MeasureRunLength(mon, rows, 0, 0, time.Second); !errors.Is(err, ErrBadConfig) {
		t.Errorf("k=0: want ErrBadConfig, got %v", err)
	}
}

func TestDetectorDiscard(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mon, mkRow := stepMonitor(t, rng)
	det, err := NewDetector(mon, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Latch on a burst, discard it (a pre-onset false alarm), and verify a
	// later event latches afresh with its own run start.
	var d *Detection
	for i := 0; i < 10 && d == nil; i++ {
		if _, d, err = det.Step(mkRow(true)); err != nil {
			t.Fatal(err)
		}
	}
	if d == nil {
		t.Fatal("no detection on burst")
	}
	det.Discard()
	if det.detected != nil {
		t.Error("detection survived Discard")
	}
	// An in-control stretch, then the real event.
	for i := 0; i < 5; i++ {
		if _, d, err = det.Step(mkRow(false)); err != nil {
			t.Fatal(err)
		} else if d != nil {
			t.Fatalf("alarm on in-control data after Discard (step %d)", i)
		}
	}
	for i := 0; i < 10 && d == nil; i++ {
		if _, d, err = det.Step(mkRow(true)); err != nil {
			t.Fatal(err)
		}
	}
	if d == nil {
		t.Fatal("no re-detection after Discard")
	}
	if d.RunStart <= 3 {
		t.Errorf("re-detection run start %d points at the discarded burst", d.RunStart)
	}
	if d.Index-d.RunStart != 2 {
		t.Errorf("re-detection span %d..%d, want a fresh 3-run", d.RunStart, d.Index)
	}
}

func TestPointOver(t *testing.T) {
	if (Point{OverD: true}).Over() != true ||
		(Point{OverQ: true}).Over() != true ||
		(Point{}).Over() != false {
		t.Error("Point.Over logic wrong")
	}
}

var _ = mat.Matrix{} // keep the import used even if helpers change
