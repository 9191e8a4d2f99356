package control

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
)

// TestCalibrateMatchesDatasetCalibration: the served calibration of a file
// is the model core.Calibrate fits from dataset.ReadCSV of that file, bit
// for bit — moments, limits and component count — whatever the parse
// parallelism. Reference calibrations (perfbench's calibrateFile) make
// those two calls and rely on this.
func TestCalibrateMatchesDatasetCalibration(t *testing.T) {
	cal := filepath.Join(t.TempDir(), "cal.csv")
	writeSyntheticCal(t, cal, 11, 3000) // ~3 MB: several parse blocks
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		served, err := Calibrate(cal, 0, io.Discard)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(cal)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dataset.ReadCSV(f)
		_ = f.Close()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Calibrate(d, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sl, rl := served.Monitor().Limits(), ref.Monitor().Limits()
		if math.Float64bits(sl.D99) != math.Float64bits(rl.D99) || math.Float64bits(sl.Q99) != math.Float64bits(rl.Q99) {
			t.Errorf("procs %d: served limits D99=%v Q99=%v, reference D99=%v Q99=%v", procs, sl.D99, sl.Q99, rl.D99, rl.Q99)
		}
		if sa, ra := served.Monitor().Model().NComponents(), ref.Monitor().Model().NComponents(); sa != ra {
			t.Errorf("procs %d: served %d components, reference %d", procs, sa, ra)
		}
		sc, sm, sn := served.CalibrationMoments()
		rc, rm, rn := ref.CalibrationMoments()
		if sn != rn {
			t.Fatalf("procs %d: served N %d, reference %d", procs, sn, rn)
		}
		for j := range rm {
			if math.Float64bits(sm[j]) != math.Float64bits(rm[j]) {
				t.Errorf("procs %d: mean[%d] served %v, reference %v", procs, j, sm[j], rm[j])
			}
		}
		for p := 0; p < rc.Rows(); p++ {
			for q := 0; q < rc.Cols(); q++ {
				if math.Float64bits(sc.At(p, q)) != math.Float64bits(rc.At(p, q)) {
					t.Fatalf("procs %d: cov(%d,%d) served %v, reference %v", procs, p, q, sc.At(p, q), rc.At(p, q))
				}
			}
		}
	}
}

// TestCalibrateRefusesNonFiniteFile: a calibration file with NaN or +Inf
// in one field (line 501, column 8) parses, since both are numbers, but
// the served calibration must refuse it with core.ErrBadInput naming the
// column instead of serving a model that never alarms.
func TestCalibrateRefusesNonFiniteFile(t *testing.T) {
	good := filepath.Join(t.TempDir(), "cal.csv")
	writeSyntheticCal(t, good, 12, 1000)
	text, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	for _, v := range []string{"NaN", "+Inf"} {
		fields := strings.Split(lines[500], ",")
		fields[7] = v
		bad := append([]string(nil), lines...)
		bad[500] = strings.Join(fields, ",")
		path := filepath.Join(t.TempDir(), "bad.csv")
		if err := os.WriteFile(path, []byte(strings.Join(bad, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Calibrate(path, 0, io.Discard)
		if !errors.Is(err, core.ErrBadInput) || !strings.Contains(fmt.Sprint(err), "column 8") {
			t.Errorf("%s on line 501, column 8: err = %v, want core.ErrBadInput naming column 8", v, err)
		}
	}
}
