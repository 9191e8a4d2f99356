package core_test

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
	"pcsmon/internal/mat"
)

// benchCalRows is the row count of perfbench's calibration file (8 NOC
// runs of 10 h at 9 s per observation), so BenchmarkCalibrate measures
// service setup at the shape the services actually calibrate on.
const benchCalRows = 19200

// syntheticCalibration returns benchCalRows × 53 correlated NOC-like
// observations: 8 latent factors with per-variable offsets and scales
// spanning the magnitudes of the TE measurements.
func syntheticCalibration(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	const factors = 8
	w := make([]float64, factors*historian.NumVars)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	offset := make([]float64, historian.NumVars)
	scale := make([]float64, historian.NumVars)
	for j := range offset {
		offset[j] = rng.Float64() * 3000
		scale[j] = 0.01 + rng.Float64()*10
	}
	d, err := dataset.New(historian.VarNames())
	if err != nil {
		tb.Fatal(err)
	}
	row := make([]float64, historian.NumVars)
	z := make([]float64, factors)
	for i := 0; i < benchCalRows; i++ {
		for f := range z {
			z[f] = rng.NormFloat64()
		}
		for j := range row {
			v := 0.3 * rng.NormFloat64()
			for f, zf := range z {
				v += zf * w[f*historian.NumVars+j]
			}
			row[j] = offset[j] + scale[j]*v
		}
		if err := d.Append(row); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// syntheticCalibrationCSV renders syntheticCalibration through
// Dataset.WriteCSV, so every field is a full shortest-round-trip float like
// a real file's.
func syntheticCalibrationCSV(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := syntheticCalibration(tb).WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkCalibrate measures service setup on a paper-shaped
// (19 200 × 53) calibration file: parsing it from memory, folding its rows
// into the calibration moments, the whole core.Calibrate with the
// perfbench-pinned 20 components, and the served path, control.Calibrate,
// which streams the same file from disk into the moments without keeping
// its rows.
func BenchmarkCalibrate(b *testing.B) {
	csv := syntheticCalibrationCSV(b)
	noc, err := dataset.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ReadCSV", func(b *testing.B) {
		b.SetBytes(int64(len(csv)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dataset.ReadCSV(bytes.NewReader(csv)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Moments", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc, err := mat.NewMoments(noc.Cols(), 1)
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < noc.Rows(); r++ {
				if err := acc.Add(noc.RowView(r)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := acc.Covariance(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Calibrate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Calibrate(noc, core.Config{Components: 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Served", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "cal.csv")
		if err := os.WriteFile(path, csv, 0o644); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(csv)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := control.Calibrate(path, 20, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
