package dataset_test

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"pcsmon/internal/dataset"
	"pcsmon/internal/plant"
)

var teCal struct {
	once sync.Once
	csv  []byte
	err  error
}

// teCalibrationCSV is the process view of a 10 h Tennessee Eastman NOC run
// (4.5 s steps, every second one kept: 4 000 × 53) as WriteCSV renders
// it: the fields a calibration file holds.
func teCalibrationCSV(tb testing.TB) []byte {
	tb.Helper()
	teCal.once.Do(func() {
		tmpl, err := plant.NewTemplate(plant.Config{StepSeconds: 4.5, WarmupHours: 60})
		if err != nil {
			teCal.err = err
			return
		}
		run, err := tmpl.NewRun(plant.RunConfig{Seed: 1, Decimate: 2})
		if err != nil {
			teCal.err = err
			return
		}
		if _, err := run.RunHours(10); err != nil {
			teCal.err = err
			return
		}
		var buf bytes.Buffer
		teCal.err = run.Views().Process.Data().WriteCSV(&buf)
		teCal.csv = buf.Bytes()
	})
	if teCal.err != nil {
		tb.Fatal(teCal.err)
	}
	return teCal.csv
}

// csvFields splits a CSV body (the header line dropped) into its fields.
func csvFields(csv []byte) [][]byte {
	var out [][]byte
	lines := bytes.Split(csv, []byte{'\n'})
	for _, line := range lines[1:] {
		if len(line) > 0 {
			out = append(out, bytes.Split(line, []byte{','})...)
		}
	}
	return out
}

// checkParse requires ParseNumber, on s as a string and as bytes, to give
// strconv.ParseFloat's value (bit for bit, any NaN matching any NaN) and
// to fail exactly when ParseFloat does.
func checkParse(tb testing.TB, s string) {
	tb.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	same := func(v float64) bool {
		return math.Float64bits(v) == math.Float64bits(want) || math.IsNaN(v) && math.IsNaN(want)
	}
	got, err := dataset.ParseNumber(s)
	if !same(got) || (err == nil) != (wantErr == nil) {
		tb.Fatalf("ParseNumber(%q) = %v (%#x), %v; ParseFloat %v (%#x), %v",
			s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
	}
	got, err = dataset.ParseNumber([]byte(s))
	if !same(got) || (err == nil) != (wantErr == nil) {
		tb.Fatalf("ParseNumber([]byte(%q)) = %v, %v; ParseFloat %v, %v", s, got, err, want, wantErr)
	}
}

// parseNumberEdges are the shapes at the fast path's borders: signs and
// zeros, missing digits on either side of the point, leading zeros, 19
// and 20 digits, mantissas around 2^53 and 2^64, decimal strings exactly
// halfway between two doubles, and what only ParseFloat takes.
var parseNumberEdges = []string{
	"0", "-0", "0.0", "-0.0", "00", ".5", "5.", "-.5", "-5.", ".", "-", "-.", "", "--1", "1.2.3",
	"007", "-007.50", "0000000000000000000000001", "0.0000000000000000001", "0.00000000000000000000001",
	"000000000000000000001.5", "1234567890123456789", "12345678901234567890", "9999999999999999999",
	"-9999999999999999999", "0.9999999999999999999", "18446744073709551615", "18446744073709551616",
	"9223372036854775808", "9007199254740991", "9007199254740992", "9007199254740993",
	"9007199254740995", "18014398509481986", "18014398509481990", "0.1", "0.2", "0.3",
	"1.7976931348623157", "4503599627370496.5", "4503599627370497.5", "2.5", "0.5",
	"1e22", "1e23", "1E5", "+5", "+.5", " 1", "1 ", "1_0", "1__0", "0x1p-2", "0x10", "Inf", "-Inf",
	"+Inf", "inf", "infinity", "NaN", "nan", "1e400", "1e-400", "\"1\"", "1,2",
	"0.20081014605298280", "27.786260405082906", "2793.1004225954152", "-0.00012345678901234567",
}

// TestParseNumberMatchesStrconv pins ParseNumber to strconv.ParseFloat on
// every field of a TE calibration file, on a million random doubles in
// shortest and fixed notation, and on the fast path's edge cases.
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, f := range csvFields(teCalibrationCSV(t)) {
		checkParse(t, string(f))
	}
	for _, s := range parseNumberEdges {
		checkParse(t, s)
	}
	rng := rand.New(rand.NewSource(9))
	n := 1 << 20
	if testing.Short() || raceEnabled {
		n = 1 << 16
	}
	for i := 0; i < n; i++ {
		var v float64
		switch i % 3 {
		case 0: // any double, NaN and the infinities included
			v = math.Float64frombits(rng.Uint64())
		case 1: // a plant-like magnitude
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-6))
		default: // an integer up to and past 2^53
			v = float64(rng.Int63n(1 << 62))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		checkParse(t, strconv.FormatFloat(v, 'g', -1, 64))
		checkParse(t, strconv.FormatFloat(v, 'f', rng.Intn(24), 64))
	}
}

// FuzzParseNumber holds ParseNumber to strconv.ParseFloat on any string.
func FuzzParseNumber(f *testing.F) {
	for _, s := range parseNumberEdges {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
	})
}

// BenchmarkParseNumber converts every field of a TE calibration file and
// reports ns per field, with strconv.ParseFloat as the baseline.
func BenchmarkParseNumber(b *testing.B) {
	fields := csvFields(teCalibrationCSV(b))
	for _, c := range []struct {
		name  string
		parse func([]byte) (float64, error)
	}{
		{"ParseNumber", dataset.ParseNumber[[]byte]},
		{"strconv", func(f []byte) (float64, error) { return strconv.ParseFloat(string(f), 64) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range fields {
					if _, err := c.parse(f); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fields)), "ns/field")
		})
	}
}
