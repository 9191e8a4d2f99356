package mspc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pcsmon/internal/mat"
)

// refCompute is the fused ComputeInto sweep this package ran before the
// register-blocked projection, kept verbatim as the exactness oracle: one
// pass over the row that scales, accumulates ‖x‖² and adds s·P[j] into the
// scores with one AxpyInto per variable.
func refCompute(m *Monitor, row []float64) Statistics {
	means, stds := m.Scaler().Means(), m.Scaler().Stds()
	load := m.Model().Loadings()
	eig := m.Model().Eigenvalues()
	scores := make([]float64, len(eig))
	var x2 float64
	for j, v := range row {
		s := (v - means[j]) / stds[j]
		x2 += s * s
		mat.AxpyInto(scores, s, load.RowView(j))
	}
	var d, t2 float64
	for a, tv := range scores {
		if eig[a] > 1e-12 {
			d += tv * tv / eig[a]
		}
		t2 += tv * tv
	}
	q := x2 - t2
	if q < 0 {
		q = 0
	}
	return Statistics{D: d, Q: q}
}

// checkComputeExact scores fresh rows through ComputeInto, Compute and the
// pre-blocking reference sweep and requires all three to agree exactly.
func checkComputeExact(t *testing.T, name string, m *Monitor, fresh *mat.Matrix) {
	t.Helper()
	scaled := make([]float64, fresh.Cols())
	scores := make([]float64, m.Model().NComponents())
	for i := 0; i < fresh.Rows(); i++ {
		row := fresh.RowView(i)
		want := refCompute(m, row)
		naive, err := m.Compute(row)
		if err != nil {
			t.Fatalf("%s: Compute: %v", name, err)
		}
		got, err := m.ComputeInto(row, scaled, scores)
		if err != nil {
			t.Fatalf("%s: ComputeInto: %v", name, err)
		}
		if got != want || naive != want {
			t.Fatalf("%s row %d: ComputeInto %+v, Compute %+v, reference %+v", name, i, got, naive, want)
		}
	}
}

// TestComputeIntoMatchesComputeExact pins ComputeInto and the chained
// Compute path (ApplyRow → Project → statsFrom) against the pre-blocking
// fused sweep with exact equality — the blocked projection must not change
// a single bit of any D or Q value, for moments from one pass and from
// two merged halves, and at the paper's 53 variables for every remainder
// of the 4-score block.
func TestComputeIntoMatchesComputeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	mon, x := calibrated(t, rng, 300, 13, 3, 4)

	monMerged, err := calibrateMoments(mergedHalves(x), WithComponents(4))
	if err != nil {
		t.Fatalf("CalibrateCov: %v", err)
	}
	fresh := correlatedNormal(rng, 500, 13, 3, 0.5)
	checkComputeExact(t, "13 vars", mon, fresh)
	checkComputeExact(t, "13 vars, merged moments", monMerged, fresh)

	paper := correlatedNormal(rng, 400, 53, 8, 0.5)
	freshPaper := correlatedNormal(rng, 300, 53, 8, 0.5)
	for _, a := range []int{1, 3, 4, 5, 17, 20, 23} {
		m, err := calibrate(paper, WithComponents(a))
		if err != nil {
			t.Fatalf("CalibrateCov A=%d: %v", a, err)
		}
		checkComputeExact(t, fmt.Sprintf("53 vars A=%d", a), m, freshPaper)
	}
}

// fallbackStats scores a preprocessed row the way ProjectInto does on hosts
// without AVX2: MulVecInto over the transposed loadings, then statsFrom.
func fallbackStats(t *testing.T, m *Monitor, loadT *mat.Matrix, scaled, scores []float64) Statistics {
	t.Helper()
	if err := mat.MulVecInto(loadT, scaled, scores); err != nil {
		t.Fatal(err)
	}
	return m.statsFrom(scaled, scores)
}

func sameStats(a, b Statistics) bool {
	return math.Float64bits(a.D) == math.Float64bits(b.D) && math.Float64bits(a.Q) == math.Float64bits(b.Q)
}

// TestProjectionPathsBitEqual pins the AVX2 projection against the
// MulVecInto-over-Pᵀ fallback at the paper's shape (the 53-variable
// monitor BenchmarkComputeInto scores, at A=20 and A=23): every
// calibration row through ComputeInto and the 99 % limits must be
// bit-equal.
func TestProjectionPathsBitEqual(t *testing.T) {
	if !mat.HasAVX2() {
		t.Log("CPU has no AVX2: ProjectInto runs the MulVecInto fallback only")
		t.Skip("no AVX2 path to compare")
	}
	rng := rand.New(rand.NewSource(64))
	x := correlatedNormal(rng, 20*53, 53, 3, 0.5)
	for _, a := range []int{20, 23} {
		name := fmt.Sprintf("A=%d", a)
		m, err := calibrate(x, WithComponents(a))
		if err != nil {
			t.Fatalf("%s: CalibrateCov: %v", name, err)
		}
		loadT := m.Model().Loadings().T()
		scaled := make([]float64, 53)
		scores := make([]float64, a)
		for i := 0; i < x.Rows(); i++ {
			got, err := m.ComputeInto(x.RowView(i), scaled, scores)
			if err != nil {
				t.Fatal(err)
			}
			if want := fallbackStats(t, m, loadT, scaled, scores); !sameStats(got, want) {
				t.Fatalf("%s row %d: ComputeInto %+v, fallback %+v", name, i, got, want)
			}
		}

		wantD99, err := DLimit(x.Rows(), a, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		wantQ99, err := QLimitJacksonMudholkar(m.Model().ResidualEigenvalues(), 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if lim := m.Limits(); math.Float64bits(lim.D99) != math.Float64bits(wantD99) || math.Float64bits(lim.Q99) != math.Float64bits(wantQ99) {
			t.Fatalf("%s: D99=%v Q99=%v, fallback D99=%v Q99=%v", name, lim.D99, lim.Q99, wantD99, wantQ99)
		}
	}
}

// BenchmarkComputeInto compares the blocked scoring kernel against the
// naive chained Compute path, on a toy 16×5 model and at the paper's
// shape (53 variables, 20 components, as perfbench pins). The fused cases
// must report 0 allocs/op; CI runs this in the bench-smoke step.
func BenchmarkComputeInto(b *testing.B) {
	for _, c := range []struct {
		name        string
		vars, comps int
	}{{"toy", 16, 5}, {"paper", 53, 20}} {
		rng := rand.New(rand.NewSource(64))
		x := correlatedNormal(rng, 20*c.vars, c.vars, 3, 0.5)
		mon, err := calibrate(x, WithComponents(c.comps))
		if err != nil {
			b.Fatal(err)
		}
		row := x.RowView(42)
		var sink float64
		b.Run(c.name+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := mon.Compute(row)
				if err != nil {
					b.Fatal(err)
				}
				sink += s.D
			}
		})
		b.Run(c.name+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			scaled := make([]float64, c.vars)
			scores := make([]float64, c.comps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := mon.ComputeInto(row, scaled, scores)
				if err != nil {
					b.Fatal(err)
				}
				sink += s.D
			}
		})
		_ = sink
	}
}

// TestComputeIntoDimensionErrors pins the scratch-shape validation.
func TestComputeIntoDimensionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	mon, _ := calibrated(t, rng, 100, 8, 2, 3)
	scaled := make([]float64, 8)
	scores := make([]float64, 3)
	if _, err := mon.ComputeInto(make([]float64, 7), scaled, scores); err == nil {
		t.Fatal("expected row length error")
	}
	if _, err := mon.ComputeInto(make([]float64, 8), scaled[:7], scores); err == nil {
		t.Fatal("expected scaled length error")
	}
	if _, err := mon.ComputeInto(make([]float64, 8), scaled, scores[:2]); err == nil {
		t.Fatal("expected scores length error")
	}
}

// TestComputeIntoZeroAlloc pins that the fused scoring sweep performs no
// allocations at all.
func TestComputeIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	mon, _ := calibrated(t, rng, 200, 16, 3, 5)
	row := make([]float64, 16)
	for j := range row {
		row[j] = rng.NormFloat64()*float64(j+1) + 100*float64(j)
	}
	scaled := make([]float64, 16)
	scores := make([]float64, 5)
	var sink float64
	got := testing.AllocsPerRun(200, func() {
		s, err := mon.ComputeInto(row, scaled, scores)
		if err != nil {
			t.Fatal(err)
		}
		sink += s.D + s.Q
	})
	if got != 0 {
		t.Fatalf("ComputeInto: %v allocs/op, want 0", got)
	}
	_ = sink
}
