package te

import (
	"math"
	"testing"
)

// TestMeasurementUnitMappings checks the engineering-unit relations between
// internal stream quantities and the XMEAS vector.
// debugState reads the process internals the physics checks need:
// reaction rates [r1..r4] in kmol/h, the reactor component holdups [A..H]
// in kmol, the separator gas holdups, and key stream molar flows
// [F6, F7, F5, F9, F10, F11, OV].
func debugState(p *Process) (rates [4]float64, nR, nSg [8]float64, streams [7]float64) {
	fl := &p.flows
	return fl.rates, p.nR, p.nSg, [7]float64{fl.f6, fl.f7, fl.f5, fl.f9, fl.f10Mol, fl.f11Mol, fl.ovMol}
}

func TestMeasurementUnitMappings(t *testing.T) {
	p := newTestProcess(t, Config{NoProcessNoise: true, NoMeasurementNoise: true})
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	m := p.TrueMeasurements()
	_, _, _, streams := debugState(p)
	// Molar reactor feed (streams[0] = F6 in kmol/h) ↔ XMEAS(6) in kscmh.
	if got, want := m[XmeasReactorFeed], streams[0]*kscmhPerKmol; math.Abs(got-want) > 1e-9 {
		t.Errorf("XMEAS(6) = %g, want %g from F6", got, want)
	}
	// Recycle and purge mappings.
	if got, want := m[XmeasRecycle], streams[2]*kscmhPerKmol; math.Abs(got-want) > 1e-9 {
		t.Errorf("XMEAS(5) = %g, want %g from F5", got, want)
	}
	if got, want := m[XmeasPurgeRate], streams[3]*kscmhPerKmol; math.Abs(got-want) > 1e-9 {
		t.Errorf("XMEAS(10) = %g, want %g from F9", got, want)
	}
	// D and E feeds are mass flows (kg/h = kmol/h × molWeight).
	f2kmol := m[XmeasDFeed] / molWeight[CompD]
	if f2kmol <= 0 || f2kmol > f2Max {
		t.Errorf("D feed %g kmol/h out of range (0,%g]", f2kmol, f2Max)
	}
	f3kmol := m[XmeasEFeed] / molWeight[CompE]
	if f3kmol <= 0 || f3kmol > f3Max {
		t.Errorf("E feed %g kmol/h out of range (0,%g]", f3kmol, f3Max)
	}
}

// TestCompositionBlocksSumToHundred: the three analyzer blocks measure mole
// percentages; each block must sum to ≈100 %.
func TestCompositionBlocksSumToHundred(t *testing.T) {
	p := newTestProcess(t, Config{NoProcessNoise: true, NoMeasurementNoise: true})
	// Let the analyzer lags converge.
	for i := 0; i < 2000; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m := p.TrueMeasurements()
	blocks := []struct {
		name     string
		from, to int // inclusive
		partial  bool
	}{
		// The feed analyzer reports A–F only (G/H traces are unreported),
		// so its sum may fall slightly short of 100.
		{"reactor feed A–F", XmeasFeedA, XmeasFeedF, true},
		{"purge A–H", XmeasPurgeA, XmeasPurgeH, false},
		{"product D–H", XmeasProductD, XmeasProductH, true},
	}
	for _, blk := range blocks {
		var sum float64
		for j := blk.from; j <= blk.to; j++ {
			sum += m[j]
		}
		lo := 99.0
		if blk.partial {
			lo = 90.0
		}
		if sum < lo || sum > 100.5 {
			t.Errorf("%s sums to %.2f%%, want within [%g,100.5]", blk.name, sum, lo)
		}
	}
}

// TestPressureLevelTemperatureSanity: derived quantities stay physical
// through a long noisy run.
func TestPressureLevelTemperatureSanity(t *testing.T) {
	p := newTestProcess(t, Config{Seed: 21})
	for i := 0; i < 4000; i++ {
		if err := p.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		m := p.TrueMeasurements()
		if m[XmeasReactorPress] < 500 || m[XmeasReactorPress] > 3500 {
			t.Fatalf("step %d: reactor pressure %g", i, m[XmeasReactorPress])
		}
		if m[XmeasSepPress] >= m[XmeasReactorPress] {
			t.Fatalf("step %d: separator pressure %g ≥ reactor %g (flow would reverse)",
				i, m[XmeasSepPress], m[XmeasReactorPress])
		}
		for _, lvl := range []int{XmeasReactorLevel, XmeasSepLevel, XmeasStripLevel} {
			if m[lvl] < 0 || m[lvl] > 150 {
				t.Fatalf("step %d: level %s = %g", i, XMEASNames[lvl], m[lvl])
			}
		}
		if m[XmeasReactorTemp] < 80 || m[XmeasReactorTemp] > 180 {
			t.Fatalf("step %d: reactor temperature %g", i, m[XmeasReactorTemp])
		}
	}
}

// TestMassConservationClosedValves: with all feed valves shut and no
// reactions possible once reactants are gone, total inventory must never
// increase.
func TestMassConservationClosedValves(t *testing.T) {
	p := newTestProcess(t, Config{NoProcessNoise: true, NoMeasurementNoise: true, StepSeconds: 4.5})
	for _, v := range []int{XmvAFeed, XmvDFeed, XmvEFeed, XmvACFeed} {
		if err := p.SetXMV(v, 0); err != nil {
			t.Fatal(err)
		}
	}
	total := func() float64 {
		_, nR, nSg, _ := debugState(p)
		var s float64
		for c := 0; c < 8; c++ {
			s += nR[c] + nSg[c]
		}
		return s
	}
	// Let the valves close.
	for i := 0; i < 20; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	prev := total()
	for i := 0; i < 400; i++ {
		if err := p.Step(); err != nil {
			break // an interlock trip is acceptable here
		}
		cur := total()
		if cur > prev+1e-6 {
			t.Fatalf("step %d: gas-phase inventory grew %.9f → %.9f with feeds shut", i, prev, cur)
		}
		prev = cur
	}
}

// TestDebugAccessorShapes: the development accessor stays consistent.
func TestDebugAccessorShapes(t *testing.T) {
	p := newTestProcess(t, Config{NoProcessNoise: true, NoMeasurementNoise: true})
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	rates, nR, nSg, streams := debugState(p)
	for i, r := range rates {
		if r < 0 {
			t.Errorf("rate[%d] = %g < 0", i, r)
		}
	}
	for c := 0; c < 8; c++ {
		if nR[c] < 0 || nSg[c] < 0 {
			t.Errorf("negative inventory at component %d", c)
		}
	}
	for i, s := range streams {
		if s < 0 {
			t.Errorf("stream[%d] = %g < 0", i, s)
		}
	}
}
