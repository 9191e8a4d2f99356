package te

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestProcess(t *testing.T, cfg Config) *Process {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewDefaults(t *testing.T) {
	p := newTestProcess(t, Config{})
	if p.cfg.StepSeconds != 1.8 {
		t.Errorf("default step = %g, want 1.8", p.cfg.StepSeconds)
	}
	if p.Hours() != 0 {
		t.Errorf("initial Hours = %g", p.Hours())
	}
	if p.Shutdown() {
		t.Error("fresh process should not be shut down")
	}
}

func TestNewRejectsBadStep(t *testing.T) {
	if _, err := New(Config{StepSeconds: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative step: want ErrBadConfig, got %v", err)
	}
	if _, err := New(Config{StepSeconds: 61}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("huge step: want ErrBadConfig, got %v", err)
	}
}

func TestMeasurementVectorShape(t *testing.T) {
	p := newTestProcess(t, Config{NoMeasurementNoise: true, NoProcessNoise: true})
	m := p.Measurements()
	if len(m) != NumXMEAS {
		t.Fatalf("measurements len %d, want %d", len(m), NumXMEAS)
	}
	for i, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("XMEAS(%d) = %g", i+1, v)
		}
	}
	// Compositions are percentages in [0,100].
	for i := XmeasFeedA; i <= XmeasProductH; i++ {
		if m[i] < -1e-9 || m[i] > 100+1e-9 {
			t.Errorf("composition %s = %g out of [0,100]", XMEASNames[i], m[i])
		}
	}
}

func TestInitialStateNearBaseTargets(t *testing.T) {
	// The nominal initial state should land within a loose band of the
	// Downs–Vogel base case for the directly-mapped channels.
	p := newTestProcess(t, Config{NoMeasurementNoise: true, NoProcessNoise: true})
	m := p.TrueMeasurements()
	checks := []struct {
		idx int
		tol float64 // relative
	}{
		{XmeasAFeed, 0.1},
		{XmeasDFeed, 0.1},
		{XmeasEFeed, 0.1},
		{XmeasACFeed, 0.1},
		{XmeasReactorPress, 0.05},
		{XmeasReactorTemp, 0.01},
		{XmeasSepTemp, 0.01},
		{XmeasStripTemp, 0.01},
		{XmeasSteamFlow, 0.05},
		{XmeasCompWork, 0.10},
	}
	for _, c := range checks {
		want := BaseXMEASTargets[c.idx]
		got := m[c.idx]
		if math.Abs(got-want) > c.tol*math.Abs(want) {
			t.Errorf("%s = %g, want %g ±%.0f%%", XMEASNames[c.idx], got, want, c.tol*100)
		}
	}
}

func TestMeasurementNoiseStatistics(t *testing.T) {
	// With measurement noise on and the plant frozen-ish (no stepping of
	// inputs), repeated sampling shows per-channel noise near the
	// configured std.
	p := newTestProcess(t, Config{Seed: 3, NoProcessNoise: true})
	const n = 3000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		if err := p.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		v := p.Measurements()[XmeasReactorTemp] - p.TrueMeasurements()[XmeasReactorTemp]
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	want := measNoiseStd[XmeasReactorTemp]
	if math.Abs(mean) > 0.01 {
		t.Errorf("noise mean = %g, want ~0", mean)
	}
	if math.Abs(std-want) > 0.15*want {
		t.Errorf("noise std = %g, want ≈ %g", std, want)
	}
}

func TestSetXMVClampsAndValidates(t *testing.T) {
	p := newTestProcess(t, Config{})
	if err := p.SetXMV(XmvAFeed, 150); err != nil {
		t.Fatal(err)
	}
	if got := p.cmd[XmvAFeed]; got != 100 {
		t.Errorf("clamped XMV = %g, want 100", got)
	}
	if err := p.SetXMV(XmvAFeed, -5); err != nil {
		t.Fatal(err)
	}
	if got := p.cmd[XmvAFeed]; got != 0 {
		t.Errorf("clamped XMV = %g, want 0", got)
	}
	if err := p.SetXMV(-1, 50); !errors.Is(err, ErrBadIndex) {
		t.Errorf("want ErrBadIndex, got %v", err)
	}
	if err := p.SetXMV(NumXMV, 50); !errors.Is(err, ErrBadIndex) {
		t.Errorf("want ErrBadIndex, got %v", err)
	}
}

func TestSetIDVValidates(t *testing.T) {
	p := newTestProcess(t, Config{})
	if err := p.SetIDV(5, true); err != nil {
		t.Fatal(err)
	}
	if !p.IDV(5) {
		t.Error("IDV(6) not set")
	}
	if err := p.SetIDV(20, true); !errors.Is(err, ErrBadIndex) {
		t.Errorf("want ErrBadIndex, got %v", err)
	}
	if p.IDV(99) {
		t.Error("out-of-range IDV should read false")
	}
}

func TestIDV6KillsAFeed(t *testing.T) {
	p := newTestProcess(t, Config{NoMeasurementNoise: true, NoProcessNoise: true})
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	before := p.TrueMeasurements()[XmeasAFeed]
	if before <= 0.1 {
		t.Fatalf("base A feed = %g, expected near 0.25", before)
	}
	if err := p.SetIDV(5, true); err != nil {
		t.Fatal(err)
	}
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	after := p.TrueMeasurements()[XmeasAFeed]
	if after > 1e-9 {
		t.Errorf("A feed under IDV(6) = %g, want 0", after)
	}
}

func TestValveLagResponds(t *testing.T) {
	p := newTestProcess(t, Config{NoMeasurementNoise: true, NoProcessNoise: true, StepSeconds: 1.8})
	if err := p.SetXMV(XmvAFeed, 0); err != nil {
		t.Fatal(err)
	}
	// Valve lag is 10 s; after 60 s the flow should be nearly shut.
	for i := 0; i < 34; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if f := p.TrueMeasurements()[XmeasAFeed]; f > 0.01 {
		t.Errorf("A feed after closing valve = %g, want ≈ 0", f)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := newTestProcess(t, Config{Seed: 1})
	c1 := p.Clone(7)
	c2 := p.Clone(7)
	c3 := p.Clone(8)
	if c1.Hours() != 0 {
		t.Error("clone clock should reset")
	}
	// Same seed → identical trajectories; different seed → diverging noise.
	for i := 0; i < 50; i++ {
		if err := c1.Step(); err != nil {
			t.Fatal(err)
		}
		if err := c2.Step(); err != nil {
			t.Fatal(err)
		}
		if err := c3.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m1, m2, m3 := c1.Measurements(), c2.Measurements(), c3.Measurements()
	same, diff := true, false
	for i := range m1 {
		if m1[i] != m2[i] {
			same = false
		}
		if m1[i] != m3[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same-seed clones diverged")
	}
	if !diff {
		t.Error("different-seed clones identical")
	}
	// The original is untouched by clone stepping.
	if p.Hours() != 0 {
		t.Error("original advanced by clone steps")
	}
}

func TestShutdownLatches(t *testing.T) {
	p := newTestProcess(t, Config{NoMeasurementNoise: true, NoProcessNoise: true, StepSeconds: 9})
	// Close the product valve AND the separator underflow: the separator
	// fills (or stripper drains) until an interlock trips.
	if err := p.SetXMV(XmvStripFlow, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.SetXMV(XmvSepFlow, 0); err != nil {
		t.Fatal(err)
	}
	tripped := false
	for i := 0; i < 20000; i++ {
		if err := p.Step(); err != nil {
			if !errors.Is(err, ErrShutdown) {
				t.Fatalf("unexpected error: %v", err)
			}
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("no interlock trip despite pathological valve positions")
	}
	if !p.Shutdown() || p.ShutdownReason() == "" {
		t.Error("shutdown state not recorded")
	}
	// Subsequent steps keep failing with ErrShutdown.
	if err := p.Step(); !errors.Is(err, ErrShutdown) {
		t.Errorf("want ErrShutdown after trip, got %v", err)
	}
}

func TestEnableNoiseToggle(t *testing.T) {
	p := newTestProcess(t, Config{NoProcessNoise: true, NoMeasurementNoise: true})
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	m1 := p.Measurements()
	t1 := p.TrueMeasurements()
	for i := range m1 {
		if m1[i] != t1[i] {
			t.Fatal("noiseless: Measurements should equal TrueMeasurements")
		}
	}
	p.EnableNoise(true, true)
	if err := p.Step(); err != nil {
		t.Fatal(err)
	}
	m2 := p.Measurements()
	t2 := p.TrueMeasurements()
	differs := false
	for i := range m2 {
		if m2[i] != t2[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("noise enabled but measurements identical to truth")
	}
}

func TestMeasurementsReturnCopies(t *testing.T) {
	p := newTestProcess(t, Config{})
	m := p.Measurements()
	m[0] = 1e9
	if p.Measurements()[0] == 1e9 {
		t.Error("Measurements returned aliasing slice")
	}
	x := p.XMVs()
	x[0] = 1e9
	if p.XMVs()[0] == 1e9 {
		t.Error("XMVs returned aliasing slice")
	}
}

func TestOUProcessStationaryProperty(t *testing.T) {
	// The OU noise stays within ~6σ of its mean over long horizons.
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(71))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := newOU(10, 1.0, 0.5)
		for i := 0; i < 20000; i++ {
			v := o.step(0.001, rng)
			if math.Abs(v-10) > 6*0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestOUVarianceMatchesSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := newOU(0, 0.5, 2.0)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := o.step(0.01, rng)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(std-2.0) > 0.15*2.0 {
		t.Errorf("OU stationary std = %g, want ≈ 2", std)
	}
}

func TestLagConverges(t *testing.T) {
	l := newLag(0.1)
	l.force(0)
	for i := 0; i < 1000; i++ {
		l.step(5, 0.01)
	}
	if math.Abs(l.y-5) > 1e-6 {
		t.Errorf("lag output = %g, want 5", l.y)
	}
	// Zero tau = pass-through.
	l2 := newLag(0)
	l2.force(0)
	if got := l2.step(7, 0.01); got != 7 {
		t.Errorf("zero-tau lag = %g, want 7", got)
	}
}

func TestStictionBand(t *testing.T) {
	s := stiction{band: 2}
	if got := s.apply(10); got != 10 {
		t.Errorf("first apply = %g", got)
	}
	if got := s.apply(11); got != 10 {
		t.Errorf("within band = %g, want stuck at 10", got)
	}
	if got := s.apply(13); got != 13 {
		t.Errorf("beyond band = %g, want 13", got)
	}
}

func TestVarsTablesComplete(t *testing.T) {
	for i, s := range XMEASNames {
		if s == "" {
			t.Errorf("XMEASNames[%d] empty", i)
		}
	}
	for i, s := range XMVNames {
		if s == "" {
			t.Errorf("XMVNames[%d] empty", i)
		}
	}
	for i, v := range measNoiseStd {
		if v <= 0 {
			t.Errorf("measNoiseStd[%d] = %g, want > 0", i, v)
		}
	}
	for i, v := range BaseXMV {
		if v <= 0 || v >= 100 {
			t.Errorf("BaseXMV[%d] = %g out of (0,100)", i, v)
		}
	}
}
