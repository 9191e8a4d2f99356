package scenario

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/plant"
	"pcsmon/internal/te"
)

// The integration fixture is expensive (template warmup + calibration), so
// it is built once and shared by every test in the package.
var (
	fixOnce sync.Once
	fixErr  error
	fixExp  *Experiment
	fixRes  map[string]*Result
)

const (
	testOnsetHour = 4.0
	testRunHours  = 20.0
	testRuns      = 3
)

func fixture(t *testing.T) (*Experiment, map[string]*Result) {
	t.Helper()
	fixOnce.Do(func() {
		tmpl, err := plant.NewTemplate(plant.Config{StepSeconds: 4.5, WarmupHours: 60})
		if err != nil {
			fixErr = err
			return
		}
		cal, err := Calibrate(tmpl, 3, 24, 2, 1, core.Config{})
		if err != nil {
			fixErr = err
			return
		}
		exp := &Experiment{
			Template:  tmpl,
			System:    cal.System,
			Hours:     testRunHours,
			OnsetHour: testOnsetHour,
			Decimate:  2,
			SeedBase:  500,
		}
		res := make(map[string]*Result, 4)
		for _, sc := range PaperScenarios(testOnsetHour) {
			r, err := exp.Run(sc, testRuns)
			if err != nil {
				fixErr = err
				return
			}
			res[sc.Key] = r
		}
		fixExp, fixRes = exp, res
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixExp, fixRes
}

func TestAllScenariosDetected(t *testing.T) {
	// Paper §V-A: "Our approach detects all anomalous situations of
	// disturbances and attacks."
	_, res := fixture(t)
	for key, r := range res {
		if r.DetectionRate < 1.0 {
			t.Errorf("%s: detection rate %.2f, want 1.0", key, r.DetectionRate)
		}
	}
}

func TestARLOrdering(t *testing.T) {
	// Paper §V: integrity attacks and the disturbance are detected almost
	// immediately; DoS detection takes far longer (≈1 h in the paper).
	_, res := fixture(t)
	fast := []string{"idv6", "xmv3-integrity", "xmeas1-integrity"}
	for _, key := range fast {
		if rl := res[key].MeanRunLength; rl > 10*time.Minute {
			t.Errorf("%s: mean run length %v, want fast (≤10 min)", key, rl)
		}
	}
	dos := res["xmv3-dos"].MeanRunLength
	for _, key := range fast {
		if dos < 4*res[key].MeanRunLength {
			t.Errorf("DoS run length %v not ≫ %s run length %v", dos, key, res[key].MeanRunLength)
		}
	}
	if dos < 10*time.Minute {
		t.Errorf("DoS run length %v suspiciously fast", dos)
	}
}

func TestControllerViewConfoundsIDV6AndXMV3Attack(t *testing.T) {
	// The paper's central observation (Figs. 4a vs 4b): from the
	// controller's point of view, IDV(6) and the XMV(3) integrity attack
	// produce the same diagnosis — XMEAS(1) dominant and below normal.
	_, res := fixture(t)
	for _, key := range []string{"idv6", "xmv3-integrity"} {
		prof := res[key].PooledOMEDACtrl
		if prof == nil {
			t.Fatalf("%s: no controller profile", key)
		}
		top := topVar(prof)
		if top != te.XmeasAFeed {
			t.Errorf("%s controller view: top var %d, want XMEAS(1)", key, top)
		}
		if prof[te.XmeasAFeed] >= 0 {
			t.Errorf("%s controller view: XMEAS(1) bar %.1f, want negative", key, prof[te.XmeasAFeed])
		}
	}
}

func TestProcessViewSeparatesIDV6FromXMV3Attack(t *testing.T) {
	// Figs. 5a vs 5b: the process view pins the XMV(3) attack on the
	// manipulated variable (negative bar — the valve is forced shut),
	// while IDV(6) keeps XMEAS(1) as the dominant variable.
	_, res := fixture(t)
	xmv3 := te.NumXMEAS + te.XmvAFeed

	idv6 := res["idv6"].PooledOMEDAProc
	if top := topVar(idv6); top != te.XmeasAFeed {
		t.Errorf("idv6 process view: top var %d (%.1f), want XMEAS(1)", top, idv6[top])
	}

	atk := res["xmv3-integrity"].PooledOMEDAProc
	if atk[xmv3] >= 0 {
		t.Errorf("xmv3 attack process view: XMV(3) bar %.1f, want negative", atk[xmv3])
	}
	// XMV(3) must be material in the attack's process view…
	if math.Abs(atk[xmv3]) < 0.25*maxAbs(atk) {
		t.Errorf("xmv3 attack process view: XMV(3) bar %.1f immaterial vs max %.1f", atk[xmv3], maxAbs(atk))
	}
	// …and its *direction* is what separates the two situations: under
	// IDV(6) the controller winds the real valve open (positive), under
	// the attack the plant receives a closed valve (negative).
	if idv6[xmv3] <= 0 {
		t.Errorf("idv6 process view: XMV(3) bar %.1f, want positive (controller compensating)", idv6[xmv3])
	}
}

func TestXMEAS1AttackProcessViewShowsBothHigh(t *testing.T) {
	// Fig. 5c: under the forged-sensor attack the process view shows
	// XMEAS(1) and XMV(3) above normal (controller opened the valve).
	_, res := fixture(t)
	xmv3 := te.NumXMEAS + te.XmvAFeed
	prof := res["xmeas1-integrity"].PooledOMEDAProc
	if prof[te.XmeasAFeed] <= 0 {
		t.Errorf("process view XMEAS(1) bar %.1f, want positive", prof[te.XmeasAFeed])
	}
	if prof[xmv3] <= 0 {
		t.Errorf("process view XMV(3) bar %.1f, want positive", prof[xmv3])
	}
	// Controller view shows the forged zero: negative.
	cprof := res["xmeas1-integrity"].PooledOMEDACtrl
	if cprof[te.XmeasAFeed] >= 0 {
		t.Errorf("controller view XMEAS(1) bar %.1f, want negative", cprof[te.XmeasAFeed])
	}
}

func TestVerdictsMatchGroundTruth(t *testing.T) {
	_, res := fixture(t)
	for key, r := range res {
		if r.Correct < 1.0 {
			t.Errorf("%s: classifier correct on %.0f%% of runs (verdicts %v), want 100%%",
				key, r.Correct*100, r.Verdicts)
		}
	}
}

func TestIntegrityAttacksLocalized(t *testing.T) {
	_, res := fixture(t)
	for _, key := range []string{"xmv3-integrity", "xmeas1-integrity"} {
		want := res[key].Scenario.AttackedVar
		for i, run := range res[key].Runs {
			if run.Report.Verdict != core.VerdictIntegrityAttack {
				continue
			}
			if run.Report.AttackedVar != want {
				t.Errorf("%s run %d: localized var %d, want %d", key, i, run.Report.AttackedVar, want)
			}
		}
	}
}

func TestShutdownParityBetweenIDV6AndXMV3Attack(t *testing.T) {
	// Fig. 3: both situations shut the plant down hours after onset.
	_, res := fixture(t)
	for _, key := range []string{"idv6", "xmv3-integrity"} {
		for i, run := range res[key].Runs {
			if !run.Shutdown {
				t.Errorf("%s run %d: no shutdown", key, i)
				continue
			}
			elapsed := run.ShutdownHour - testOnsetHour
			if elapsed < 2 || elapsed > 14 {
				t.Errorf("%s run %d: shutdown %.1f h after onset, want hours", key, i, elapsed)
			}
		}
	}
}

func TestPaperScenarioDefinitions(t *testing.T) {
	scs := PaperScenarios(10)
	if len(scs) != 4 {
		t.Fatalf("got %d paper scenarios, want 4", len(scs))
	}
	keys := map[string]bool{}
	for _, sc := range scs {
		keys[sc.Key] = true
		if sc.Name == "" {
			t.Errorf("%s: empty name", sc.Key)
		}
	}
	for _, want := range []string{"idv6", "xmv3-integrity", "xmeas1-integrity", "xmv3-dos"} {
		if !keys[want] {
			t.Errorf("missing scenario %q", want)
		}
	}
	if len(ExtendedScenarios(10)) < 4 {
		t.Error("expected several extended scenarios")
	}
}

// TestExperimentValidation exercises the config validation satellites.
func TestExperimentValidation(t *testing.T) {
	exp, _ := fixture(t)
	sc := PaperScenarios(testOnsetHour)[0]
	cases := []struct {
		name   string
		mutate func(*Experiment)
		runs   int
	}{
		{"no template", func(e *Experiment) { e.Template = nil }, 1},
		{"no system", func(e *Experiment) { e.System = nil }, 1},
		{"zero runs", func(e *Experiment) {}, 0},
		{"zero hours", func(e *Experiment) { e.Hours = 0 }, 1},
		{"negative onset", func(e *Experiment) { e.OnsetHour = -1 }, 1},
		{"negative decimate", func(e *Experiment) { e.Decimate = -2 }, 1},
		{"negative workers", func(e *Experiment) { e.Workers = -1 }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := *exp
			tc.mutate(&e)
			if _, err := e.Run(sc, tc.runs); !errors.Is(err, ErrBadConfig) {
				t.Errorf("want ErrBadConfig, got %v", err)
			}
		})
	}
	if _, err := Calibrate(exp.Template, 1, 1, -1, 0, core.Config{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative calibration decimate: want ErrBadConfig, got %v", err)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(nil, 3, 24, 1, 0, core.Config{}); err == nil {
		t.Error("nil template accepted")
	}
	exp := &Experiment{}
	if _, err := exp.Run(Scenario{}, 1); err == nil {
		t.Error("uninitialized experiment accepted")
	}
}

// TestCalibrateReproducible: scenario calibration is a function of its
// inputs alone. Repeated calls with the fixture's own arguments on its
// template must give one model, bit for bit — limits, means and
// covariance — however the runs' goroutines happen to finish.
func TestCalibrateReproducible(t *testing.T) {
	exp, _ := fixture(t)
	const calls = 6
	var distinct []*core.System
	for k := 0; k < calls; k++ {
		cal, err := Calibrate(exp.Template, 3, 24, 2, 1, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		seen := false
		for _, s := range distinct {
			if sameModel(s, cal.System) {
				seen = true
				break
			}
		}
		if !seen {
			distinct = append(distinct, cal.System)
		}
	}
	if len(distinct) != 1 {
		for _, s := range distinct {
			lim := s.Monitor().Limits()
			t.Logf("D99 %v Q99 %v", lim.D99, lim.Q99)
		}
		t.Fatalf("%d calls gave %d distinct models, want 1", calls, len(distinct))
	}
}

// sameModel reports whether a and b have bit-identical 99 % limits,
// calibration means and calibration covariance.
func sameModel(a, b *core.System) bool {
	la, lb := a.Monitor().Limits(), b.Monitor().Limits()
	if math.Float64bits(la.D99) != math.Float64bits(lb.D99) || math.Float64bits(la.Q99) != math.Float64bits(lb.Q99) {
		return false
	}
	ca, ma, na := a.CalibrationMoments()
	cb, mb, nb := b.CalibrationMoments()
	if na != nb || len(ma) != len(mb) || ca.Rows() != cb.Rows() {
		return false
	}
	for j := range ma {
		if math.Float64bits(ma[j]) != math.Float64bits(mb[j]) {
			return false
		}
	}
	for p := 0; p < ca.Rows(); p++ {
		for q := 0; q < ca.Cols(); q++ {
			if math.Float64bits(ca.At(p, q)) != math.Float64bits(cb.At(p, q)) {
				return false
			}
		}
	}
	return true
}

func topVar(vals []float64) int {
	best, bestAbs := -1, 0.0
	for j, v := range vals {
		if a := math.Abs(v); a > bestAbs {
			bestAbs = a
			best = j
		}
	}
	return best
}

func maxAbs(vals []float64) float64 {
	var m float64
	for _, v := range vals {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
