package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
	"pcsmon/internal/mspc"
	"pcsmon/internal/te"
)

// synthFixture builds a calibrated System over synthetic 53-variable NOC
// data with latent correlation, plus a generator of NOC rows.
type synthFixture struct {
	sys  *System
	rng  *rand.Rand
	w    [][]float64 // latent loadings
	base []float64
	stds []float64
}

func newSynthFixture(t *testing.T, seed int64) *synthFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const k = 4
	m := historian.NumVars
	f := &synthFixture{rng: rng}
	f.w = make([][]float64, k)
	for i := range f.w {
		f.w[i] = make([]float64, m)
		for j := range f.w[i] {
			f.w[i][j] = rng.NormFloat64()
		}
	}
	f.base = make([]float64, m)
	for j := range f.base {
		f.base[j] = 50 + 10*float64(j%7)
	}
	d, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := d.Append(f.nocRow()); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := Calibrate(d, Config{Components: 4})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	f.sys = sys
	f.stds = sys.Monitor().Scaler().Stds()
	return f
}

func (f *synthFixture) nocRow() []float64 {
	m := historian.NumVars
	row := make([]float64, m)
	for fi := range f.w {
		z := f.rng.NormFloat64()
		for j := 0; j < m; j++ {
			row[j] += z * f.w[fi][j]
		}
	}
	for j := 0; j < m; j++ {
		row[j] = f.base[j] + row[j] + 0.3*f.rng.NormFloat64()
	}
	return row
}

// viewsWithShift builds two aligned views: n normal rows, then anomalous
// rows where view-specific shifts (in calibration sigmas) are applied.
func (f *synthFixture) viewsWithShift(t *testing.T, normal, anomalous int, ctrlShift, procShift map[int]float64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	pd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < normal+anomalous; i++ {
		row := f.nocRow()
		crow := append([]float64(nil), row...)
		prow := append([]float64(nil), row...)
		if i >= normal {
			for j, sig := range ctrlShift {
				crow[j] += sig * f.stds[j]
			}
			for j, sig := range procShift {
				prow[j] += sig * f.stds[j]
			}
		}
		if err := cd.Append(crow); err != nil {
			t.Fatal(err)
		}
		if err := pd.Append(prow); err != nil {
			t.Fatal(err)
		}
	}
	return cd, pd
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(nil, Config{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil: want ErrBadInput, got %v", err)
	}
	d, err := dataset.New([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Append([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Calibrate(d, Config{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("wrong width: want ErrBadInput, got %v", err)
	}
}

func TestAnalyzeNormal(t *testing.T) {
	f := newSynthFixture(t, 101)
	cd, pd := f.viewsWithShift(t, 300, 0, nil, nil)
	rep, err := f.sys.AnalyzeViews(cd, pd, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictNormal {
		t.Errorf("verdict = %v, want normal", rep.Verdict)
	}
	if rep.Controller.Detected || rep.Process.Detected {
		t.Error("false detection on NOC data")
	}
}

func TestAnalyzeDisturbance(t *testing.T) {
	// The same variable deviates the same way in both views.
	f := newSynthFixture(t, 102)
	shift := map[int]float64{te.XmeasAFeed: -12}
	cd, pd := f.viewsWithShift(t, 100, 60, shift, shift)
	rep, err := f.sys.AnalyzeViews(cd, pd, 100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Controller.Detected || !rep.Process.Detected {
		t.Fatalf("12σ shift not detected (ctrl %v, proc %v)", rep.Controller.Detected, rep.Process.Detected)
	}
	if rep.Verdict != VerdictDisturbance {
		t.Errorf("verdict = %v (%s), want disturbance", rep.Verdict, rep.Explanation)
	}
	// XMEAS(1) must be implicated with a negative bar in both views.
	for _, va := range []ViewAnalysis{rep.Controller, rep.Process} {
		if len(va.Top) == 0 || va.Top[0] != te.XmeasAFeed {
			t.Errorf("top variable = %v, want XMEAS(1)=%d", va.Top, te.XmeasAFeed)
		}
		if va.OMEDA[te.XmeasAFeed] >= 0 {
			t.Errorf("XMEAS(1) bar = %g, want negative", va.OMEDA[te.XmeasAFeed])
		}
	}
}

func TestAnalyzeIntegrityAttackSignFlip(t *testing.T) {
	// The forged channel reads low at the controller but is genuinely high
	// at the process — the paper's XMEAS(1) scenario (c).
	f := newSynthFixture(t, 103)
	cd, pd := f.viewsWithShift(t, 100, 60,
		map[int]float64{te.XmeasAFeed: -12},
		map[int]float64{te.XmeasAFeed: +12})
	rep, err := f.sys.AnalyzeViews(cd, pd, 100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictIntegrityAttack {
		t.Fatalf("verdict = %v (%s), want integrity-attack", rep.Verdict, rep.Explanation)
	}
	if rep.AttackedVar != te.XmeasAFeed {
		t.Errorf("attacked var = %d (%s), want XMEAS(1)",
			rep.AttackedVar, historian.VarName(rep.AttackedVar))
	}
}

func TestAnalyzeActuatorIntegritySignFlip(t *testing.T) {
	// XMV(3): controller view shows the valve wound up (+), process view
	// shows it forced shut (−) — the paper's scenario (b).
	f := newSynthFixture(t, 104)
	xmv3 := te.NumXMEAS + te.XmvAFeed
	cd, pd := f.viewsWithShift(t, 100, 60,
		map[int]float64{xmv3: +10, te.XmeasAFeed: -12},
		map[int]float64{xmv3: -10, te.XmeasAFeed: -12})
	rep, err := f.sys.AnalyzeViews(cd, pd, 100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictIntegrityAttack {
		t.Fatalf("verdict = %v (%s), want integrity-attack", rep.Verdict, rep.Explanation)
	}
	if rep.AttackedVar != xmv3 {
		t.Errorf("attacked var = %s, want XMV(3)", historian.VarName(rep.AttackedVar))
	}
}

func TestAnalyzeDoSControllerOnly(t *testing.T) {
	// Controller-side XMV drifts; process side stays silent.
	f := newSynthFixture(t, 105)
	xmv3 := te.NumXMEAS + te.XmvAFeed
	cd, pd := f.viewsWithShift(t, 100, 60,
		map[int]float64{xmv3: +9},
		nil)
	rep, err := f.sys.AnalyzeViews(cd, pd, 100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Controller.Detected {
		t.Fatal("controller view did not detect")
	}
	if rep.Verdict != VerdictDoS {
		t.Errorf("verdict = %v (%s), want dos-attack", rep.Verdict, rep.Explanation)
	}
	if rep.AttackedVar != xmv3 {
		t.Errorf("attacked var = %s, want XMV(3)", historian.VarName(rep.AttackedVar))
	}
}

func TestClassifyProfilesRules(t *testing.T) {
	mkVA := func(detected bool, omeda []float64, top []int, dom float64, rl int) ViewAnalysis {
		return ViewAnalysis{
			Detected: detected, OMEDA: omeda, Top: top,
			Dominance: dom, RunLengthSamples: rl,
		}
	}
	vals := func(pairs map[int]float64) []float64 {
		v := make([]float64, historian.NumVars)
		for j, x := range pairs {
			v[j] = x
		}
		return v
	}

	t.Run("normal", func(t *testing.T) {
		v, _, _ := ClassifyProfiles(mkVA(false, nil, nil, 0, 0), mkVA(false, nil, nil, 0, 0))
		if v != VerdictNormal {
			t.Errorf("got %v", v)
		}
	})
	t.Run("sign flip wins", func(t *testing.T) {
		c := mkVA(true, vals(map[int]float64{3: -100}), []int{3}, 50, 5)
		p := mkVA(true, vals(map[int]float64{3: +80}), []int{3}, 50, 5)
		v, ch, _ := ClassifyProfiles(c, p)
		if v != VerdictIntegrityAttack || ch != 3 {
			t.Errorf("got %v on %d", v, ch)
		}
	})
	t.Run("agreement is disturbance", func(t *testing.T) {
		c := mkVA(true, vals(map[int]float64{3: -100, 45: 30}), []int{3}, 50, 5)
		p := mkVA(true, vals(map[int]float64{3: -90, 45: 25}), []int{3}, 50, 5)
		v, _, _ := ClassifyProfiles(c, p)
		if v != VerdictDisturbance {
			t.Errorf("got %v", v)
		}
	})
	t.Run("diffuse and slow is dos", func(t *testing.T) {
		flat := make([]float64, historian.NumVars)
		for j := range flat {
			flat[j] = 1 + 0.1*float64(j%5)
		}
		c := mkVA(true, flat, []int{0}, 1.4, 2000)
		p := mkVA(true, flat, []int{0}, 1.4, 2000)
		v, _, _ := ClassifyProfiles(c, p)
		if v != VerdictDoS {
			t.Errorf("got %v", v)
		}
	})
	t.Run("ctrl-only xmv is dos", func(t *testing.T) {
		xmv := te.NumXMEAS + 2
		c := mkVA(true, vals(map[int]float64{xmv: 60}), []int{xmv}, 40, 50)
		p := mkVA(false, nil, nil, 0, 0)
		v, ch, _ := ClassifyProfiles(c, p)
		if v != VerdictDoS || ch != xmv {
			t.Errorf("got %v on %d", v, ch)
		}
	})
}

func TestChartSeries(t *testing.T) {
	f := newSynthFixture(t, 108)
	cd, _ := f.viewsWithShift(t, 200, 0, nil, nil)
	d, q, lim, err := f.sys.ChartSeries(cd)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 200 || len(q) != 200 {
		t.Fatalf("series lengths %d/%d", len(d), len(q))
	}
	if lim.D99 <= lim.D95 || lim.Q99 <= lim.Q95 {
		t.Errorf("limits ordering: %+v", lim)
	}
	over := 0
	for i := range d {
		if d[i] > lim.D99 {
			over++
		}
	}
	if float64(over)/200 > 0.1 {
		t.Errorf("%d/200 NOC points above D99", over)
	}
}

func TestDiagnoseGroupValidation(t *testing.T) {
	f := newSynthFixture(t, 109)
	if _, err := f.sys.DiagnoseGroup(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty: want ErrBadInput, got %v", err)
	}
	var unset System
	if _, err := unset.DiagnoseGroup([][]float64{{1}}); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("uncalibrated: want ErrNotCalibrated, got %v", err)
	}
}

func TestVerdictString(t *testing.T) {
	for _, v := range []Verdict{VerdictNormal, VerdictDisturbance, VerdictIntegrityAttack, VerdictDoS, VerdictAnomaly} {
		if v.String() == "" {
			t.Errorf("Verdict(%d) renders empty", v)
		}
	}
	if Verdict(99).String() == "" {
		t.Error("unknown verdict renders empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c != (Config{RunLength: mspc.DefaultRunLength}) {
		t.Errorf("defaults = %+v", c)
	}
}

func TestAnalyzeViewsValidation(t *testing.T) {
	f := newSynthFixture(t, 110)
	cd, pd := f.viewsWithShift(t, 10, 0, nil, nil)
	var unset System
	if _, err := unset.AnalyzeViews(cd, pd, 0, time.Second); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("want ErrNotCalibrated, got %v", err)
	}
	if _, err := f.sys.AnalyzeViews(nil, pd, 0, time.Second); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil view: want ErrBadInput, got %v", err)
	}
	narrow, err := dataset.New([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.Append([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sys.AnalyzeViews(narrow, pd, 0, time.Second); !errors.Is(err, ErrBadInput) {
		t.Errorf("narrow view: want ErrBadInput, got %v", err)
	}
}

func TestRunLengthAccounting(t *testing.T) {
	f := newSynthFixture(t, 111)
	shift := map[int]float64{5: -15}
	cd, pd := f.viewsWithShift(t, 200, 40, shift, shift)
	rep, err := f.sys.AnalyzeViews(cd, pd, 200, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Controller.Detected {
		t.Fatal("not detected")
	}
	// A 15σ step should be caught at the run rule minimum: 3 samples.
	if rep.Controller.RunLengthSamples != 3 {
		t.Errorf("run length = %d samples, want 3", rep.Controller.RunLengthSamples)
	}
	if rep.Controller.Time != 6*time.Second {
		t.Errorf("time = %v, want 6s", rep.Controller.Time)
	}
	if math.Abs(float64(rep.Controller.RunStart-200)) > 1 {
		t.Errorf("run start = %d, want ≈200", rep.Controller.RunStart)
	}
}
