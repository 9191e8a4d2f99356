package plant

import (
	"errors"
	"math"
	"sync"
	"testing"

	"pcsmon/internal/attack"
	"pcsmon/internal/te"
)

// The template warmup is the expensive part; share one 9-second-step
// template across the package's tests.
var (
	tmplOnce sync.Once
	tmpl     *Template
	tmplErr  error
)

func testTemplate(t testing.TB) *Template {
	t.Helper()
	tmplOnce.Do(func() {
		tmpl, tmplErr = NewTemplate(Config{StepSeconds: 4.5, WarmupHours: 60})
	})
	if tmplErr != nil {
		t.Fatalf("template: %v", tmplErr)
	}
	return tmpl
}

func TestNewTemplateValidation(t *testing.T) {
	if _, err := NewTemplate(Config{StepSeconds: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig, got %v", err)
	}
}

func TestTemplateSettles(t *testing.T) {
	tp := testTemplate(t)
	base := tp.BaseXMEAS()
	if len(base) != te.NumXMEAS {
		t.Fatalf("base len %d", len(base))
	}
	// The settled operating point must be near the Downs–Vogel targets for
	// the tightly controlled channels.
	checks := []struct {
		idx int
		tol float64
	}{
		{te.XmeasAFeed, 0.10},
		{te.XmeasDFeed, 0.02},
		{te.XmeasEFeed, 0.02},
		{te.XmeasACFeed, 0.02},
		{te.XmeasReactorTemp, 0.005},
		{te.XmeasSepTemp, 0.005},
		{te.XmeasStripTemp, 0.005},
		{te.XmeasSepLevel, 0.02},
		// The stripper-level trim is slow (Ti = 3 h); at the default warmup
		// horizon it is still an inch from its 50 % setpoint.
		{te.XmeasStripLevel, 0.08},
		// The surrogate settles ~6 % below the Downs–Vogel production rate
		// (documented in EXPERIMENTS.md).
		{te.XmeasStripUnderflw, 0.08},
	}
	for _, c := range checks {
		want := te.BaseXMEASTargets[c.idx]
		if math.Abs(base[c.idx]-want) > c.tol*math.Abs(want) {
			t.Errorf("%s settled at %g, want %g ±%.1f%%",
				te.XMEASNames[c.idx], base[c.idx], want, c.tol*100)
		}
	}
	// No valve may be saturated at the settled point.
	for i, v := range tp.baseXMV {
		if v <= 1 || v >= 99 {
			t.Errorf("XMV(%d) settled saturated at %g%%", i+1, v)
		}
	}
}

func TestNOCRunStaysUp(t *testing.T) {
	tp := testTemplate(t)
	run, err := tp.NewRun(RunConfig{Seed: 11, Decimate: 10})
	if err != nil {
		t.Fatal(err)
	}
	completed, err := run.RunHours(24)
	if err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatalf("NOC run tripped: %s", run.ShutdownReason())
	}
	// Both views recorded and identical under no attack.
	cd := run.Views().Controller.Data()
	pd := run.Views().Process.Data()
	if cd.Rows() == 0 || cd.Rows() != pd.Rows() {
		t.Fatalf("rows: controller %d, process %d", cd.Rows(), pd.Rows())
	}
	for i := 0; i < cd.Rows(); i += 100 {
		cr, pr := cd.RowView(i), pd.RowView(i)
		for j := range cr {
			if cr[j] != pr[j] {
				t.Fatalf("views differ at row %d col %d under NOC", i, j)
			}
		}
	}
}

func TestIDV6ShutsDownHoursAfterOnset(t *testing.T) {
	tp := testTemplate(t)
	run, err := tp.NewRun(RunConfig{
		Seed:     12,
		IDVs:     []IDVEvent{{Index: 5, StartHour: 10}},
		Decimate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	completed, err := run.RunHours(30)
	if err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("IDV(6) run did not shut down within 30 h")
	}
	if run.ShutdownReason() != "stripper liquid level low" {
		t.Errorf("shutdown reason = %q, want stripper level low", run.ShutdownReason())
	}
	elapsed := run.Hours() - 10
	if elapsed < 2 || elapsed > 12 {
		t.Errorf("shutdown %.2f h after onset, want hours (2–12)", elapsed)
	}
}

func TestXMV3AttackMatchesIDV6Signature(t *testing.T) {
	// Integrity attack closing XMV(3): the process-side A feed collapses
	// exactly like IDV(6), and the plant also shuts down on stripper level.
	tp := testTemplate(t)
	run, err := tp.NewRun(RunConfig{
		Seed: 13,
		Attacks: []attack.Spec{{
			Kind:      attack.Integrity,
			Direction: attack.ActuatorLink,
			Channel:   te.XmvAFeed,
			StartHour: 10,
			Value:     0,
		}},
		Decimate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	completed, err := run.RunHours(30)
	if err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("XMV(3) attack run did not shut down within 30 h")
	}
	if run.ShutdownReason() != "stripper liquid level low" {
		t.Errorf("shutdown reason = %q", run.ShutdownReason())
	}

	// Controller view vs process view of XMV(3) diverge during the attack:
	// the controller keeps commanding (and winds the valve open), the
	// process receives 0.
	cd := run.Views().Controller.Data()
	pd := run.Views().Process.Data()
	xmv3 := te.NumXMEAS + te.XmvAFeed
	lastRow := cd.Rows() - 1
	ctrlCmd := cd.RowView(lastRow)[xmv3]
	procCmd := pd.RowView(lastRow)[xmv3]
	if procCmd != 0 {
		t.Errorf("process-side XMV(3) = %g, want forged 0", procCmd)
	}
	if ctrlCmd <= 50 {
		t.Errorf("controller-side XMV(3) = %g, want wound up high", ctrlCmd)
	}
	// The real A-feed measurement collapses in both views (the sensor is
	// honest in this scenario).
	if got := pd.RowView(lastRow)[te.XmeasAFeed]; got > 0.05 {
		t.Errorf("A feed during actuator attack = %g, want ≈ 0", got)
	}
}

func TestXMEAS1AttackOpensValve(t *testing.T) {
	// Forging XMEAS(1)=0 toward the controller makes the flow loop open
	// XMV(3); the *real* flow rises.
	tp := testTemplate(t)
	run, err := tp.NewRun(RunConfig{
		Seed: 14,
		Attacks: []attack.Spec{{
			Kind:      attack.Integrity,
			Direction: attack.SensorLink,
			Channel:   te.XmeasAFeed,
			StartHour: 2,
			Value:     0,
		}},
		Decimate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunHours(4); err != nil {
		t.Fatal(err)
	}
	cd := run.Views().Controller.Data()
	pd := run.Views().Process.Data()
	last := cd.Rows() - 1
	if got := cd.RowView(last)[te.XmeasAFeed]; got != 0 {
		t.Errorf("controller-view XMEAS(1) = %g, want forged 0", got)
	}
	baseA := tp.BaseXMEAS()[te.XmeasAFeed]
	if got := pd.RowView(last)[te.XmeasAFeed]; got < 1.5*baseA {
		t.Errorf("process-view XMEAS(1) = %g, want raised well above base %g", got, baseA)
	}
	xmv3 := te.NumXMEAS + te.XmvAFeed
	if got := pd.RowView(last)[xmv3]; got < 90 {
		t.Errorf("XMV(3) = %g, want driven toward 100", got)
	}
}

func TestDoSFreezesProcessSideXMV(t *testing.T) {
	tp := testTemplate(t)
	run, err := tp.NewRun(RunConfig{
		Seed: 15,
		Attacks: []attack.Spec{{
			Kind:      attack.DoS,
			Direction: attack.ActuatorLink,
			Channel:   te.XmvAFeed,
			StartHour: 2,
		}},
		Decimate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunHours(4); err != nil {
		t.Fatal(err)
	}
	pd := run.Views().Process.Data()
	xmv3 := te.NumXMEAS + te.XmvAFeed
	// All process-side XMV(3) samples after onset carry the same frozen
	// value.
	sps := int(3600 / 4.5) // samples per hour at the 4.5 s test step
	frozen := pd.RowView(2*sps + 5)[xmv3]
	for i := 2*sps + 5; i < pd.Rows(); i += 50 {
		if pd.RowView(i)[xmv3] != frozen {
			t.Fatalf("process-side XMV(3) changed during DoS at row %d", i)
		}
	}
	// The controller side keeps moving (noise rejection attempts).
	cd := run.Views().Controller.Data()
	varied := false
	for i := 2*sps + 5; i < cd.Rows(); i += 50 {
		if cd.RowView(i)[xmv3] != frozen {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("controller-side XMV(3) never moved during DoS")
	}
}

func TestRunConfigValidation(t *testing.T) {
	tp := testTemplate(t)
	if _, err := tp.NewRun(RunConfig{IDVs: []IDVEvent{{Index: 99}}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad IDV index: want ErrBadConfig, got %v", err)
	}
	if _, err := tp.NewRun(RunConfig{IDVs: []IDVEvent{{Index: 1, StartHour: 5, EndHour: 4}}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad IDV window: want ErrBadConfig, got %v", err)
	}
	if _, err := tp.NewRun(RunConfig{Attacks: []attack.Spec{{Kind: 99}}}); err == nil {
		t.Error("bad attack spec accepted")
	}
}

func TestRunsWithSameSeedIdentical(t *testing.T) {
	tp := testTemplate(t)
	mk := func() []float64 {
		run, err := tp.NewRun(RunConfig{Seed: 77, Decimate: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.RunHours(1); err != nil {
			t.Fatal(err)
		}
		d := run.Views().Process.Data()
		return d.RowView(d.Rows() - 1)
	}
	a, b := mk(), mk()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("same-seed runs differ at col %d: %g vs %g", j, a[j], b[j])
		}
	}
}
