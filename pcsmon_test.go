package pcsmon_test

import (
	"sync"
	"testing"

	"pcsmon"
	"pcsmon/internal/historian"
)

// The lab fixture is shared: template warmup plus calibration dominate the
// cost.
var (
	labOnce sync.Once
	labErr  error
	lab     *pcsmon.Lab
)

func testLab(t *testing.T) *pcsmon.Lab {
	t.Helper()
	labOnce.Do(func() {
		lab, labErr = pcsmon.NewLab(pcsmon.LabConfig{
			CalibrationRuns:  3,
			CalibrationHours: 12,
			Seed:             5,
		})
	})
	if labErr != nil {
		t.Fatalf("NewLab: %v", labErr)
	}
	return lab
}

func TestLabWorkflowDisturbance(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.PaperScenarios(3)[0] // IDV(6)
	res, err := l.RunScenarioFor(sc, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate < 1 {
		t.Fatalf("detection rate %.2f", res.DetectionRate)
	}
	for i, run := range res.Runs {
		if run.Report.Verdict != pcsmon.VerdictDisturbance {
			t.Errorf("run %d verdict %v, want disturbance (%s)",
				i, run.Report.Verdict, run.Report.Explanation)
		}
	}
}

func TestLabWorkflowAttackLocalization(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.PaperScenarios(3)[1] // integrity on XMV(3)
	res, err := l.RunScenarioFor(sc, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range res.Runs {
		if run.Report.Verdict != pcsmon.VerdictIntegrityAttack {
			t.Errorf("run %d verdict %v (%s)", i, run.Report.Verdict, run.Report.Explanation)
			continue
		}
		if got := pcsmon.VarName(run.Report.AttackedVar); got != "XMV(3)" {
			t.Errorf("run %d localized %s, want XMV(3)", i, got)
		}
	}
}

func TestScenarioCatalogues(t *testing.T) {
	if got := len(pcsmon.PaperScenarios(10)); got != 4 {
		t.Errorf("paper scenarios: %d, want 4", got)
	}
	for _, sc := range pcsmon.PaperScenarios(10) {
		if sc.Key == "" || sc.Name == "" {
			t.Errorf("scenario with empty identity: %+v", sc)
		}
	}
}

func TestVarNameBounds(t *testing.T) {
	if pcsmon.VarName(0) != "XMEAS(1)" {
		t.Errorf("VarName(0) = %q", pcsmon.VarName(0))
	}
	if pcsmon.VarName(historian.NumVars-1) != "XMV(12)" {
		t.Errorf("VarName(last) = %q", pcsmon.VarName(historian.NumVars-1))
	}
}

func TestNewLabPropagatesErrors(t *testing.T) {
	if _, err := pcsmon.NewLab(pcsmon.LabConfig{StepSeconds: -3}); err == nil {
		t.Error("negative step accepted")
	}
}
