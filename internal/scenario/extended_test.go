package scenario

import (
	"testing"

	"pcsmon/internal/core"
	"pcsmon/internal/plant"
	"pcsmon/internal/te"
)

// TestExtendedScenarios exercises the situations beyond the paper's four:
// more disturbances, a sensor-side DoS, and a bias attack. Requirements are
// deliberately looser than for the paper scenarios — these are extensions —
// but every attack must at least be detected, and no attack may be
// classified as a plain disturbance in a majority of runs.
func TestExtendedScenarios(t *testing.T) {
	exp, _ := fixture(t)
	for _, sc := range ExtendedScenarios(testOnsetHour) {
		sc := sc
		t.Run(sc.Key, func(t *testing.T) {
			res, err := exp.Run(sc, 2)
			if err != nil {
				t.Fatal(err)
			}
			if res.DetectionRate == 0 {
				t.Fatalf("scenario never detected (verdicts %v)", res.Verdicts)
			}
			if sc.Expected == core.VerdictIntegrityAttack || sc.Expected == core.VerdictDoS {
				if n := res.Verdicts[core.VerdictDisturbance]; n > len(res.Runs)/2 {
					t.Errorf("attack classified as disturbance in %d/%d runs", n, len(res.Runs))
				}
			}
		})
	}
}

// TestNOCScenarioStaysNormal: a pure NOC "scenario" must produce
// VerdictNormal — the classifier-level false alarm check.
func TestNOCScenarioStaysNormal(t *testing.T) {
	exp, _ := fixture(t)
	res, err := exp.Run(Scenario{
		Key:         "noc",
		Name:        "normal operation",
		Expected:    core.VerdictNormal,
		AttackedVar: -1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Autocorrelated observations make occasional 3-in-a-row exceedances
	// possible; tolerate at most one false alarm in three NOC runs, and
	// any false alarm must at least not be classified as an attack.
	if res.Correct < 2.0/3.0 {
		t.Errorf("NOC runs misclassified: %v", res.Verdicts)
	}
	if res.Verdicts[core.VerdictIntegrityAttack] > 0 || res.Verdicts[core.VerdictDoS] > 0 {
		t.Errorf("NOC classified as an attack: %v", res.Verdicts)
	}
}

// TestBiasAttackSignFlip: the reactor-temperature bias attack (sensor reads
// 3 °C low → controller heats the real reactor) must show the sign-flip
// signature on XMEAS(9).
func TestBiasAttackSignFlip(t *testing.T) {
	exp, _ := fixture(t)
	var bias Scenario
	for _, sc := range ExtendedScenarios(testOnsetHour) {
		if sc.Key == "xmeas9-bias" {
			bias = sc
		}
	}
	if bias.Key == "" {
		t.Fatal("xmeas9-bias scenario missing")
	}
	res, err := exp.Run(bias, 2)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, run := range res.Runs {
		if run.Report.Verdict == core.VerdictIntegrityAttack &&
			run.Report.AttackedVar == te.XmeasReactorTemp {
			hits++
		}
	}
	if hits == 0 {
		t.Errorf("bias attack never localized to XMEAS(9); verdicts %v", res.Verdicts)
	}
}

// TestARLSummaryStability: rerunning a scenario with the same seeds must
// reproduce the aggregate numbers exactly (full determinism end to end).
func TestARLSummaryStability(t *testing.T) {
	exp, _ := fixture(t)
	sc := PaperScenarios(testOnsetHour)[0]
	r1, err := exp.Run(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exp.Run(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanRunLength != r2.MeanRunLength || r1.DetectionRate != r2.DetectionRate {
		t.Errorf("non-deterministic aggregates: %v/%v vs %v/%v",
			r1.MeanRunLength, r1.DetectionRate, r2.MeanRunLength, r2.DetectionRate)
	}
	for j := range r1.PooledOMEDACtrl {
		if r1.PooledOMEDACtrl[j] != r2.PooledOMEDACtrl[j] {
			t.Fatalf("pooled oMEDA differs at %d", j)
		}
	}
}

func runCfg(sc Scenario, seed int64, decimate int) plant.RunConfig {
	return plant.RunConfig{
		Seed:     seed,
		IDVs:     sc.IDVs,
		Attacks:  sc.Attacks,
		Decimate: decimate,
	}
}
