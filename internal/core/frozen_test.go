package core

import (
	"testing"
	"time"

	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
	"pcsmon/internal/te"
)

// viewsWithFreeze builds aligned views where, after row `from`, one view's
// channel is frozen at its calibration mean while the other view drifts
// away — the hold-last-value pattern.
func (f *synthFixture) viewsWithFreeze(t *testing.T, normal, frozen int, channel int, freezeProc bool) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	pd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	means := f.sys.Monitor().Scaler().Means()
	stds := f.sys.Monitor().Scaler().Stds()
	for i := 0; i < normal+frozen; i++ {
		row := f.nocRow()
		crow := append([]float64(nil), row...)
		prow := append([]float64(nil), row...)
		if i >= normal {
			drift := means[channel] + (2.0+0.02*float64(i-normal))*stds[channel]
			if freezeProc {
				prow[channel] = means[channel] // held
				crow[channel] = drift          // the commands keep moving
			} else {
				crow[channel] = means[channel]
				prow[channel] = drift
			}
			// Give the detector something to fire on in both views: a
			// mild co-moving deviation elsewhere.
			crow[5] += 8 * stds[5]
			prow[5] += 8 * stds[5]
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

func TestFrozenProcessSideDetected(t *testing.T) {
	f := newSynthFixture(t, 301)
	xmv := te.NumXMEAS + te.XmvAFeed
	cd, pd := f.viewsWithFreeze(t, 120, 60, xmv, true)
	rep, err := f.sys.AnalyzeViews(cd, pd, 120, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range rep.FrozenProc {
		if j == xmv {
			found = true
		}
	}
	if !found {
		t.Errorf("FrozenProc = %v, want to include XMV(3)=%d", rep.FrozenProc, xmv)
	}
	if rep.Verdict != VerdictDoS {
		t.Errorf("verdict = %v (%s), want dos-attack", rep.Verdict, rep.Explanation)
	}
	if rep.AttackedVar != xmv {
		t.Errorf("attacked var = %d, want %d", rep.AttackedVar, xmv)
	}
}

func TestFrozenControllerSideDetected(t *testing.T) {
	f := newSynthFixture(t, 302)
	const xmeas = 3
	cd, pd := f.viewsWithFreeze(t, 120, 60, xmeas, false)
	rep, err := f.sys.AnalyzeViews(cd, pd, 120, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range rep.FrozenCtrl {
		if j == xmeas {
			found = true
		}
	}
	if !found {
		t.Errorf("FrozenCtrl = %v, want to include %d", rep.FrozenCtrl, xmeas)
	}
	if rep.Verdict != VerdictDoS {
		t.Errorf("verdict = %v (%s), want dos-attack (sensor link)", rep.Verdict, rep.Explanation)
	}
}

func TestDivergedChannelsRecorded(t *testing.T) {
	f := newSynthFixture(t, 303)
	// A channel that splits between views without freezing: both views
	// keep variance but drift apart.
	cd, pd := f.viewsWithShift(t, 120, 60,
		map[int]float64{7: +6, 5: 8},
		map[int]float64{7: -6, 5: 8})
	rep, err := f.sys.AnalyzeViews(cd, pd, 120, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range rep.Diverged {
		if j == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("Diverged = %v, want to include 7", rep.Diverged)
	}
	if rep.Verdict != VerdictIntegrityAttack {
		t.Errorf("verdict = %v (%s), want integrity-attack", rep.Verdict, rep.Explanation)
	}
}

func TestNoFreezeEvidenceOnIdenticalViews(t *testing.T) {
	f := newSynthFixture(t, 304)
	shift := map[int]float64{2: -10}
	cd, pd := f.viewsWithShift(t, 120, 60, shift, shift)
	rep, err := f.sys.AnalyzeViews(cd, pd, 120, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FrozenProc) != 0 || len(rep.FrozenCtrl) != 0 || len(rep.Diverged) != 0 {
		t.Errorf("identical views produced evidence: frozen %v/%v diverged %v",
			rep.FrozenProc, rep.FrozenCtrl, rep.Diverged)
	}
	if rep.Verdict != VerdictDisturbance {
		t.Errorf("verdict = %v, want disturbance", rep.Verdict)
	}
}

func TestFreezeFarFromMeanIsNotDoS(t *testing.T) {
	// A channel held constant far from its calibration mean is an
	// integrity payload (forged constant), not a hold-last-value DoS.
	f := newSynthFixture(t, 305)
	cd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	pd, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	means := f.sys.Monitor().Scaler().Means()
	stds := f.sys.Monitor().Scaler().Stds()
	const ch = 4
	for i := 0; i < 180; i++ {
		row := f.nocRow()
		crow := append([]float64(nil), row...)
		prow := append([]float64(nil), row...)
		if i >= 120 {
			// Forged constant at −10σ in the controller view; the real
			// channel responds upward.
			crow[ch] = means[ch] - 10*stds[ch]
			prow[ch] = means[ch] + (3+0.05*float64(i-120))*stds[ch]
		}
		if err := cd.Append(crow); err != nil {
			t.Fatal(err)
		}
		if err := pd.Append(prow); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := f.sys.AnalyzeViews(cd, pd, 120, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range rep.FrozenCtrl {
		if j == ch {
			t.Errorf("far-from-mean constant flagged as frozen (DoS) on channel %d", ch)
		}
	}
	if rep.Verdict != VerdictIntegrityAttack {
		t.Errorf("verdict = %v (%s), want integrity-attack", rep.Verdict, rep.Explanation)
	}
}

// TestConstantChannelCarriesNoEvidence: a channel that never moved in
// calibration (TE holds XMV(5) at 22.21 and XMV(12) at 50) has no
// calibration spread to judge a freeze or a divergence against, so it must
// never enter FrozenProc, FrozenCtrl or Diverged — even when one view holds
// it while the other drifts away, the pattern that flags a live channel.
func TestConstantChannelCarriesNoEvidence(t *testing.T) {
	f := newSynthFixture(t, 305)
	held := map[int]float64{te.NumXMEAS + 4: 22.21, te.NumXMEAS + 11: 50}
	holdRow := func() []float64 {
		row := f.nocRow()
		for j, c := range held {
			row[j] = c
		}
		return row
	}
	cal, err := dataset.New(historian.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := cal.Append(holdRow()); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := Calibrate(cal, Config{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	stds := sys.Monitor().Scaler().Stds()
	const normal, anomalous = 120, 60
	for _, freezeProc := range []bool{true, false} {
		cd, err := dataset.New(historian.VarNames())
		if err != nil {
			t.Fatal(err)
		}
		pd, err := dataset.New(historian.VarNames())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < normal+anomalous; i++ {
			crow := holdRow()
			prow := append([]float64(nil), crow...)
			if i >= normal {
				for j, c := range held {
					drift := c + 2 + 0.02*float64(i-normal)
					if freezeProc {
						crow[j] = drift
					} else {
						prow[j] = drift
					}
				}
				crow[5] += 8 * stds[5]
				prow[5] += 8 * stds[5]
			}
			if err := cd.Append(crow); err != nil {
				t.Fatal(err)
			}
			if err := pd.Append(prow); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sys.AnalyzeViews(cd, pd, normal, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Controller.Detected && !rep.Process.Detected {
			t.Fatalf("freezeProc %v: no detection, so no evidence window was judged", freezeProc)
		}
		for name, cols := range map[string][]int{"FrozenProc": rep.FrozenProc, "FrozenCtrl": rep.FrozenCtrl, "Diverged": rep.Diverged} {
			for _, j := range cols {
				if _, ok := held[j]; ok {
					t.Errorf("freezeProc %v: %s lists %s, constant in calibration", freezeProc, name, historian.VarName(j))
				}
			}
		}
	}
}
