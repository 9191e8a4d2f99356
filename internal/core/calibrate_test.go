package core

import (
	"math"
	"testing"
)

// TestCalibrateConstantChannels calibrates on the BenchmarkCalibrate
// matrix with two channels held at exactly one value each, as the TE
// plant holds XMV(5) and XMV(6). A channel that never moves must scale
// to 0 on every calibration row and add nothing to Q: the mean
// calibration Q is then θ₁, the sum of the residual eigenvalues (times
// (N−1)/N), and the in-sample Q exceedance of the 99 % limit stays near
// 1 %.
func TestCalibrateConstantChannels(t *testing.T) {
	noc := syntheticCalibration(t)
	held := map[int]float64{45: 22.21, 46: 40.064}
	for i := 0; i < noc.Rows(); i++ {
		row := noc.RowView(i)
		for j, v := range held {
			row[j] = v
		}
	}
	for _, cfg := range []Config{{}, {Components: 20}} {
		sys, err := Calibrate(noc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mon := sys.Monitor()
		var sumQ float64
		over := 0
		for i := 0; i < noc.Rows(); i++ {
			row := noc.RowView(i)
			scaled, err := mon.Scaler().ApplyRow(row, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range held {
				if scaled[j] != 0 {
					t.Fatalf("components %d: row %d scales held channel %d to %v, want 0", cfg.Components, i, j, scaled[j])
				}
			}
			st, err := mon.Compute(row)
			if err != nil {
				t.Fatal(err)
			}
			sumQ += st.Q
			if st.Q > mon.Limits().Q99 {
				over++
			}
		}
		var theta1 float64
		for _, l := range mon.Model().ResidualEigenvalues() {
			theta1 += l
		}
		meanQ := sumQ / float64(noc.Rows())
		if math.Abs(meanQ-theta1) > 1e-3*theta1 {
			t.Errorf("components %d: mean calibration Q %.6g, θ₁ %.6g", cfg.Components, meanQ, theta1)
		}
		if frac := float64(over) / float64(noc.Rows()); frac > 0.02 {
			t.Errorf("components %d: %.2f %% of calibration rows exceed Q99 %.4g", cfg.Components, 100*frac, mon.Limits().Q99)
		}
	}
}
