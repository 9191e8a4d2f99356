package pcsmon_test

import (
	"errors"
	"io"
	"testing"
	"time"

	"pcsmon"
)

// TestStreamFeed drives the package-level StreamAdaptive facade, with the
// adaptive layer off, over an in-memory single-view feed.
func TestStreamFeed(t *testing.T) {
	l := testLab(t)
	// Fifty identical NOC rows then EOF. The calibration mean is the
	// steady operating point.
	_, means, _ := l.System.CalibrationMoments()
	row := append([]float64(nil), means...)
	n := 0
	rep, err := pcsmon.StreamAdaptive(l.System, 0, 9*time.Second, pcsmon.AdaptiveOptions{}, func() (ctrl, proc []float64, err error) {
		if n >= 50 {
			return nil, nil, io.EOF
		}
		n++
		return row, row, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != pcsmon.VerdictNormal {
		t.Errorf("steady-state feed classified %v (%s)", rep.Verdict, rep.Explanation)
	}
}

// TestLabConfigValidation covers the facade's config validation satellite.
func TestLabConfigValidation(t *testing.T) {
	cases := []pcsmon.LabConfig{
		{StepSeconds: -3},
		{WarmupHours: -1},
		{CalibrationRuns: -2},
		{CalibrationHours: -5},
		{Decimate: -1},
	}
	for _, cfg := range cases {
		if _, err := pcsmon.NewLab(cfg); !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%+v: want ErrBadConfig, got %v", cfg, err)
		}
	}
}
