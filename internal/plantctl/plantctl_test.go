package plantctl

import (
	"errors"
	"math"
	"testing"

	"pcsmon/internal/te"
)

func TestNewPIValidation(t *testing.T) {
	if _, err := NewPI(1, 1, 0, 10, 5, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("inverted clamp: want ErrBadConfig, got %v", err)
	}
	if _, err := NewPI(1, -1, 0, 0, 100, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative Ti: want ErrBadConfig, got %v", err)
	}
	if _, err := NewPI(0, 1, 0, 0, 100, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero gain: want ErrBadConfig, got %v", err)
	}
}

func TestPIProportionalAction(t *testing.T) {
	pi, err := NewPI(2, 0, 10, -100, 100, 50) // P-only
	if err != nil {
		t.Fatal(err)
	}
	// pv below SP by 3 → out = bias + 2·3 = 56.
	if got := pi.Update(7, 0.01); got != 56 {
		t.Errorf("P action = %g, want 56", got)
	}
	// Reverse acting with negative gain.
	rev, err := NewPI(-2, 0, 10, -100, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := rev.Update(7, 0.01); got != 44 {
		t.Errorf("reverse P action = %g, want 44", got)
	}
}

func TestPIIntegralEliminatesOffset(t *testing.T) {
	pi, err := NewPI(1, 0.1, 10, -1000, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simple first-order plant: pv' = (out − pv)/τ.
	pv := 0.0
	dt := 0.001
	for i := 0; i < 20000; i++ {
		out := pi.Update(pv, dt)
		pv += dt / 0.05 * (out - pv)
	}
	if math.Abs(pv-10) > 0.01 {
		t.Errorf("closed-loop pv = %g, want 10 (integral action)", pv)
	}
}

func TestPIClampAndAntiWindup(t *testing.T) {
	pi, err := NewPI(1, 0.05, 100, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Huge persistent error: output clamps at 10; the integral must not
	// wind up beyond what the clamp can deliver.
	for i := 0; i < 1000; i++ {
		if got := pi.Update(0, 0.01); got != 10 {
			t.Fatalf("clamped output = %g, want 10", got)
		}
	}
	// Error reverses: with conditional integration, the output must come
	// off the clamp quickly (within a few steps), not after unwinding a
	// huge accumulator.
	steps := 0
	for ; steps < 50; steps++ {
		if pi.Update(200, 0.01) < 10 {
			break
		}
	}
	if steps >= 50 {
		t.Error("output stuck at clamp: integral wound up")
	}
}

func TestPISettersAndClone(t *testing.T) {
	pi, err := NewPI(1, 1, 5, 0, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	pi.SetSP(7)
	if pi.sp != 7 {
		t.Errorf("SP = %g", pi.sp)
	}
	pi.Update(0, 0.5) // accumulate some integral
	clone := pi.Clone()
	// Diverge the original; the clone must keep its own state.
	pi.Reset()
	pi.bias = 0
	o1 := pi.Update(7, 0)
	o2 := clone.Update(7, 0)
	if o1 == o2 {
		t.Error("clone shares state with original")
	}
}

func TestTEControllerHoldsBaseAtSetpoints(t *testing.T) {
	c, err := NewTEController()
	if err != nil {
		t.Fatal(err)
	}
	// Feeding exactly the base-case measurements: commands stay near the
	// base XMV positions (biases make startup bumpless).
	xmeas := make([]float64, te.NumXMEAS)
	copy(xmeas, te.BaseXMEASTargets[:])
	// Give the pressure loop its initial setpoint so it holds too.
	xmeas[te.XmeasReactorPress] = spReactorPInit
	cmds, err := c.Step(xmeas, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cmds {
		if math.Abs(v-te.BaseXMV[i]) > 1.0 {
			t.Errorf("XMV(%d) = %g, want ≈ %g at base conditions", i+1, v, te.BaseXMV[i])
		}
	}
}

func TestTEControllerRespondsToLowAFlow(t *testing.T) {
	c, err := NewTEController()
	if err != nil {
		t.Fatal(err)
	}
	xmeas := make([]float64, te.NumXMEAS)
	copy(xmeas, te.BaseXMEASTargets[:])
	xmeas[te.XmeasReactorPress] = spReactorPInit
	xmeas[te.XmeasAFeed] = 0 // forged or lost A feed
	var lastA float64
	// The A-feed loop is deliberately moderate: it winds over minutes.
	for i := 0; i < 4000; i++ {
		cmds, err := c.Step(xmeas, 0.0005)
		if err != nil {
			t.Fatal(err)
		}
		lastA = cmds[te.XmvAFeed]
	}
	if lastA < 99 {
		t.Errorf("A-feed valve = %g%%, want driven to ~100%% on zero flow", lastA)
	}
}

func TestTEControllerPressureOverrideCutsFeeds(t *testing.T) {
	c, err := NewTEController()
	if err != nil {
		t.Fatal(err)
	}
	xmeas := make([]float64, te.NumXMEAS)
	copy(xmeas, te.BaseXMEASTargets[:])
	xmeas[te.XmeasReactorPress] = 2960 // deep in override territory
	// Let the override filter settle.
	var cmds []float64
	for i := 0; i < 500; i++ {
		cmds, err = c.Step(xmeas, 0.0005)
		if err != nil {
			t.Fatal(err)
		}
	}
	if cmds[te.XmvDFeed] >= te.BaseXMV[te.XmvDFeed] {
		t.Errorf("D feed valve = %g, want reduced under pressure override", cmds[te.XmvDFeed])
	}
	// The purge valve holds its base position by design (Ricker pairing).
	if cmds[te.XmvPurge] != te.BaseXMV[te.XmvPurge] {
		t.Errorf("purge valve = %g, want fixed at base", cmds[te.XmvPurge])
	}
}

func TestTEControllerStepValidatesInput(t *testing.T) {
	c, err := NewTEController()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step([]float64{1, 2}, 0.0005); !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig, got %v", err)
	}
	if err := c.Retarget([]float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Retarget: want ErrBadConfig, got %v", err)
	}
}

func TestTEControllerCloneIndependent(t *testing.T) {
	c, err := NewTEController()
	if err != nil {
		t.Fatal(err)
	}
	xmeas := make([]float64, te.NumXMEAS)
	copy(xmeas, te.BaseXMEASTargets[:])
	clone := c.Clone()
	// Drive the original hard; the clone must not see it. The A-feed loop
	// winds over minutes, so give it time to rail.
	xmeas[te.XmeasAFeed] = 0
	for i := 0; i < 4000; i++ {
		if _, err := c.Step(xmeas, 0.0005); err != nil {
			t.Fatal(err)
		}
	}
	copy(xmeas, te.BaseXMEASTargets[:])
	xmeas[te.XmeasReactorPress] = spReactorPInit
	cmds, err := clone.Step(xmeas, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmds[te.XmvAFeed]-te.BaseXMV[te.XmvAFeed]) > 1.0 {
		t.Errorf("clone's A valve = %g, contaminated by original's state", cmds[te.XmvAFeed])
	}
	if c.Outputs()[te.XmvAFeed] < 99 {
		t.Errorf("original should be railed, got %g", c.Outputs()[te.XmvAFeed])
	}
}

func TestRetargetRecentersTrims(t *testing.T) {
	c, err := NewTEController()
	if err != nil {
		t.Fatal(err)
	}
	settled := make([]float64, te.NumXMEAS)
	copy(settled, te.BaseXMEASTargets[:])
	settled[te.XmeasFeedA] = 30.0         // settled composition differs
	settled[te.XmeasReactorPress] = 2829  // natural pressure
	settled[te.XmeasStripUnderflw] = 22.4 // settled production
	if err := c.Retarget(settled); err != nil {
		t.Fatal(err)
	}
	// At the settled point the controller should now hold position.
	cmds, err := c.Step(settled, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cmds {
		if math.Abs(v-te.BaseXMV[i]) > 2.0 {
			t.Errorf("XMV(%d) = %g, want ≈ %g after retarget", i+1, v, te.BaseXMV[i])
		}
	}
}
