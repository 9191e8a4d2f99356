package plantctl

import (
	"fmt"

	"pcsmon/internal/te"
)

// Default setpoints for the decentralized layer, matching the Downs–Vogel
// base case (see te.BaseXMEASTargets).
const (
	spAFeed    = 0.25052 // kscmh
	spDFeed    = 3664.0  // kg/h
	spEFeed    = 4509.3  // kg/h
	spACFeed   = 9.3477  // kscmh
	spReactorP = 2705.0  // kPa
	spSepLevel = 50.0    // %
	spProduct  = 22.949  // m³/h
	spReactorT = 120.40  // °C
	spSepT     = 80.109  // °C
	spStripT   = 65.731  // °C
	spFeedAPct = 32.188  // mol% A in reactor feed
	trimClamp  = 0.06    // stripper-level production trim: ±6 %
	trimAClamp = 0.60    // composition trim on the A-feed setpoint: ±60 %

	// Reactor-pressure override (Ricker-style): above overridePress the
	// feed setpoints are scaled down proportionally, to overrideFloor at
	// the steepest. This trades production for pressure containment — the
	// mechanism that turns a lost reactant into a stripper-level shutdown.
	overridePress = 2880.0 // kPa
	overrideGain  = 0.003  // feed scale reduction per kPa above threshold
	overrideFloor = 0.5
	overrideTau   = 0.05 // h, smoothing of the override action

	// The pressure loop starts near the reduced-order plant's natural
	// operating pressure and is retargeted to the settled value after
	// warmup; holding the Downs–Vogel 2705 kPa would demand a purge far
	// beyond what the material balance of the surrogate loop can afford.
	spReactorPInit = 2845.0
)

// TEController is the decentralized PI layer for the TE plant. One call to
// Step per sample: it reads the (possibly forged) XMEAS vector and returns
// the 12 XMV commands.
//
// Loop structure (Ricker-style pairings; see DESIGN.md):
//
//	FC1  XMEAS(1) → XMV(3)   A feed flow        (SP trimmed by CC13)
//	FC2  XMEAS(2) → XMV(1)   D feed flow
//	FC3  XMEAS(3) → XMV(2)   E feed flow
//	FC4  XMEAS(4) → XMV(4)   A+C feed flow
//	PC5  XMEAS(7) → XMV(6)   reactor pressure via purge
//	LC6  XMEAS(12) → XMV(7)  separator level
//	FC7  XMEAS(17) → XMV(8)  production (stripper underflow) flow
//	LC8  XMEAS(15) → FC7.SP  stripper level → production trim (slow, clamped)
//	TC9  XMEAS(9) → XMV(10)  reactor temperature via cooling water
//	TC10 XMEAS(11) → XMV(11) separator temperature via condenser CW
//	TC11 XMEAS(18) → XMV(9)  stripper temperature via steam
//	CC13 XMEAS(23) → FC1.SP  %A in reactor feed → A feed trim (slow, clamped)
//	XMV(5), XMV(12) held at base (recycle valve, agitator).
//
// The reactor level is self-regulating in the reduced-order plant and has
// no dedicated loop.
type TEController struct {
	fcA, fcD, fcE, fcAC *PI
	pc                  *PI
	lcSep               *PI
	fcProd              *PI
	lcStrip             *PI
	tcReact, tcSep      *PI
	tcStrip             *PI
	ccFeedA             *PI

	spACenter    float64 // center of the A-feed setpoint trim range
	spProdCenter float64 // center of the production setpoint trim range
	override     float64 // filtered feed-scale override in [overrideFloor, 1]
	out          [te.NumXMV]float64
}

// NewTEController builds the layer with base-case setpoints and bumpless
// initial outputs.
func NewTEController() (*TEController, error) {
	c := &TEController{spACenter: spAFeed, spProdCenter: spProduct, override: 1}
	for i := 0; i < te.NumXMV; i++ {
		c.out[i] = te.BaseXMV[i]
	}
	var err error
	mk := func(kc, ti, sp, bias float64) *PI {
		if err != nil {
			return nil
		}
		var pi *PI
		pi, err = NewPI(kc, ti, sp, 0, 100, bias)
		return pi
	}
	// Flow loops: tight on the big feeds; the A-feed loop is deliberately
	// moderate (its valve winds over minutes, not seconds, matching the
	// behaviour of Ricker's strategy that the paper's Figure 4 profiles
	// reflect).
	c.fcA = mk(15, 0.05, spAFeed, te.BaseXMV[te.XmvAFeed])
	c.fcD = mk(0.008, 0.01, spDFeed, te.BaseXMV[te.XmvDFeed])
	c.fcE = mk(0.006, 0.01, spEFeed, te.BaseXMV[te.XmvEFeed])
	c.fcAC = mk(3.0, 0.01, spACFeed, te.BaseXMV[te.XmvACFeed])
	// Pressure → feed-scale (Ricker's structure): gas excess in the loop is
	// the small difference of two large rates (fresh feed minus reaction
	// consumption), so a purge-based pressure loop inevitably rails the
	// purge and bleeds reactants; trimming the feeds instead acts on the
	// excess directly. Output is a dimensionless multiplier around 1.
	// Direct acting: pressure above setpoint gives a negative error and a
	// sub-unity feed scale.
	if err == nil {
		c.pc, err = NewPI(0.0005, 1.5, spReactorPInit, 0.70, 1.15, 1.0)
	}
	// Separator level: reverse acting (high level → open underflow valve).
	c.lcSep = mk(-1.0, 2.0, spSepLevel, te.BaseXMV[te.XmvSepFlow])
	// Production flow.
	c.fcProd = mk(1.0, 0.02, spProduct, te.BaseXMV[te.XmvStripFlow])
	// Stripper level → production trim: a PI on a dimensionless trim in
	// [−trimClamp, +trimClamp]; low level (positive error) gives a positive
	// trim, which Step subtracts from the production setpoint.
	if err == nil {
		c.lcStrip, err = NewPI(0.002, 3.0, 50.0, -trimClamp, trimClamp, 0)
	}
	// Temperature loops: reverse acting for cooling, direct for steam.
	c.tcReact = mk(-8.0, 0.3, spReactorT, te.BaseXMV[te.XmvReactorCW])
	c.tcSep = mk(-4.0, 0.5, spSepT, te.BaseXMV[te.XmvCondCW])
	c.tcStrip = mk(2.0, 0.5, spStripT, te.BaseXMV[te.XmvSteam])
	// Feed-composition trim on the A-feed setpoint (dimensionless). Stream
	// 1 is pure A with a ×4 valve range — the one real handle on the
	// loop's A inventory (Ricker's yA loop) — so the trim gets genuine
	// authority.
	if err == nil {
		c.ccFeedA, err = NewPI(0.02, 2.0, spFeedAPct, -trimAClamp, trimAClamp, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("control: building TE layer: %w", err)
	}
	return c, nil
}

// Step consumes one XMEAS sample (len 41) and the interval dt in hours and
// returns the 12 XMV commands. The returned slice is freshly allocated;
// StepInto is the reuse variant for per-step loops.
func (c *TEController) Step(xmeas []float64, dt float64) ([]float64, error) {
	return c.StepInto(xmeas, dt, nil)
}

// StepInto is Step writing the commands into dst when its capacity
// suffices (otherwise into a fresh slice), returning the filled slice.
func (c *TEController) StepInto(xmeas []float64, dt float64, dst []float64) ([]float64, error) {
	if len(xmeas) != te.NumXMEAS {
		return nil, fmt.Errorf("control: xmeas len %d != %d: %w", len(xmeas), te.NumXMEAS, ErrBadConfig)
	}
	// Emergency reactor-pressure override: approaching the trip limit
	// scales every feed setpoint down hard (smoothed to avoid chattering
	// on sensor noise). The continuous pressure PI below handles normal
	// regulation; this layer only engages near the interlock.
	target := 1.0
	if pv := xmeas[te.XmeasReactorPress]; pv > overridePress {
		target = 1 - overrideGain*(pv-overridePress)
		if target < overrideFloor {
			target = overrideFloor
		}
	}
	if dt > 0 && overrideTau > 0 {
		a := dt / overrideTau
		if a > 1 {
			a = 1
		}
		c.override += a * (target - c.override)
	} else {
		c.override = target
	}

	// Continuous pressure control via the feeds (see NewTEController).
	pcScale := c.pc.Update(xmeas[te.XmeasReactorPress], dt)
	scale := pcScale
	if c.override < scale {
		scale = c.override
	}

	// Slow cascades next: they move setpoints of the fast loops.
	// Stripper level low → error (50 − lvl) > 0 → trim > 0 → reduce the
	// production setpoint.
	trim := c.lcStrip.Update(xmeas[te.XmeasStripLevel], dt)
	c.fcProd.SetSP(c.spProdCenter * (1 - trim))
	// Feed %A low → error > 0 → trim > 0 → raise the A-feed setpoint.
	trimA := c.ccFeedA.Update(xmeas[te.XmeasFeedA], dt)
	c.fcA.SetSP(c.spACenter * (1 + trimA) * scale)
	c.fcD.SetSP(spDFeed * scale)
	c.fcE.SetSP(spEFeed * scale)
	c.fcAC.SetSP(spACFeed * scale)

	c.out[te.XmvAFeed] = c.fcA.Update(xmeas[te.XmeasAFeed], dt)
	c.out[te.XmvDFeed] = c.fcD.Update(xmeas[te.XmeasDFeed], dt)
	c.out[te.XmvEFeed] = c.fcE.Update(xmeas[te.XmeasEFeed], dt)
	c.out[te.XmvACFeed] = c.fcAC.Update(xmeas[te.XmeasACFeed], dt)
	// The purge valve holds its base position: purge flow rises with
	// separator pressure (self-regulating) and the inert fraction finds
	// its own level, per the Ricker pairing rationale.
	c.out[te.XmvPurge] = te.BaseXMV[te.XmvPurge]
	c.out[te.XmvSepFlow] = c.lcSep.Update(xmeas[te.XmeasSepLevel], dt)
	c.out[te.XmvStripFlow] = c.fcProd.Update(xmeas[te.XmeasStripUnderflw], dt)
	c.out[te.XmvReactorCW] = c.tcReact.Update(xmeas[te.XmeasReactorTemp], dt)
	c.out[te.XmvCondCW] = c.tcSep.Update(xmeas[te.XmeasSepTemp], dt)
	c.out[te.XmvSteam] = c.tcStrip.Update(xmeas[te.XmeasStripTemp], dt)
	c.out[te.XmvRecycle] = te.BaseXMV[te.XmvRecycle]
	c.out[te.XmvAgitator] = te.BaseXMV[te.XmvAgitator]

	if cap(dst) >= te.NumXMV {
		dst = dst[:te.NumXMV]
	} else {
		dst = make([]float64, te.NumXMV)
	}
	copy(dst, c.out[:])
	return dst, nil
}

// Outputs returns a copy of the last commanded XMV vector.
func (c *TEController) Outputs() []float64 {
	out := make([]float64, te.NumXMV)
	copy(out, c.out[:])
	return out
}

// Clone returns an independent deep copy of the controller, including every
// loop's integrator state and the trim centers — the warm-start mechanism
// for experiment runs.
func (c *TEController) Clone() *TEController {
	cp := *c
	cp.fcA = c.fcA.Clone()
	cp.fcD = c.fcD.Clone()
	cp.fcE = c.fcE.Clone()
	cp.fcAC = c.fcAC.Clone()
	cp.pc = c.pc.Clone()
	cp.lcSep = c.lcSep.Clone()
	cp.fcProd = c.fcProd.Clone()
	cp.lcStrip = c.lcStrip.Clone()
	cp.tcReact = c.tcReact.Clone()
	cp.tcSep = c.tcSep.Clone()
	cp.tcStrip = c.tcStrip.Clone()
	cp.ccFeedA = c.ccFeedA.Clone()
	return &cp
}

// Retarget re-centers the slow loops on the plant's settled operating point
// (called once after warmup): the feed-composition, pressure and production
// setpoints become the measured values and the corresponding integrators
// are cleared, so trims hold around zero instead of leaning on their
// clamps. The fast loops keep their Downs–Vogel setpoints, which they
// achieve exactly.
func (c *TEController) Retarget(xmeas []float64) error {
	if len(xmeas) != te.NumXMEAS {
		return fmt.Errorf("control: xmeas len %d != %d: %w", len(xmeas), te.NumXMEAS, ErrBadConfig)
	}
	c.ccFeedA.SetSP(xmeas[te.XmeasFeedA])
	c.ccFeedA.Reset()
	c.spACenter = xmeas[te.XmeasAFeed]
	c.pc.SetSP(xmeas[te.XmeasReactorPress])
	c.pc.Reset()
	c.spProdCenter = xmeas[te.XmeasStripUnderflw]
	c.lcStrip.Reset()
	return nil
}
