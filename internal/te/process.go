package te

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Package-level sentinel errors.
var (
	// ErrBadConfig is returned for invalid configuration values.
	ErrBadConfig = errors.New("te: invalid configuration")
	// ErrBadIndex is returned for out-of-range XMV/XMEAS/IDV indices.
	ErrBadIndex = errors.New("te: index out of range")
	// ErrShutdown is returned by Step once a safety interlock has tripped.
	ErrShutdown = errors.New("te: process is shut down")
)

// Config parameterizes a Process. The zero value is valid: seed 0,
// 1.8-second steps, process and measurement noise enabled.
type Config struct {
	// Seed seeds the process noise and measurement noise generator.
	Seed int64
	// StepSeconds is the integration and sampling interval (default 1.8 s,
	// the paper's 2000-samples-per-hour cadence).
	StepSeconds float64
	// NoProcessNoise disables the slow Ornstein–Uhlenbeck input variation
	// (the Krotofil added-randomness model).
	NoProcessNoise bool
	// NoMeasurementNoise disables per-channel Gaussian sensor noise.
	NoMeasurementNoise bool
	// DiscreteAnalyzers switches the composition measurements (XMEAS
	// 23–41) from first-order lags to the original model's sample-and-hold
	// chromatographs: the feed and purge analyzers update every 6 minutes,
	// the product analyzer every 15 minutes, each holding its last reading
	// in between.
	DiscreteAnalyzers bool
}

// Model tuning constants. Volumes are loosely patterned on Downs & Vogel;
// the transport/split coefficients are calibrated so the settled operating
// point lands near the published base case (see vars.go) and the IDV(6)
// shutdown occurs hours after onset, matching the paper's Figure 3.
const (
	rGas = 8.314 // kJ/(kmol·K) — P[kPa]·V[m³] = n[kmol]·R·T[K]

	vReactorTotal = 36.8 // m³ vessel
	// vGasLoopExtra lumps the recycle piping, compressor and header volumes
	// into the reactor vapor space. Without it the pressure↔outflow
	// feedback has a ~1.5 s time constant — stiffer than any practical
	// sampling interval; with it the fastest gas mode relaxes to ~4.7 s and
	// the explicit integration is stable for sampling steps up to ~4.5 s.
	vGasLoopExtra = 60.0   // m³
	vSeparator    = 99.1   // m³
	vStripCap     = 24.0   // m³ liquid capacity (level 100 %)
	vReactLiqCap  = 10.667 // m³ liquid capacity (base 8 m³ = 75 %)
	vSepLiqCap    = 12.0   // m³ liquid capacity (base 6 m³ = 50 %)

	valveTauH = 10.0 / 3600 // valve actuator first-order lag [h]

	// Flow coefficients: flow at 100 % valve, base pressures.
	f1Max  = 45.44  // kmol/h, A feed
	f2Max  = 181.6  // kmol/h, D feed
	f3Max  = 181.5  // kmol/h, E feed
	f4Max  = 680.2  // kmol/h, A+C feed
	kRec   = 2.0513 // kmol/h per (kPa·valve-fraction), recycle
	kPurge = 0.019  // kmol/h per (kPa·valve-fraction), purge

	// Reaction rate exponents. Downs & Vogel's C exponents (~0.3) give the
	// reduced-order loop almost no composition self-correction — excess C
	// then has to leave through the purge, which also bleeds A and
	// destabilizes the material balance. The surrogate uses stronger C
	// dependence, trading kinetic fidelity for the loop-level behaviour the
	// paper's experiments actually exercise (see DESIGN.md §2).
	expR1A, expR1C, expR1D = 1.00, 0.80, 0.90
	expR2A, expR2C, expR2E = 1.00, 0.80, 1.00
	kF7                    = 20.66 // kmol/h per kPa of reactor→separator ΔP
	f10Vmax                = 66.0  // m³/h at 100 % valve, separator underflow
	f11Vmax                = 48.56 // m³/h at 100 % valve, product flow

	// Energy balance coefficients (°C/h basis; see DESIGN.md).
	heatRx     = 60.0  // adiabatic heating rate at base reaction rate
	kCoolR     = 1.282 // reactor cooling per valve-fraction per °C
	kFeedR     = 0.248 // reactor feed sensible term
	kInSep     = 2.0   // separator feed sensible term
	kCoolS     = 9.87  // condenser cooling per valve-fraction per °C
	kSteamStr  = 2.0   // stripper steam heating
	kInStr     = 1.5   // stripper feed sensible term
	kLossStr   = 4.315 // stripper ambient loss (balances the base case)
	tAmbient   = 40.0  // °C stripper loss reference
	tSteam     = 160.0 // °C steam temperature
	tFreshBase = 45.0  // °C fresh feed temperature
	tCWInBase  = 35.0  // °C cooling water inlet

	// Base temperatures (targets; settled values may differ slightly).
	tReactBase = 120.40
	tSepBase   = 80.109
	tStripBase = 65.731

	// Base reaction rates [kmol/h] used to calibrate rate constants.
	r1Base = 113.5 // A+C+D → G
	r2Base = 92.6  // A+C+E → H
	r3Base = 4.0   // A+E → F
	r4Base = 0.3   // 3D → 2F

	kscmhPerKmol = 1.0 / 44.6 // kscmh per kmol/h of gas
)

// Per-component property vectors (A..H).
var (
	// molWeight, kg/kmol (Downs & Vogel Table 2).
	molWeight = [numComp]float64{2.0, 25.4, 28.0, 32.0, 46.0, 48.0, 62.0, 76.0}
	// vmol: liquid molar volume, m³/kmol.
	vmol = [numComp]float64{0.05, 0.05, 0.05, 0.09, 0.10, 0.10, 0.105, 0.11}
	// phiVap: fraction of the reactor holdup of each component in the vapor
	// phase (lights fully vapor, heavies mostly liquid).
	phiVap = [numComp]float64{1, 1, 1, 0.95, 0.95, 0.08, 0.01, 0.005}
	// alphaVol: relative transport weight into the reactor outflow. The
	// light components live almost entirely in the large lumped gas-loop
	// volume, so their per-mole weight is low; the heavies' weights are
	// calibrated so the base-case product make leaves at the base level.
	alphaVol = [numComp]float64{3.63, 3.34, 3.04, 0.667, 0.865, 0.8, 0.42, 0.45}
	// svSep: fraction of the separator inflow of each component leaving as
	// vapor (recycle+purge) at the base separator temperature.
	svSep = [numComp]float64{0.998, 0.997, 0.995, 0.88, 0.80, 0.30, 0.012, 0.006}
	// svSepT: sensitivity of the vapor split to separator temperature
	// [fraction per °C].
	svSepT = [numComp]float64{0, 0, 0, 0.004, 0.006, 0.004, 0.0008, 0.0004}
	// stripEff: fraction of the stripper feed of each component stripped
	// straight back to the gas loop at base steam.
	stripEff = [numComp]float64{0.999, 0.999, 0.999, 0.997, 0.97, 0.30, 0.003, 0.001}
)

// flowsState caches the most recent per-step stream values for measurement
// mapping and diagnostics.
type flowsState struct {
	f1, f2, f3, f4 float64 // fresh feeds [kmol/h]
	f5             float64 // recycle [kmol/h]
	f6             float64 // reactor feed [kmol/h]
	f7             float64 // reactor outflow [kmol/h]
	f9             float64 // purge [kmol/h]
	f10Vol         float64 // separator underflow [m³/h]
	f10Mol         float64 // separator underflow [kmol/h]
	f11Vol         float64 // product [m³/h]
	f11Mol         float64 // product [kmol/h]
	ovMol          float64 // stripper overhead [kmol/h]
	feedComp       [numComp]float64
	purgeComp      [numComp]float64
	prodComp       [numComp]float64
	rates          [4]float64 // instantaneous reaction rates [kmol/h]
	t6             float64    // mixed reactor feed temperature [°C]
	pR, pS, pSt    float64    // pressures [kPa]
	lvlR, lvlS     float64    // levels [%]
	lvlSt          float64
	rxnHeatNorm    float64 // normalized reaction heat
	compWork       float64
	cwOutR, cwOutS float64
}

// Process is the reduced-order TE plant. It is not safe for concurrent
// use; each simulation run owns one Process.
type Process struct {
	cfg Config
	rng *rand.Rand
	dt  float64 // hours
	now float64 // hours since start

	cmd   [NumXMV]float64 // commanded valve positions (what the process receives)
	valve [NumXMV]lag     // actuator lags
	stick [NumXMV]stiction

	nR  [numComp]float64 // reactor holdup [kmol]
	nSg [numComp]float64 // separator gas holdup
	nSl [numComp]float64 // separator liquid holdup
	nSt [numComp]float64 // stripper liquid holdup
	tR  float64          // reactor temperature [°C]
	tS  float64
	tSt float64

	idv [NumIDV]bool

	// Background process variation (always on unless NoProcessNoise) plus
	// the extra channels activated by the random-variation IDVs.
	ouHdrA, ouHdrC       *ou
	ouXA4, ouXB4         *ou
	ouTd, ouTc           *ou
	ouTcwR, ouTcwS       *ou
	ouKin, ouSteam       *ou
	ouComp               *ou
	xA4Extra, xB4Extra   *ou // IDV(8)
	tdExtra, tcExtra     *ou // IDV(9), IDV(10)
	tcwRExtra, tcwSExtra *ou // IDV(11), IDV(12)
	kinExtra             *ou // IDV(13)
	steamExtra           *ou // IDV(16)
	compExtra            *ou // IDV(20)
	foulR, foulS         float64

	anFeed  [6]lag
	anPurge [8]lag
	anProd  [5]lag
	// Sample-and-hold analyzer state (DiscreteAnalyzers mode).
	anFeedHold   [6]float64
	anPurgeHold  [8]float64
	anProdHold   [5]float64
	anFastTimer  float64 // hours until the 6-minute analyzers sample again
	anSlowTimer  float64 // hours until the 15-minute analyzer samples again
	anHoldPrimed bool

	rateK [4]float64 // calibrated reaction rate constants

	flows flowsState
	meas  [NumXMEAS]float64 // cached noisy measurements for the current step
	truth [NumXMEAS]float64 // cached noiseless measurements

	down          bool
	downReason    string
	interlocksOff bool
}

// New constructs a Process at the nominal initial state. Callers normally
// warm the plant up under closed-loop control (see the plant package)
// before using it as a calibration reference.
func New(cfg Config) (*Process, error) {
	if cfg.StepSeconds == 0 {
		cfg.StepSeconds = 1.8
	}
	if cfg.StepSeconds < 0 || cfg.StepSeconds > 60 {
		return nil, fmt.Errorf("te: step %.3gs out of (0,60]: %w", cfg.StepSeconds, ErrBadConfig)
	}
	p := &Process{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		dt:  cfg.StepSeconds / 3600,

		// Initial inventories: an approximate base-case guess sized for the
		// lumped gas-loop volume; the warmup relaxes this to the model's
		// own steady state.
		nR:  [numComp]float64{25.1, 7.25, 20.4, 7.12, 16.3, 4.5, 42, 31},
		tR:  tReactBase,
		tS:  tSepBase,
		tSt: tStripBase,

		foulR: 1, foulS: 1,
	}
	// Separator gas: sized for the pressure the fixed recycle valve needs
	// to carry the design recycle flow (≈2770 kPa, above the Downs–Vogel
	// 2634 — the surrogate recycle loop carries more unreacted gas), with
	// a composition near the reactor outflow's vapor split.
	sepGasComp := [numComp]float64{0.40, 0.115, 0.30, 0.015, 0.10, 0.015, 0.035, 0.02}
	const sepPressInit = 2770.0
	nGas := sepPressInit * (vSeparator - 6.0) / (rGas * (tSepBase + 273.15))
	for c := 0; c < numComp; c++ {
		p.nSg[c] = nGas * sepGasComp[c]
	}
	// Separator liquid: 6 m³ of mostly G/H with dissolved lights.
	sepLiqComp := [numComp]float64{0.008, 0.001, 0.008, 0.047, 0.205, 0.0085, 0.434, 0.2885}
	nSepLiq := 6.0 / compositeVmol(sepLiqComp)
	for c := 0; c < numComp; c++ {
		p.nSl[c] = nSepLiq * sepLiqComp[c]
	}
	// Stripper liquid: 14.4 m³ (60 % of capacity) at product composition —
	// the extra margin covers the warmup transient's level dip; the level
	// trim settles it back to 50 %.
	prodComp := [numComp]float64{0.0001, 0, 0.0001, 0.0002, 0.0084, 0.011, 0.542, 0.4382}
	nStr := 14.4 / compositeVmol(prodComp)
	for c := 0; c < numComp; c++ {
		p.nSt[c] = nStr * prodComp[c]
	}

	for i := 0; i < NumXMV; i++ {
		p.cmd[i] = BaseXMV[i]
		p.valve[i] = lag{tau: valveTauH}
		p.valve[i].force(BaseXMV[i])
	}

	p.initNoise()
	p.initAnalyzers()
	p.calibrateRateConstants()
	p.step(true) // prime flows/measurements without advancing time
	return p, nil
}

func (p *Process) initNoise() {
	p.ouHdrA = newOU(1, 0.3, 0.004)
	p.ouHdrC = newOU(1, 0.3, 0.004)
	p.ouXA4 = newOU(0.485, 1.5, 0.003)
	p.ouXB4 = newOU(0.005, 1.5, 0.0005)
	p.ouTd = newOU(0, 1.0, 0.8)
	p.ouTc = newOU(0, 1.0, 0.8)
	p.ouTcwR = newOU(tCWInBase, 0.8, 0.25)
	p.ouTcwS = newOU(tCWInBase, 0.8, 0.25)
	p.ouKin = newOU(1, 4.0, 0.003)
	p.ouSteam = newOU(1, 0.5, 0.004)
	p.ouComp = newOU(1, 1.0, 0.004)

	p.xA4Extra = newOU(0, 1.0, 0.018)
	p.xB4Extra = newOU(0, 1.0, 0.003)
	p.tdExtra = newOU(0, 1.0, 4.0)
	p.tcExtra = newOU(0, 1.0, 4.0)
	p.tcwRExtra = newOU(0, 0.8, 2.5)
	p.tcwSExtra = newOU(0, 0.8, 2.5)
	p.kinExtra = newOU(0, 8.0, 0.02)
	p.steamExtra = newOU(0, 0.5, 0.02)
	p.compExtra = newOU(0, 1.0, 0.02)
}

func (p *Process) initAnalyzers() {
	const analyzerTau = 0.1 // 6 minutes
	for i := range p.anFeed {
		p.anFeed[i] = lag{tau: analyzerTau}
	}
	for i := range p.anPurge {
		p.anPurge[i] = lag{tau: analyzerTau}
	}
	for i := range p.anProd {
		p.anProd[i] = lag{tau: 0.25} // product analyzer: 15 minutes
	}
}

func compositeVmol(x [numComp]float64) float64 {
	var v float64
	for c := 0; c < numComp; c++ {
		v += x[c] * vmol[c]
	}
	if v <= 0 {
		return 0.1
	}
	return v
}

// calibrateRateConstants fixes the four reaction rate constants from the
// nominal initial state so the base rates are hit at the base partial
// pressures. Called once from New, before any integration.
func (p *Process) calibrateRateConstants() {
	pA, pC, pD, pE := p.partialPressures()
	p.rateK[0] = r1Base / (math.Pow(pA, expR1A) * math.Pow(pC, expR1C) * math.Pow(pD, expR1D))
	p.rateK[1] = r2Base / (math.Pow(pA, expR2A) * math.Pow(pC, expR2C) * math.Pow(pE, expR2E))
	p.rateK[2] = r3Base / (pA * pE)
	p.rateK[3] = r4Base / pD
}

// partialPressures returns the reactor partial pressures of A, C, D, E in
// units of 1000 kPa (dimensionless for the power laws).
func (p *Process) partialPressures() (pA, pC, pD, pE float64) {
	var nGas float64
	for c := 0; c < numComp; c++ {
		nGas += phiVap[c] * p.nR[c]
	}
	if nGas <= 0 {
		return 0, 0, 0, 0
	}
	pr := p.reactorPressure()
	f := pr / (1000 * nGas)
	return math.Max(0, phiVap[CompA]*p.nR[CompA]*f),
		math.Max(0, phiVap[CompC]*p.nR[CompC]*f),
		math.Max(0, phiVap[CompD]*p.nR[CompD]*f),
		math.Max(0, phiVap[CompE]*p.nR[CompE]*f)
}

func (p *Process) reactorLiquidVolume() float64 {
	var v float64
	for c := 0; c < numComp; c++ {
		v += (1 - phiVap[c]) * p.nR[c] * vmol[c]
	}
	return v
}

func (p *Process) reactorPressure() float64 {
	var nGas float64
	for c := 0; c < numComp; c++ {
		nGas += phiVap[c] * p.nR[c]
	}
	vg := vReactorTotal + vGasLoopExtra - p.reactorLiquidVolume()
	if vg < 1 {
		vg = 1
	}
	return nGas * rGas * (p.tR + 273.15) / vg
}

func (p *Process) sepLiquidVolume() float64 {
	var v float64
	for c := 0; c < numComp; c++ {
		v += p.nSl[c] * vmol[c]
	}
	return v
}

func (p *Process) sepPressure() float64 {
	var nGas float64
	for c := 0; c < numComp; c++ {
		nGas += p.nSg[c]
	}
	vg := vSeparator - p.sepLiquidVolume()
	if vg < 5 {
		vg = 5
	}
	return nGas * rGas * (p.tS + 273.15) / vg
}

func (p *Process) stripLiquidVolume() float64 {
	var v float64
	for c := 0; c < numComp; c++ {
		v += p.nSt[c] * vmol[c]
	}
	return v
}

// Step advances the plant by one sampling interval. It returns ErrShutdown
// (and leaves the state frozen) once an interlock has tripped.
func (p *Process) Step() error {
	if p.down {
		return fmt.Errorf("%w: %s", ErrShutdown, p.downReason)
	}
	p.step(false)
	return nil
}

// step performs one integration step; when prime is true it only refreshes
// the derived quantities and measurement cache without advancing state.
func (p *Process) step(prime bool) {
	dt := p.dt
	if prime {
		dt = 0
	}

	// 1. Advance stochastic inputs.
	noise := !p.cfg.NoProcessNoise && !prime
	if noise {
		p.ouHdrA.step(dt, p.rng)
		p.ouHdrC.step(dt, p.rng)
		p.ouXA4.step(dt, p.rng)
		p.ouXB4.step(dt, p.rng)
		p.ouTd.step(dt, p.rng)
		p.ouTc.step(dt, p.rng)
		p.ouTcwR.step(dt, p.rng)
		p.ouTcwS.step(dt, p.rng)
		p.ouKin.step(dt, p.rng)
		p.ouSteam.step(dt, p.rng)
		p.ouComp.step(dt, p.rng)
		if p.idv[7] { // IDV(8)
			p.xA4Extra.step(dt, p.rng)
			p.xB4Extra.step(dt, p.rng)
		}
		if p.idv[8] {
			p.tdExtra.step(dt, p.rng)
		}
		if p.idv[9] {
			p.tcExtra.step(dt, p.rng)
		}
		if p.idv[10] {
			p.tcwRExtra.step(dt, p.rng)
		}
		if p.idv[11] {
			p.tcwSExtra.step(dt, p.rng)
		}
		if p.idv[12] {
			p.kinExtra.step(dt, p.rng)
		}
		if p.idv[15] {
			p.steamExtra.step(dt, p.rng)
		}
		if p.idv[19] {
			p.compExtra.step(dt, p.rng)
		}
	}
	if p.idv[16] { // IDV(17): reactor heat-transfer fouling drift
		p.foulR = math.Max(0.7, p.foulR-0.01*dt)
	}
	if p.idv[17] { // IDV(18): condenser fouling drift
		p.foulS = math.Max(0.7, p.foulS-0.01*dt)
	}

	// 2. Valve dynamics (stiction then lag).
	var pos [NumXMV]float64
	for i := 0; i < NumXMV; i++ {
		target := p.cmd[i]
		switch {
		case i == XmvReactorCW && p.idv[13]: // IDV(14)
			p.stick[i].band = 2.0
			target = p.stick[i].apply(target)
		case i == XmvCondCW && p.idv[14]: // IDV(15)
			p.stick[i].band = 2.0
			target = p.stick[i].apply(target)
		case i == XmvRecycle && p.idv[18]: // IDV(19)
			p.stick[i].band = 2.0
			target = p.stick[i].apply(target)
		}
		pos[i] = p.valve[i].step(target, dt)
	}

	// 3. Stream 4 composition and disturbance multipliers.
	xA4 := p.ouXA4.value()
	xB4 := p.ouXB4.value()
	if p.idv[0] { // IDV(1): A/C ratio step
		xA4 -= 0.03
	}
	if p.idv[1] { // IDV(2): B step
		xB4 += 0.018
	}
	if p.idv[7] {
		xA4 += p.xA4Extra.value()
		xB4 += p.xB4Extra.value()
	}
	xA4 = clamp(xA4, 0, 1)
	xB4 = clamp(xB4, 0, 1-xA4)
	xC4 := 1 - xA4 - xB4

	hdrA := p.ouHdrA.value()
	if p.idv[5] { // IDV(6): A feed loss
		hdrA = 0
	}
	hdrC := p.ouHdrC.value()
	if p.idv[6] { // IDV(7): C header pressure loss
		hdrC *= 0.8
	}

	// 4. Feed flows.
	fl := &p.flows
	fl.f1 = f1Max * pos[XmvAFeed] / 100 * hdrA
	fl.f2 = f2Max * pos[XmvDFeed] / 100
	fl.f3 = f3Max * pos[XmvEFeed] / 100
	fl.f4 = f4Max * pos[XmvACFeed] / 100 * hdrC

	// 5. Pressures and recycle/purge.
	fl.pR = p.reactorPressure()
	fl.pS = p.sepPressure()
	fl.f5 = kRec * pos[XmvRecycle] / 100 * fl.pS
	fl.f9 = kPurge * pos[XmvPurge] / 100 * fl.pS

	// Separator gas composition.
	var nSgTot float64
	for c := 0; c < numComp; c++ {
		nSgTot += p.nSg[c]
	}
	var ySep [numComp]float64
	if nSgTot > 1e-9 {
		for c := 0; c < numComp; c++ {
			ySep[c] = p.nSg[c] / nSgTot
		}
	}

	// 6. Stripper overhead (computed from last step's F10 components via
	// the instantaneous strip split below) — assembled with feeds into the
	// reactor inlet.
	steamFac := pos[XmvSteam] / BaseXMV[XmvSteam] * p.ouSteam.value()
	if p.idv[15] {
		steamFac += p.steamExtra.value()
	}
	steamFac = math.Max(0, steamFac)

	// Separator underflow (liquid to stripper).
	fl.lvlS = p.sepLiquidVolume() / vSepLiqCap * 100
	fl.f10Vol = f10Vmax * pos[XmvSepFlow] / 100
	var xSl [numComp]float64
	var nSlTot float64
	for c := 0; c < numComp; c++ {
		nSlTot += p.nSl[c]
	}
	if nSlTot > 1e-9 {
		for c := 0; c < numComp; c++ {
			xSl[c] = p.nSl[c] / nSlTot
		}
	}
	vmSl := compositeVmol(xSl)
	fl.f10Mol = fl.f10Vol / vmSl
	// The underflow cannot exceed the available liquid.
	if maxDraw := nSlTot / math.Max(dt, 1e-9) * 0.5; fl.f10Mol > maxDraw && dt > 0 {
		fl.f10Mol = maxDraw
		fl.f10Vol = fl.f10Mol * vmSl
	}

	// Stripper instantaneous split of the incoming liquid.
	var ovComp, toHold [numComp]float64
	fl.ovMol = 0
	for c := 0; c < numComp; c++ {
		in := fl.f10Mol * xSl[c]
		eff := stripEff[c] * (0.7 + 0.3*steamFac)
		if eff > 1 {
			eff = 1
		}
		if eff < 0 {
			eff = 0
		}
		ovComp[c] = in * eff
		toHold[c] = in * (1 - eff)
		fl.ovMol += ovComp[c]
	}

	// Product flow from stripper holdup.
	fl.lvlSt = p.stripLiquidVolume() / vStripCap * 100
	var xSt [numComp]float64
	var nStTot float64
	for c := 0; c < numComp; c++ {
		nStTot += p.nSt[c]
	}
	if nStTot > 1e-9 {
		for c := 0; c < numComp; c++ {
			xSt[c] = p.nSt[c] / nStTot
		}
	}
	fl.prodComp = xSt
	vmSt := compositeVmol(xSt)
	fl.f11Vol = f11Vmax * pos[XmvStripFlow] / 100
	fl.f11Mol = fl.f11Vol / vmSt
	if maxDraw := nStTot / math.Max(dt, 1e-9) * 0.5; fl.f11Mol > maxDraw && dt > 0 {
		fl.f11Mol = maxDraw
		fl.f11Vol = fl.f11Mol * vmSt
	}

	// 7. Reactor feed: fresh + recycle + stripper overhead.
	var f6Comp [numComp]float64
	f6Comp[CompA] += fl.f1
	f6Comp[CompD] += fl.f2
	f6Comp[CompE] += fl.f3
	f6Comp[CompA] += fl.f4 * xA4
	f6Comp[CompB] += fl.f4 * xB4
	f6Comp[CompC] += fl.f4 * xC4
	for c := 0; c < numComp; c++ {
		f6Comp[c] += fl.f5*ySep[c] + ovComp[c]
	}
	fl.f6 = 0
	for c := 0; c < numComp; c++ {
		fl.f6 += f6Comp[c]
	}
	if fl.f6 > 1e-9 {
		for c := 0; c < numComp; c++ {
			fl.feedComp[c] = f6Comp[c] / fl.f6
		}
	}

	// Mixed feed temperature.
	fresh := fl.f1 + fl.f2 + fl.f3 + fl.f4
	tFresh := tFreshBase
	if fresh > 1e-9 {
		dT := p.ouTd.value() + p.ouTc.value()
		if p.idv[2] { // IDV(3): D feed temperature step
			dT += 5 * fl.f2 / fresh
		}
		if p.idv[8] {
			dT += p.tdExtra.value() * fl.f2 / fresh
		}
		if p.idv[9] {
			dT += p.tcExtra.value() * fl.f4 / fresh
		}
		tFresh += dT
	}
	if fl.f6 > 1e-9 {
		fl.t6 = (fresh*tFresh + fl.f5*p.tS + fl.ovMol*p.tSt) / fl.f6
	} else {
		fl.t6 = tFresh
	}

	// 8. Reaction rates.
	pA, pC, pD, pE := p.partialPressures()
	kin := p.ouKin.value()
	if p.idv[12] {
		kin += p.kinExtra.value()
	}
	fT1 := math.Exp(0.028 * (p.tR - tReactBase))
	fT2 := math.Exp(0.033 * (p.tR - tReactBase))
	fT3 := math.Exp(0.050 * (p.tR - tReactBase))
	fT4 := math.Exp(0.040 * (p.tR - tReactBase))
	r1 := p.rateK[0] * kin * fT1 * math.Pow(pA, expR1A) * math.Pow(pC, expR1C) * math.Pow(pD, expR1D)
	r2 := p.rateK[1] * kin * fT2 * math.Pow(pA, expR2A) * math.Pow(pC, expR2C) * math.Pow(pE, expR2E)
	r3 := p.rateK[2] * kin * fT3 * pA * pE
	r4 := p.rateK[3] * kin * fT4 * pD
	fl.rates = [4]float64{r1, r2, r3, r4}
	fl.rxnHeatNorm = (r1 + 0.9*r2 + 0.3*r3 + 0.2*r4) / (r1Base + 0.9*r2Base + 0.3*r3Base + 0.2*r4Base)

	// 9. Reactor outflow and composition.
	fl.lvlR = p.reactorLiquidVolume() / vReactLiqCap * 100
	fl.f7 = kF7 * math.Max(0, fl.pR-fl.pS)
	var w [numComp]float64
	var wTot float64
	lvlFac := fl.lvlR / 75
	for c := 0; c < numComp; c++ {
		a := alphaVol[c]
		if c >= CompF {
			a *= lvlFac // heavies leave faster at high level: self-regulating
		}
		w[c] = a * math.Max(0, p.nR[c])
		wTot += w[c]
	}
	var x7 [numComp]float64
	if wTot > 1e-9 {
		for c := 0; c < numComp; c++ {
			x7[c] = w[c] / wTot
		}
	}

	// 10. Separator splits of the incoming reactor outflow.
	var toSepGas, toSepLiq [numComp]float64
	for c := 0; c < numComp; c++ {
		sv := svSep[c] + svSepT[c]*(p.tS-tSepBase)
		sv = clamp(sv, 0, 1)
		in := fl.f7 * x7[c]
		toSepGas[c] = in * sv
		toSepLiq[c] = in * (1 - sv)
	}

	// 11. Temperatures.
	coolR := kCoolR * p.foulR * pos[XmvReactorCW] / 100
	tcwR := p.ouTcwR.value()
	if p.idv[3] { // IDV(4)
		tcwR += 5
	}
	if p.idv[10] {
		tcwR += p.tcwRExtra.value()
	}
	tcwS := p.ouTcwS.value()
	if p.idv[4] { // IDV(5)
		tcwS += 5
	}
	if p.idv[11] {
		tcwS += p.tcwSExtra.value()
	}
	dTr := heatRx*fl.rxnHeatNorm - coolR*(p.tR-tcwR) + kFeedR*(fl.f6/1890)*(fl.t6-p.tR)
	dTs := kInSep*(fl.f7/1473)*(p.tR-p.tS) - kCoolS*p.foulS*pos[XmvCondCW]/100*(p.tS-tcwS)
	dTst := kSteamStr*pos[XmvSteam]/100*(tSteam-p.tSt) +
		kInStr*(fl.f10Mol/258)*(p.tS-p.tSt) -
		kLossStr*(p.tSt-tAmbient)

	// 12. Measurement-side diagnostics.
	const ovBase = 92.0 // nominal stripper overhead [kmol/h]
	fl.pSt = 3102.2 + 60*(fl.ovMol/ovBase-1) + 40*(steamFac-1) + 0.5*(fl.pS-2633.7)
	comp := p.ouComp.value()
	if p.idv[19] {
		comp += p.compExtra.value()
	}
	fl.compWork = 341.43 * (fl.f5 / 1200) * math.Pow(2633.7/math.Max(fl.pS, 100), 0.25) * comp
	loadR := (p.tR - tcwR) / 85.4
	fl.cwOutR = tcwR + 59.6*loadR/math.Max(pos[XmvReactorCW]/BaseXMV[XmvReactorCW], 0.05)
	loadS := (p.tS - tcwS) / 45.1
	fl.cwOutS = tcwS + 42.3*loadS/math.Max(pos[XmvCondCW]/BaseXMV[XmvCondCW], 0.05)
	for c := 0; c < numComp; c++ {
		fl.purgeComp[c] = ySep[c]
	}

	// 13. Integrate inventories.
	if dt > 0 {
		nu := [numComp]float64{
			-(r1 + r2 + r3), // A
			0,               // B
			-(r1 + r2),      // C
			-(r1 + 3*r4),    // D
			-(r2 + r3),      // E
			r3 + 2*r4,       // F
			r1,              // G
			r2,              // H
		}
		for c := 0; c < numComp; c++ {
			p.nR[c] += dt * (f6Comp[c] - fl.f7*x7[c] + nu[c])
			if p.nR[c] < 0 {
				p.nR[c] = 0
			}
			out := fl.f5 + fl.f9
			p.nSg[c] += dt * (toSepGas[c] - out*ySep[c])
			if p.nSg[c] < 0 {
				p.nSg[c] = 0
			}
			p.nSl[c] += dt * (toSepLiq[c] - fl.f10Mol*xSl[c])
			if p.nSl[c] < 0 {
				p.nSl[c] = 0
			}
			p.nSt[c] += dt * (toHold[c] - fl.f11Mol*xSt[c])
			if p.nSt[c] < 0 {
				p.nSt[c] = 0
			}
		}
		p.tR += dt * dTr
		p.tS += dt * dTs
		p.tSt += dt * dTst
		p.now += dt
	}

	// 14. Measurements.
	p.updateMeasurements(pos, steamFac, dt)

	// 15. Interlocks.
	if dt > 0 {
		p.checkInterlocks()
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (p *Process) updateMeasurements(pos [NumXMV]float64, steamFac, dt float64) {
	fl := &p.flows
	t := &p.truth
	t[XmeasAFeed] = fl.f1 * kscmhPerKmol
	t[XmeasDFeed] = fl.f2 * molWeight[CompD]
	t[XmeasEFeed] = fl.f3 * molWeight[CompE]
	t[XmeasACFeed] = fl.f4 * kscmhPerKmol
	t[XmeasRecycle] = fl.f5 * kscmhPerKmol
	t[XmeasReactorFeed] = fl.f6 * kscmhPerKmol
	t[XmeasReactorPress] = fl.pR
	t[XmeasReactorLevel] = fl.lvlR
	t[XmeasReactorTemp] = p.tR
	t[XmeasPurgeRate] = fl.f9 * kscmhPerKmol
	t[XmeasSepTemp] = p.tS
	t[XmeasSepLevel] = fl.lvlS
	t[XmeasSepPress] = fl.pS
	t[XmeasSepUnderflow] = fl.f10Vol
	t[XmeasStripLevel] = fl.lvlSt
	t[XmeasStripPress] = fl.pSt
	t[XmeasStripUnderflw] = fl.f11Vol
	t[XmeasStripTemp] = p.tSt
	t[XmeasSteamFlow] = 230.31 * steamFac
	t[XmeasCompWork] = fl.compWork
	t[XmeasReactorCWTemp] = fl.cwOutR
	t[XmeasSepCWTemp] = fl.cwOutS

	if p.cfg.DiscreteAnalyzers {
		p.stepDiscreteAnalyzers(fl, dt)
		for i := 0; i < 6; i++ {
			t[XmeasFeedA+i] = p.anFeedHold[i]
		}
		for i := 0; i < 8; i++ {
			t[XmeasPurgeA+i] = p.anPurgeHold[i]
		}
		for i := 0; i < 5; i++ {
			t[XmeasProductD+i] = p.anProdHold[i]
		}
	} else {
		// Analyzers with first-order dynamics.
		for i := 0; i < 6; i++ {
			t[XmeasFeedA+i] = p.anFeed[i].step(fl.feedComp[i]*100, dt)
		}
		for i := 0; i < 8; i++ {
			t[XmeasPurgeA+i] = p.anPurge[i].step(fl.purgeComp[i]*100, dt)
		}
		for i := 0; i < 5; i++ {
			t[XmeasProductD+i] = p.anProd[i].step(fl.prodComp[CompD+i]*100, dt)
		}
	}

	if p.cfg.NoMeasurementNoise {
		copy(p.meas[:], t[:])
		return
	}
	for i := 0; i < NumXMEAS; i++ {
		p.meas[i] = t[i] + measNoiseStd[i]*p.rng.NormFloat64()
	}
}

// stepDiscreteAnalyzers advances the sample-and-hold chromatographs: the
// feed and purge analyzers take a reading every 6 minutes, the product
// analyzer every 15, holding the last value in between (Downs & Vogel's
// measurement dead time).
func (p *Process) stepDiscreteAnalyzers(fl *flowsState, dt float64) {
	const (
		fastPeriod = 0.1  // 6 minutes [h]
		slowPeriod = 0.25 // 15 minutes [h]
	)
	sampleFast := func() {
		for i := 0; i < 6; i++ {
			p.anFeedHold[i] = fl.feedComp[i] * 100
		}
		for i := 0; i < 8; i++ {
			p.anPurgeHold[i] = fl.purgeComp[i] * 100
		}
	}
	sampleSlow := func() {
		for i := 0; i < 5; i++ {
			p.anProdHold[i] = fl.prodComp[CompD+i] * 100
		}
	}
	if !p.anHoldPrimed {
		sampleFast()
		sampleSlow()
		p.anFastTimer = fastPeriod
		p.anSlowTimer = slowPeriod
		p.anHoldPrimed = true
		return
	}
	p.anFastTimer -= dt
	if p.anFastTimer <= 0 {
		sampleFast()
		p.anFastTimer += fastPeriod
	}
	p.anSlowTimer -= dt
	if p.anSlowTimer <= 0 {
		sampleSlow()
		p.anSlowTimer += slowPeriod
	}
}

// SetInterlocks enables or disables the safety interlocks. Plants bypass
// interlocks during startup; the closed-loop warmup does the same and
// re-arms them before any experiment begins.
func (p *Process) SetInterlocks(enabled bool) { p.interlocksOff = !enabled }

func (p *Process) checkInterlocks() {
	if p.interlocksOff {
		return
	}
	fl := &p.flows
	switch {
	case fl.pR > 3000:
		p.trip("reactor pressure high (> 3000 kPa)")
	case p.tR > 175:
		p.trip("reactor temperature high (> 175 °C)")
	case fl.lvlR > 140:
		p.trip("reactor level high")
	case fl.lvlR < 2:
		p.trip("reactor level low")
	case fl.lvlS > 140:
		p.trip("separator level high")
	case fl.lvlS < 2:
		p.trip("separator level low")
	case fl.lvlSt > 140:
		p.trip("stripper level high")
	case fl.lvlSt < 2:
		p.trip("stripper liquid level low")
	}
}

func (p *Process) trip(reason string) {
	p.down = true
	p.downReason = reason
}

// SetXMV sets the commanded position of manipulated variable i (0-based)
// to v percent, clamped to [0, 100].
func (p *Process) SetXMV(i int, v float64) error {
	if i < 0 || i >= NumXMV {
		return fmt.Errorf("te: XMV %d: %w", i, ErrBadIndex)
	}
	p.cmd[i] = clamp(v, 0, 100)
	return nil
}

// XMVs returns a copy of all commanded positions.
func (p *Process) XMVs() []float64 {
	out := make([]float64, NumXMV)
	copy(out, p.cmd[:])
	return out
}

// Measurements returns a copy of the current (noisy) XMEAS vector, sampled
// once per Step.
func (p *Process) Measurements() []float64 {
	return p.MeasurementsInto(nil)
}

// MeasurementsInto copies the current (noisy) XMEAS vector into dst when
// its capacity suffices, otherwise into a fresh slice — the
// allocation-free path for per-step control loops. It returns the filled
// slice.
func (p *Process) MeasurementsInto(dst []float64) []float64 {
	if cap(dst) >= NumXMEAS {
		dst = dst[:NumXMEAS]
	} else {
		dst = make([]float64, NumXMEAS)
	}
	copy(dst, p.meas[:])
	return dst
}

// TrueMeasurements returns a copy of the noiseless XMEAS vector.
func (p *Process) TrueMeasurements() []float64 {
	out := make([]float64, NumXMEAS)
	copy(out, p.truth[:])
	return out
}

// SetIDV switches process disturbance i (0-based: SetIDV(5,…) is IDV(6))
// on or off.
func (p *Process) SetIDV(i int, on bool) error {
	if i < 0 || i >= NumIDV {
		return fmt.Errorf("te: IDV %d: %w", i, ErrBadIndex)
	}
	p.idv[i] = on
	return nil
}

// IDV reports whether disturbance i is active.
func (p *Process) IDV(i int) bool {
	if i < 0 || i >= NumIDV {
		return false
	}
	return p.idv[i]
}

// Hours returns the simulated time in hours.
func (p *Process) Hours() float64 { return p.now }

// Shutdown reports whether a safety interlock has tripped.
func (p *Process) Shutdown() bool { return p.down }

// ShutdownReason returns the interlock message, or "" when running.
func (p *Process) ShutdownReason() string { return p.downReason }

// Clone returns a deep copy of the process reseeded with seed, with the
// simulation clock reset to zero. Cloning a warmed-up plant gives every
// experiment run an identical, settled starting state with independent
// noise.
func (p *Process) Clone(seed int64) *Process {
	q := *p
	q.rng = rand.New(rand.NewSource(seed))
	q.now = 0
	q.cfg.Seed = seed
	// Deep-copy the pointer-held noise states.
	cpOU := func(o *ou) *ou { c := *o; return &c }
	q.ouHdrA, q.ouHdrC = cpOU(p.ouHdrA), cpOU(p.ouHdrC)
	q.ouXA4, q.ouXB4 = cpOU(p.ouXA4), cpOU(p.ouXB4)
	q.ouTd, q.ouTc = cpOU(p.ouTd), cpOU(p.ouTc)
	q.ouTcwR, q.ouTcwS = cpOU(p.ouTcwR), cpOU(p.ouTcwS)
	q.ouKin, q.ouSteam = cpOU(p.ouKin), cpOU(p.ouSteam)
	q.ouComp = cpOU(p.ouComp)
	q.xA4Extra, q.xB4Extra = cpOU(p.xA4Extra), cpOU(p.xB4Extra)
	q.tdExtra, q.tcExtra = cpOU(p.tdExtra), cpOU(p.tcExtra)
	q.tcwRExtra, q.tcwSExtra = cpOU(p.tcwRExtra), cpOU(p.tcwSExtra)
	q.kinExtra = cpOU(p.kinExtra)
	q.steamExtra = cpOU(p.steamExtra)
	q.compExtra = cpOU(p.compExtra)
	return &q
}

// EnableNoise toggles process and measurement noise at runtime (used to
// warm up deterministically and then switch noise on).
func (p *Process) EnableNoise(process, measurement bool) {
	p.cfg.NoProcessNoise = !process
	p.cfg.NoMeasurementNoise = !measurement
}
