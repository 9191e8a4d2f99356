// Package te implements a reduced-order, gray-box simulator of the
// Tennessee-Eastman (TE) challenge process (Downs & Vogel 1993) with the
// complete external interface of the original model: 41 measured variables
// (XMEAS), 12 manipulated variables (XMV) and 20 process disturbances
// (IDV), the Downs–Vogel base-case operating point, safety interlocks
// (including the stripper-level-low shutdown the paper relies on), Gaussian
// per-channel measurement noise and the slow process random-walks of
// Krotofil et al.'s added-randomness model.
//
// The internal physics is a deliberate simplification of the 50-state
// Fortran teprob.f (see DESIGN.md §2 for the substitution argument): three
// component-inventory units (reactor, separator, stripper) with the four
// Downs–Vogel reactions, pressure/level/temperature dynamics, valve lags
// and a gas recycle loop. What is preserved — and verified by the tests —
// are the causal chains the paper's evaluation depends on:
//
//   - IDV(6) (A-feed loss) and an integrity attack closing XMV(3) are
//     nearly indistinguishable at the controller: XMEAS(1) collapses and
//     the plant shuts down on low stripper level hours later.
//   - Forging XMEAS(1)=0 makes the feed-flow controller open XMV(3).
//   - Freezing XMV(3) (DoS) leaves the process near its operating point,
//     producing the paper's slow, diffuse detection signature.
package te

// Dimensions of the TE interface.
const (
	NumXMEAS = 41 // measured variables
	NumXMV   = 12 // manipulated variables
	NumIDV   = 20 // process disturbances
)

// Indices (1-based in the TE literature; these constants are 0-based slice
// indices with the conventional names).
const (
	// XMEAS indices.
	XmeasAFeed         = 0  // XMEAS(1)  A feed, stream 1 [kscmh]
	XmeasDFeed         = 1  // XMEAS(2)  D feed, stream 2 [kg/h]
	XmeasEFeed         = 2  // XMEAS(3)  E feed, stream 3 [kg/h]
	XmeasACFeed        = 3  // XMEAS(4)  A+C feed, stream 4 [kscmh]
	XmeasRecycle       = 4  // XMEAS(5)  recycle flow, stream 8 [kscmh]
	XmeasReactorFeed   = 5  // XMEAS(6)  reactor feed rate, stream 6 [kscmh]
	XmeasReactorPress  = 6  // XMEAS(7)  reactor pressure [kPa gauge]
	XmeasReactorLevel  = 7  // XMEAS(8)  reactor level [%]
	XmeasReactorTemp   = 8  // XMEAS(9)  reactor temperature [°C]
	XmeasPurgeRate     = 9  // XMEAS(10) purge rate, stream 9 [kscmh]
	XmeasSepTemp       = 10 // XMEAS(11) separator temperature [°C]
	XmeasSepLevel      = 11 // XMEAS(12) separator level [%]
	XmeasSepPress      = 12 // XMEAS(13) separator pressure [kPa gauge]
	XmeasSepUnderflow  = 13 // XMEAS(14) separator underflow [m³/h]
	XmeasStripLevel    = 14 // XMEAS(15) stripper level [%]
	XmeasStripPress    = 15 // XMEAS(16) stripper pressure [kPa gauge]
	XmeasStripUnderflw = 16 // XMEAS(17) stripper underflow (product) [m³/h]
	XmeasStripTemp     = 17 // XMEAS(18) stripper temperature [°C]
	XmeasSteamFlow     = 18 // XMEAS(19) stripper steam flow [kg/h]
	XmeasCompWork      = 19 // XMEAS(20) compressor work [kW]
	XmeasReactorCWTemp = 20 // XMEAS(21) reactor CW outlet temp [°C]
	XmeasSepCWTemp     = 21 // XMEAS(22) separator CW outlet temp [°C]
	XmeasFeedA         = 22 // XMEAS(23) reactor feed %A [mol%]
	XmeasFeedB         = 23 // XMEAS(24) reactor feed %B
	XmeasFeedC         = 24 // XMEAS(25) reactor feed %C
	XmeasFeedD         = 25 // XMEAS(26) reactor feed %D
	XmeasFeedE         = 26 // XMEAS(27) reactor feed %E
	XmeasFeedF         = 27 // XMEAS(28) reactor feed %F
	XmeasPurgeA        = 28 // XMEAS(29) purge %A
	XmeasPurgeB        = 29 // XMEAS(30) purge %B
	XmeasPurgeC        = 30 // XMEAS(31) purge %C
	XmeasPurgeD        = 31 // XMEAS(32) purge %D
	XmeasPurgeE        = 32 // XMEAS(33) purge %E
	XmeasPurgeF        = 33 // XMEAS(34) purge %F
	XmeasPurgeG        = 34 // XMEAS(35) purge %G
	XmeasPurgeH        = 35 // XMEAS(36) purge %H
	XmeasProductD      = 36 // XMEAS(37) product %D
	XmeasProductE      = 37 // XMEAS(38) product %E
	XmeasProductF      = 38 // XMEAS(39) product %F
	XmeasProductG      = 39 // XMEAS(40) product %G
	XmeasProductH      = 40 // XMEAS(41) product %H

	// XMV indices.
	XmvDFeed     = 0  // XMV(1)  D feed flow valve [%]
	XmvEFeed     = 1  // XMV(2)  E feed flow valve [%]
	XmvAFeed     = 2  // XMV(3)  A feed flow valve [%]
	XmvACFeed    = 3  // XMV(4)  A+C feed flow valve [%]
	XmvRecycle   = 4  // XMV(5)  compressor recycle valve [%]
	XmvPurge     = 5  // XMV(6)  purge valve [%]
	XmvSepFlow   = 6  // XMV(7)  separator liquid flow valve [%]
	XmvStripFlow = 7  // XMV(8)  stripper liquid (product) valve [%]
	XmvSteam     = 8  // XMV(9)  stripper steam valve [%]
	XmvReactorCW = 9  // XMV(10) reactor cooling water valve [%]
	XmvCondCW    = 10 // XMV(11) condenser cooling water valve [%]
	XmvAgitator  = 11 // XMV(12) agitator speed [%]
)

// Component indices A–H (Downs & Vogel nomenclature).
const (
	CompA = iota
	CompB
	CompC
	CompD
	CompE
	CompF
	CompG
	CompH
	numComp
)

// XMEASNames gives the short identifier per measured variable, indexable by
// the Xmeas… constants.
var XMEASNames = [NumXMEAS]string{
	"XMEAS(1)", "XMEAS(2)", "XMEAS(3)", "XMEAS(4)", "XMEAS(5)", "XMEAS(6)",
	"XMEAS(7)", "XMEAS(8)", "XMEAS(9)", "XMEAS(10)", "XMEAS(11)", "XMEAS(12)",
	"XMEAS(13)", "XMEAS(14)", "XMEAS(15)", "XMEAS(16)", "XMEAS(17)", "XMEAS(18)",
	"XMEAS(19)", "XMEAS(20)", "XMEAS(21)", "XMEAS(22)", "XMEAS(23)", "XMEAS(24)",
	"XMEAS(25)", "XMEAS(26)", "XMEAS(27)", "XMEAS(28)", "XMEAS(29)", "XMEAS(30)",
	"XMEAS(31)", "XMEAS(32)", "XMEAS(33)", "XMEAS(34)", "XMEAS(35)", "XMEAS(36)",
	"XMEAS(37)", "XMEAS(38)", "XMEAS(39)", "XMEAS(40)", "XMEAS(41)",
}

// XMVNames gives the short identifier per manipulated variable.
var XMVNames = [NumXMV]string{
	"XMV(1)", "XMV(2)", "XMV(3)", "XMV(4)", "XMV(5)", "XMV(6)",
	"XMV(7)", "XMV(8)", "XMV(9)", "XMV(10)", "XMV(11)", "XMV(12)",
}

// BaseXMV is the Downs–Vogel base-case position of each manipulated
// variable [%].
var BaseXMV = [NumXMV]float64{
	63.053, // XMV(1)  D feed
	53.980, // XMV(2)  E feed
	24.644, // XMV(3)  A feed
	61.302, // XMV(4)  A+C feed
	22.210, // XMV(5)  compressor recycle valve
	40.064, // XMV(6)  purge valve
	38.100, // XMV(7)  separator liquid flow
	46.534, // XMV(8)  stripper liquid flow
	47.446, // XMV(9)  steam valve
	41.106, // XMV(10) reactor cooling water
	18.114, // XMV(11) condenser cooling water
	50.000, // XMV(12) agitator
}

// BaseXMEASTargets is the Downs–Vogel base-case value of each measured
// variable. The reduced-order model is initialized near these values and
// its own settled steady state (see Process.BaseXMEAS) is used as the
// operating point; the targets are retained for documentation and
// sanity-check tests.
//
//pcslint:ignore dead-export -- oracle: the steady-state checks in the plant, plantctl and te tests
var BaseXMEASTargets = [NumXMEAS]float64{
	0.25052, // XMEAS(1)
	3664.0,  // XMEAS(2)
	4509.3,  // XMEAS(3)
	9.3477,  // XMEAS(4)
	26.902,  // XMEAS(5)
	42.339,  // XMEAS(6)
	2705.0,  // XMEAS(7)
	75.000,  // XMEAS(8)
	120.40,  // XMEAS(9)
	0.33712, // XMEAS(10)
	80.109,  // XMEAS(11)
	50.000,  // XMEAS(12)
	2633.7,  // XMEAS(13)
	25.160,  // XMEAS(14)
	50.000,  // XMEAS(15)
	3102.2,  // XMEAS(16)
	22.949,  // XMEAS(17)
	65.731,  // XMEAS(18)
	230.31,  // XMEAS(19)
	341.43,  // XMEAS(20)
	94.599,  // XMEAS(21)
	77.297,  // XMEAS(22)
	32.188,  // XMEAS(23)
	8.8933,  // XMEAS(24)
	26.383,  // XMEAS(25)
	6.8820,  // XMEAS(26)
	18.776,  // XMEAS(27)
	1.6567,  // XMEAS(28)
	32.958,  // XMEAS(29)
	13.823,  // XMEAS(30)
	23.978,  // XMEAS(31)
	1.2565,  // XMEAS(32)
	18.579,  // XMEAS(33)
	2.2633,  // XMEAS(34)
	4.8436,  // XMEAS(35)
	2.2986,  // XMEAS(36)
	0.01787, // XMEAS(37)
	0.8357,  // XMEAS(38)
	0.09858, // XMEAS(39)
	53.724,  // XMEAS(40)
	43.828,  // XMEAS(41)
}

// measNoiseStd is the measurement-noise standard deviation per XMEAS
// channel, patterned on the Downs–Vogel xns vector: sub-percent noise on
// flows and pressures, fractions of a degree on temperatures, half a
// percent on levels, tenths of a mol% on analyzers.
var measNoiseStd = [NumXMEAS]float64{
	0.0012, // XMEAS(1) kscmh
	18.0,   // XMEAS(2) kg/h
	22.0,   // XMEAS(3) kg/h
	0.047,  // XMEAS(4) kscmh
	0.13,   // XMEAS(5) kscmh
	0.21,   // XMEAS(6) kscmh
	5.0,    // XMEAS(7) kPa
	0.50,   // XMEAS(8) %
	0.05,   // XMEAS(9) °C
	0.0017, // XMEAS(10) kscmh
	0.08,   // XMEAS(11) °C
	0.50,   // XMEAS(12) %
	5.0,    // XMEAS(13) kPa
	0.25,   // XMEAS(14) m3/h
	0.50,   // XMEAS(15) %
	5.0,    // XMEAS(16) kPa
	0.23,   // XMEAS(17) m3/h
	0.07,   // XMEAS(18) °C
	2.3,    // XMEAS(19) kg/h
	1.7,    // XMEAS(20) kW
	0.10,   // XMEAS(21) °C
	0.10,   // XMEAS(22) °C
	0.25,   // XMEAS(23) mol%
	0.10,   // XMEAS(24)
	0.20,   // XMEAS(25)
	0.10,   // XMEAS(26)
	0.15,   // XMEAS(27)
	0.05,   // XMEAS(28)
	0.25,   // XMEAS(29)
	0.12,   // XMEAS(30)
	0.20,   // XMEAS(31)
	0.04,   // XMEAS(32)
	0.15,   // XMEAS(33)
	0.06,   // XMEAS(34)
	0.08,   // XMEAS(35)
	0.05,   // XMEAS(36)
	0.01,   // XMEAS(37)
	0.03,   // XMEAS(38)
	0.01,   // XMEAS(39)
	0.25,   // XMEAS(40)
	0.25,   // XMEAS(41)
}
