package dataset

import (
	"math"
	"math/bits"
	"strconv"
)

// ParseNumber converts one CSV field to a float64 exactly as
// strconv.ParseFloat(s, 64) does: the same bits, and an error for exactly
// the fields ParseFloat rejects. It is the one number parser of the
// module's CSV readers.
//
// The plain decimal shape [-]digits[.digits] with at most 19 significant
// digits, which is every field a historian file written by WriteCSV holds
// in fixed notation, is converted here without ParseFloat's general
// scanner: a mantissa below 2^53 by Clinger's exact single division,
// a larger one by the Eisel–Lemire algorithm (Lemire, "Number Parsing at
// a Gigabyte per Second", 2021). Every other shape — exponents, a leading
// plus sign, Inf and NaN, hex floats, underscores, more digits — and the
// rare product Eisel–Lemire cannot round go to ParseFloat.
func ParseNumber[T string | []byte](s T) (float64, error) {
	if v, n, ok := parseDecimal(s); ok && n == len(s) {
		return v, nil
	}
	return strconv.ParseFloat(string(s), 64)
}

// parseDecimal converts the longest prefix of s that has the plain
// decimal shape and returns its length n; ok is false when that prefix
// holds no digit or its value must come from strconv.ParseFloat.
func parseDecimal[T string | []byte](s T) (v float64, n int, ok bool) {
	i := 0
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		i = 1
	}
	start := i
	// m wraps past 19 digits; then only leading zeros keep it exact.
	i, m := digitRun(s, i, 0)
	digits := i - start
	frac := 0
	if i < len(s) && s[i] == '.' {
		k := i + 1
		i, m = digitRun(s, k, m)
		frac = i - k
		digits += frac
	}
	if digits == 0 || digits > 19 && significant(s[start:i]) > 19 {
		return 0, 0, false
	}
	switch {
	case m < 1<<53 && frac < len(exactPow10):
		// m and 10^frac are both exact doubles, so the one rounding of
		// the division is the correctly rounded quotient.
		v = float64(m) / exactPow10[frac]
	case frac < len(negPow10):
		if v, ok = eiselLemire(m, frac); !ok {
			return 0, 0, false
		}
	default:
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// digitRun appends the run of decimal digits at s[i:] to the mantissa m
// and returns the index after it.
func digitRun[T string | []byte](s T, i int, m uint64) (int, uint64) {
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		m = m*10 + uint64(s[i]-'0')
	}
	return i, m
}

// significant counts the digits of a digits[.digits] run after its
// leading zeros.
func significant[T string | []byte](s T) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != '.' && (n > 0 || c != '0') {
			n++
		}
	}
	return n
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10Exp2 is floor(q·log2 10), the binary exponent of 10^q, for the
// small |q| used here.
func pow10Exp2(q int) int { return 217706 * q >> 16 }

// negPow10[k] is 10^-k for k = 0…19 as a 128-bit mantissa rounded down,
// {high, low}: floor(10^-k · 2^(127−e)) with e = pow10Exp2(−k), so the top
// bit is set. Each entry is the 192-bit long division 2^(127−e) / 10^k.
var negPow10 = func() (t [20][2]uint64) {
	d := uint64(1)
	for k := range t {
		shift := 127 - pow10Exp2(-k) // 127…191
		var num [3]uint64            // most significant word first
		num[2-shift/64] = 1 << (shift % 64)
		var q [3]uint64
		var r uint64
		for w := range num {
			q[w], r = bits.Div64(r, num[w], d)
		}
		t[k] = [2]uint64{q[1], q[2]}
		d *= 10
	}
	return t
}()

// eiselLemire returns m·10^-frac correctly rounded, for m ≥ 2^53 and
// frac < 20, or ok false when the truncated power leaves the rounding
// undecided.
func eiselLemire(m uint64, frac int) (v float64, ok bool) {
	clz := bits.LeadingZeros64(m)
	m <<= clz
	// Biased exponent of the result if the product's top bit is set.
	exp := uint64(pow10Exp2(-frac) + 64 + 1023 - clz)
	pow := &negPow10[frac]
	hi, lo := bits.Mul64(m, pow[0])
	if hi&0x1FF == 0x1FF && lo+m < m {
		// The bits below the mantissa are all ones: the low word of the
		// power may carry into them.
		yHi, yLo := bits.Mul64(m, pow[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+m < m {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	top := hi >> 63
	mant := hi >> (top + 9) // 54 bits: the mantissa and one rounding bit
	exp -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // maybe exactly halfway between two doubles
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp++
	}
	if exp-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(exp<<52 | mant&(1<<52-1)), true
}
