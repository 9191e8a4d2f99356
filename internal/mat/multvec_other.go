//go:build !amd64

package mat

// useAVX2 is false off amd64: MulTVecInto, SubDivInto and
// DecodeBigEndianInto always run their scalar loops.
var useAVX2 = false

func mulTVecAVX2(p []float64, stride int, x, dst []float64) {
	panic("mat: AVX2 kernel called off amd64")
}

func subDivAVX2(dst, x, sub, div []float64) {
	panic("mat: AVX2 kernel called off amd64")
}

func decodeBEAVX2(dst []float64, src []byte) {
	panic("mat: AVX2 kernel called off amd64")
}
