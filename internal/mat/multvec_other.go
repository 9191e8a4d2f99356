//go:build !amd64

package mat

// useAVX2 is false off amd64: MulTVecInto always runs its scalar loop.
var useAVX2 = false

func mulTVecAVX2(p []float64, stride int, x, dst []float64) {
	panic("mat: AVX2 kernel called off amd64")
}
