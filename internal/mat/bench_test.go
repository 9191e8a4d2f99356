package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatKernels compares the fused/unrolled kernels against the naive
// helpers they replace, at the row widths the monitors actually see (the
// Tennessee-Eastman-sized plants of the paper use tens of variables). Every
// *Into/unrolled case must report 0 allocs/op — the CI bench-smoke step runs
// these alongside the protocol benches.
func BenchmarkMatKernels(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		sub := randSlice(rng, n)
		div := randSlice(rng, n)
		for i := range div {
			if div[i] == 0 {
				div[i] = 1
			}
		}
		dst := make([]float64, n)
		a := MustNew(n, n)
		for i := 0; i < n; i++ {
			copy(a.RowView(i), randSlice(rng, n))
		}
		mv := make([]float64, n)
		var sink float64

		b.Run(fmt.Sprintf("Dot/naive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, _ := Dot(x, y)
				sink += s
			}
		})
		b.Run(fmt.Sprintf("Dot/unrolled/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += DotUnrolled(x, y)
			}
		})
		b.Run(fmt.Sprintf("MulVec/naive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _ := MulVec(a, x)
				sink += out[0]
			}
		})
		b.Run(fmt.Sprintf("MulVec/into/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = MulVecInto(a, x, mv)
				sink += mv[0]
			}
		})
		b.Run(fmt.Sprintf("SubDiv/fused/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SubDivInto(dst, x, sub, div)
			}
		})
		b.Run(fmt.Sprintf("FMA/fused/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FMAInto(dst, 0.99, x, 0.5)
			}
		})
		_ = sink
	}

	// The scoring projection at the paper's 53 variables: 20 components
	// (one sweep of five ymm accumulators) and 23 (padded to 24 lanes).
	// The generic rows are the scalar loop the kernel falls back to;
	// MulVec/into over Pᵀ is what ProjectInto runs on hosts without AVX2.
	for _, comps := range []int{20, 23} {
		rng := rand.New(rand.NewSource(int64(comps)))
		lanes := MustNew(53, (comps+3)&^3)
		for j := 0; j < 53; j++ {
			copy(lanes.RowView(j), randSlice(rng, comps))
		}
		x := randSlice(rng, 53)
		scores := make([]float64, comps)
		for _, avx2 := range []bool{true, false} {
			b.Run(fmt.Sprintf("MulTVec/%s/%dx53", pathName(avx2), comps), func(b *testing.B) {
				if avx2 && !useAVX2 {
					b.Skip("CPU has no AVX2")
				}
				b.ReportAllocs()
				withPath(avx2, func() {
					for i := 0; i < b.N; i++ {
						_ = MulTVecInto(lanes, x, scores)
					}
				})
			})
		}
	}
}
