package mat

// useAVX2 selects MulTVecInto's AVX2 kernel. It is set once from CPUID at
// package init; the package tests flip it to run the scalar loop as well.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// state: CPUID leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1–2
// (SSE and AVX state), and leaf 7 EBX bit 5 (AVX2). OSXSAVE is checked
// first because XGETBV faults without it.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// mulTVecAVX2 computes dst = pᵀ·x for a row-major len(x)×stride matrix p
// whose stride is a multiple of 4 and at least len(dst) > 0.
//
//go:noescape
func mulTVecAVX2(p []float64, stride int, x, dst []float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
