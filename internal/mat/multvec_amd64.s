#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// MADD adds row R9's four lanes at byte offset off, times the broadcast
// x[j] in Y15, into acc: a separate multiply and add (no FMA), so each
// lane rounds exactly as the scalar s += p*x does.
#define MADD(off, acc, tmp) \
	VMULPD off(R9), Y15, tmp; \
	VADDPD tmp, acc, acc

// SWEEP_HEAD points R9 at the sweep's columns of row 0, R10 at x[0] and
// loads the row count into R11.
#define SWEEP_HEAD \
	MOVQ SI, R9; \
	MOVQ BX, R10; \
	MOVQ CX, R11

// BCAST broadcasts x[j] into all four lanes of Y15.
#define BCAST VBROADCASTSD (R10), Y15

// SWEEP_STEP advances to row j+1 and counts down the rows (sets ZF).
#define SWEEP_STEP \
	ADDQ $8, R10; \
	ADDQ R8, R9; \
	DECQ R11

// func mulTVecAVX2(p []float64, stride int, x, dst []float64)
//
// Each sweep keeps k ≤ 6 ymm accumulators (4k scores) and walks the rows
// once in ascending order, so every lane is one chain in the scalar
// loop's order. The sweep's last group goes through `last`, which stores
// only the lanes dst still has.
//
// SI = p at the sweep's first column, R8 = row stride in bytes,
// BX = x, CX = rows, DI = dst at the sweep's first column,
// DX = dst elements left from DI.
TEXT ·mulTVecAVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), SI
	MOVQ stride+24(FP), R8
	SHLQ $3, R8
	MOVQ x_base+32(FP), BX
	MOVQ x_len+40(FP), CX
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), DX

sweep:
	CMPQ DX, $20
	JGT  sweep6
	CMPQ DX, $16
	JGT  sweep5
	CMPQ DX, $12
	JGT  sweep4
	CMPQ DX, $8
	JGT  sweep3
	CMPQ DX, $4
	JGT  sweep2

	VXORPD Y0, Y0, Y0
	SWEEP_HEAD
	TESTQ R11, R11
	JZ    last

loop1:
	BCAST
	MADD(0, Y0, Y8)
	SWEEP_STEP
	JNZ loop1
	JMP last

sweep2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SWEEP_HEAD
	TESTQ R11, R11
	JZ    store2

loop2:
	BCAST
	MADD(0, Y0, Y8)
	MADD(32, Y1, Y9)
	SWEEP_STEP
	JNZ loop2

store2:
	VMOVUPD Y0, 0(DI)
	VMOVAPD Y1, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, DX
	JMP     last

sweep3:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	SWEEP_HEAD
	TESTQ R11, R11
	JZ    store3

loop3:
	BCAST
	MADD(0, Y0, Y8)
	MADD(32, Y1, Y9)
	MADD(64, Y2, Y10)
	SWEEP_STEP
	JNZ loop3

store3:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVAPD Y2, Y0
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, DX
	JMP     last

sweep4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SWEEP_HEAD
	TESTQ R11, R11
	JZ    store4

loop4:
	BCAST
	MADD(0, Y0, Y8)
	MADD(32, Y1, Y9)
	MADD(64, Y2, Y10)
	MADD(96, Y3, Y11)
	SWEEP_STEP
	JNZ loop4

store4:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVAPD Y3, Y0
	ADDQ    $96, SI
	ADDQ    $96, DI
	SUBQ    $12, DX
	JMP     last

sweep5:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	SWEEP_HEAD
	TESTQ R11, R11
	JZ    store5

loop5:
	BCAST
	MADD(0, Y0, Y8)
	MADD(32, Y1, Y9)
	MADD(64, Y2, Y10)
	MADD(96, Y3, Y11)
	MADD(128, Y4, Y12)
	SWEEP_STEP
	JNZ loop5

store5:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVAPD Y4, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, DX
	JMP     last

sweep6:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	SWEEP_HEAD
	TESTQ R11, R11
	JZ    store6

loop6:
	BCAST
	MADD(0, Y0, Y8)
	MADD(32, Y1, Y9)
	MADD(64, Y2, Y10)
	MADD(96, Y3, Y11)
	MADD(128, Y4, Y12)
	MADD(160, Y5, Y13)
	SWEEP_STEP
	JNZ loop6

store6:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVAPD Y5, Y0
	ADDQ    $160, SI
	ADDQ    $160, DI
	SUBQ    $20, DX

// last stores the sweep's final group from Y0 at DI: all four lanes when
// dst has room, else only the 1–3 that remain. A full group with more of
// dst after it starts the next sweep.
last:
	CMPQ DX, $4
	JGE  full
	CMPQ DX, $2
	JLT  one
	JEQ  two
	VMOVUPD      X0, 0(DI)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X1, 16(DI)
	JMP          done

two:
	VMOVUPD X0, 0(DI)
	JMP     done

one:
	VMOVSD X0, 0(DI)
	JMP    done

full:
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, DX
	JGT     sweep

done:
	VZEROUPPER
	RET

// func subDivAVX2(dst, x, sub, div []float64)
//
// dst[i] = (x[i] − sub[i]) / div[i], four lanes per step: VSUBPD then
// VDIVPD, each lane rounding as the scalar SUBSD and DIVSD do, with the
// same operand order (so a NaN operand propagates the same payload).
// len(dst) is a positive multiple of 4; x, sub and div are at least as
// long.
TEXT ·subDivAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ sub_base+48(FP), R8
	MOVQ div_base+72(FP), R9
	SHLQ $3, CX
	XORQ AX, AX

subdiv:
	VMOVUPD (SI)(AX*1), Y0
	VSUBPD  (R8)(AX*1), Y0, Y0
	VDIVPD  (R9)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     subdiv
	VZEROUPPER
	RET

// bswap64 is the VPSHUFB control that reverses the bytes of each 8-byte
// lane. VPSHUFB indexes within 128-bit halves, so both halves hold the
// same pattern.
DATA bswap64<>+0x00(SB)/8, $0x0001020304050607
DATA bswap64<>+0x08(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap64<>+0x10(SB)/8, $0x0001020304050607
DATA bswap64<>+0x18(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswap64<>(SB), RODATA|NOPTR, $32

// func decodeBEAVX2(dst []float64, src []byte)
//
// dst[i] = the big-endian double at src[8i:], four per VPSHUFB: a pure
// byte move, so every bit pattern (NaN payloads included) arrives as the
// scalar binary.BigEndian decode delivers it. len(dst) is a positive
// multiple of 4 and len(src) ≥ 8·len(dst).
TEXT ·decodeBEAVX2(SB), NOSPLIT, $0-48
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	VMOVDQU bswap64<>(SB), Y1
	SHLQ    $3, CX
	XORQ    AX, AX

decode:
	VMOVDQU (SI)(AX*1), Y0
	VPSHUFB Y1, Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     decode
	VZEROUPPER
	RET
