//go:build amd64

#include "textflag.h"

// expLanesAVX2 evaluates math.Exp four lanes at a time by replaying the
// FMA path of Go's exp_amd64.s (Shibata, ISC'10), which math.Exp takes on
// every CPU with AVX and FMA: k = x*Log2e rounded to an int32 by the
// current rounding mode, the two fused Cody-Waite steps with Ln2U and
// Ln2L, the 1/16 scaling, the fused Taylor chain, the four squarings, and
// the multiply by 2^k. Packed VFMADD/VMUL/VADD round each lane exactly as
// their scalar forms, so every lane with a normal 2^k is the float64
// math.Exp returns. Lanes math.Exp sends elsewhere — NaN, ±Inf, x above
// its Overflow bound, and k outside [-1022, 1023] (a subnormal, zero or
// infinite result) — keep their input in dst and are reported in the
// returned fixup mask.
//
// The constants are the .s file's own decimal literals, so the assembler
// rounds them to the same bits.

#define CONST4(name, val) \
	DATA name<>+0(SB)/8, $val \
	DATA name<>+8(SB)/8, $val \
	DATA name<>+16(SB)/8, $val \
	DATA name<>+24(SB)/8, $val \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(expLog2e, 1.4426950408889634073599246810018920)
CONST4(expLn2U, 0.69314718055966295651160180568695068359375)
CONST4(expLn2L, 0.28235290563031577122588448175013436025525412068e-12)
CONST4(expOverflow, 7.09782712893384e+02)
CONST4(expKMin, -1022.0)
CONST4(expKMax, 1023.0)
CONST4(expSixteenth, 0.0625)
CONST4(expC0, 0.5)
CONST4(expC8, 1.0)
CONST4(expC16, 2.0)
CONST4(expC24, 1.6666666666666666667e-1)
CONST4(expC32, 4.1666666666666666667e-2)
CONST4(expC40, 8.3333333333333333333e-3)
CONST4(expC48, 1.3888888888888888889e-3)
CONST4(expC56, 1.9841269841269841270e-4)
CONST4(expC64, 2.4801587301587301587e-5)
CONST4(expBias, 0x3FF)

// func expLanesAVX2(dst, x *float64, n int) uint64
//
// n is a multiple of 4 and at most 64; bit i of the result is lane i.
TEXT ·expLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), R10
	SHRQ $2, R10
	XORQ R8, R8                         // fixup mask
	XORQ CX, CX                         // lane base
	JMP  cond

loop:
	VMOVUPD (SI), Y0                    // x
	VMULPD expLog2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X2                   // k = int32(x * Log2e), CVTSD2SL
	VCVTDQ2PD X2, Y1                    // float64(k), CVTSL2SD
	VCMPPD $2, expOverflow<>(SB), Y0, Y3 // x <= Overflow, false on NaN
	VCMPPD $0x1D, expKMin<>(SB), Y1, Y4 // k >= -1022
	VANDPD Y4, Y3, Y3
	VCMPPD $2, expKMax<>(SB), Y1, Y4    // k <= 1023
	VANDPD Y4, Y3, Y10                  // lane on the normal path
	VMOVMSKPD Y10, AX
	XORL $0xF, AX
	SHLQ CX, AX
	ORQ  AX, R8
	VMOVAPD Y0, Y11                     // x, kept for the flagged lanes
	VMOVUPD expLn2U<>(SB), Y3
	VFNMADD231PD Y3, Y1, Y0             // x -= k*Ln2U, fused
	VMOVUPD expLn2L<>(SB), Y3
	VFNMADD231PD Y3, Y1, Y0             // x -= k*Ln2L, fused
	VMULPD expSixteenth<>(SB), Y0, Y0
	VMOVUPD expC64<>(SB), Y1
	VFMADD213PD expC56<>(SB), Y0, Y1
	VFMADD213PD expC48<>(SB), Y0, Y1
	VFMADD213PD expC40<>(SB), Y0, Y1
	VFMADD213PD expC32<>(SB), Y0, Y1
	VFMADD213PD expC24<>(SB), Y0, Y1
	VFMADD213PD expC0<>(SB), Y0, Y1
	VFMADD213PD expC8<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expC16<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expC16<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expC16<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expC16<>(SB), Y0, Y1
	VFMADD213PD expC8<>(SB), Y1, Y0     // fr
	VPMOVSXDQ X2, Y2
	VPADDQ expBias<>(SB), Y2, Y2
	VPSLLQ $52, Y2, Y2                  // 2^k
	VMULPD Y2, Y0, Y0
	VBLENDVPD Y10, Y0, Y11, Y0          // flagged lanes keep x
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $4, CX
	DECQ R10

cond:
	TESTQ R10, R10
	JNZ   loop
	VZEROUPPER
	MOVQ  R8, ret+24(FP)
	RET
