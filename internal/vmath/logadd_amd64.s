//go:build amd64

#include "textflag.h"

// logAddLanesAVX2 evaluates LogAdd four lanes at a time: the swap that
// puts the larger argument in hi (a < b is false on NaN, as in the scalar
// compare), d = hi - lo, hi itself where d > 30, and otherwise
// hi + Log1p(Exp(-d)).
//
// Exp(-d) replays exp_amd64.s's FMA path exactly as expLanesAVX2 does;
// for d in [0, 30] its k lies in [-44, 0], so every lane is on the normal
// path. Log1p(v), v in [e^-30, 1], replays the pure-Go math.Log1p (no FMA,
// the same operations in the same order) on all three branches its
// argument reaches: v < 2^-29 returns v - v*v*0.5 (d above 20.1); v below
// √2-1 takes k = 0 with f = v; the rest go through u = 1 + v with k = 0
// or 1 and the correction term c. This is the sequence
// coding/combine_amd64.s's CORE_JACOBIAN replays for its d in [0, 10),
// extended down to e^-30.
//
// Lanes it cannot replay — a NaN d (a NaN argument, or two infinities of
// one sign) and Log1p's |f| < 2^-20 branch (iu2 == 0, which d == 0 and so
// every exact tie reaches) — keep a in dst and are reported in the
// returned fixup mask.

#define CONST4(name, val) \
	DATA name<>+0(SB)/8, $val \
	DATA name<>+8(SB)/8, $val \
	DATA name<>+16(SB)/8, $val \
	DATA name<>+24(SB)/8, $val \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(laOne, 0x3FF0000000000000)       // also exponent field 0x3FF<<52
CONST4(laHalf, 0x3FE0000000000000)      // also exponent field 0x3FE<<52
CONST4(laTwo, 0x4000000000000000)
CONST4(laSign, 0x8000000000000000)
CONST4(laCutoff, 0x403E000000000000)    // 30
// exp_amd64.s's constants, as expLanesAVX2 spells them.
CONST4(laLog2e, 1.4426950408889634073599246810018920)
CONST4(laLn2U, 0.69314718055966295651160180568695068359375)
CONST4(laLn2L, 0.28235290563031577122588448175013436025525412068e-12)
CONST4(laSixteenth, 0.0625)
CONST4(laC24, 1.6666666666666666667e-1)
CONST4(laC32, 4.1666666666666666667e-2)
CONST4(laC40, 8.3333333333333333333e-3)
CONST4(laC48, 1.3888888888888888889e-3)
CONST4(laC56, 1.9841269841269841270e-4)
CONST4(laC64, 2.4801587301587301587e-5)
CONST4(laBias, 0x3FF)
// log1p.go's constants, as the compiler rounds them.
CONST4(laSmall, 0x3E20000000000000)     // 2^-29
CONST4(laSqrt2M1, 0x3FDA827999FCEF32)   // Sqrt(2)-1
CONST4(laMant, 0x000FFFFFFFFFFFFF)
CONST4(laBound, 0x0006A09E667F3BCD)     // mantissa of Sqrt(2)
CONST4(laHidden, 0x0010000000000000)
CONST4(laLn2Hi, 0x3FE62E42FEE00000)
CONST4(laLn2Lo, 0x3DEA39EF35793C76)
CONST4(laLp1, 0x3FE5555555555593)
CONST4(laLp2, 0x3FD999999997FA04)
CONST4(laLp3, 0x3FD2492494229359)
CONST4(laLp4, 0x3FCC71C51D8E78AF)
CONST4(laLp5, 0x3FC7466496CB03DE)
CONST4(laLp6, 0x3FC39A09D078C69F)
CONST4(laLp7, 0x3FC2F112DF3E5244)

// func logAddLanesAVX2(dst, a, b *float64, n int) uint64
//
// n is a multiple of 4 and at most 64; bit i of the result is lane i.
TEXT ·logAddLanesAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R10
	SHRQ $2, R10
	XORQ R8, R8                         // fixup mask
	XORQ CX, CX                         // lane base
	VMOVUPD laOne<>(SB), Y15
	JMP  cond

loop:
	VMOVUPD (SI), Y0                    // a, kept for the flagged lanes
	VMOVUPD (DX), Y1                    // b
	VCMPPD $1, Y1, Y0, Y2               // a < b, false on NaN
	VBLENDVPD Y2, Y1, Y0, Y8            // hi
	VBLENDVPD Y2, Y0, Y1, Y9            // lo
	VSUBPD Y9, Y8, Y6                   // d = hi - lo
	VCMPPD $3, Y6, Y6, Y5               // fixup: d is NaN
	VCMPPD $14, laCutoff<>(SB), Y6, Y9  // far: d > 30, false on NaN
	VORPD Y9, Y5, Y10                   // lanes needing no Log1p
	VMOVMSKPD Y10, AX
	CMPL AX, $0x0F
	JE   allout

	// ---- v = Exp(-d): exp_amd64.s's FMA path --------------------------
	VBLENDVPD Y10, Y15, Y6, Y11         // din = excluded ? 1 : d
	VXORPD laSign<>(SB), Y11, Y11       // x = -din
	VMULPD laLog2e<>(SB), Y11, Y1
	VCVTPD2DQY Y1, X2                   // k = int32(x * Log2e)
	VCVTDQ2PD X2, Y1                    // float64(k)
	VMOVUPD laLn2U<>(SB), Y3
	VFNMADD231PD Y3, Y1, Y11            // x -= k*Ln2U, fused
	VMOVUPD laLn2L<>(SB), Y3
	VFNMADD231PD Y3, Y1, Y11            // x -= k*Ln2L, fused
	VMULPD laSixteenth<>(SB), Y11, Y11
	VMOVUPD laC64<>(SB), Y1
	VFMADD213PD laC56<>(SB), Y11, Y1
	VFMADD213PD laC48<>(SB), Y11, Y1
	VFMADD213PD laC40<>(SB), Y11, Y1
	VFMADD213PD laC32<>(SB), Y11, Y1
	VFMADD213PD laC24<>(SB), Y11, Y1
	VFMADD213PD laHalf<>(SB), Y11, Y1
	VFMADD213PD laOne<>(SB), Y11, Y1
	VMULPD Y1, Y11, Y11
	VADDPD laTwo<>(SB), Y11, Y1
	VMULPD Y1, Y11, Y11
	VADDPD laTwo<>(SB), Y11, Y1
	VMULPD Y1, Y11, Y11
	VADDPD laTwo<>(SB), Y11, Y1
	VMULPD Y1, Y11, Y11
	VADDPD laTwo<>(SB), Y11, Y1
	VFMADD213PD laOne<>(SB), Y1, Y11    // fr
	VPMOVSXDQ X2, Y2
	VPADDQ laBias<>(SB), Y2, Y2
	VPSLLQ $52, Y2, Y2                  // 2^k
	VMULPD Y2, Y11, Y12                 // v

	// ---- Log1p(v) below 2^-29: v - v*v*0.5 ----------------------------
	VMULPD Y12, Y12, Y3
	VMULPD laHalf<>(SB), Y3, Y3
	VSUBPD Y3, Y12, Y3                  // tiny-branch result
	VCMPPD $1, laSmall<>(SB), Y12, Y4   // v < 2^-29

	// ---- Log1p(v) above: math.Log1p's k = 0 and k = 1 paths -----------
	VCMPPD $1, laSqrt2M1<>(SB), Y12, Y11 // simple: v < Sqrt(2)-1, k = 0, f = v
	VADDPD Y15, Y12, Y13                // u = 1 + v
	VSUBPD Y12, Y13, Y14
	VSUBPD Y14, Y15, Y14                // cA = 1 - (u-v)
	VSUBPD Y15, Y13, Y10
	VSUBPD Y10, Y12, Y10                // cB = v - (u-1)
	VCMPPD $13, laTwo<>(SB), Y13, Y7    // exponent of u above 0: u >= 2
	VBLENDVPD Y7, Y14, Y10, Y10
	VDIVPD Y13, Y10, Y10                // c = (k0 > 0 ? cA : cB) / u
	VPAND laMant<>(SB), Y13, Y14        // iu = bits(u) & mantissa
	VMOVUPD laBound<>(SB), Y7
	VPCMPGTQ Y14, Y7, Y7                // no increment: iu < Sqrt(2)'s mantissa
	VPOR laOne<>(SB), Y14, Y13
	VPOR laHalf<>(SB), Y14, Y6
	VBLENDVPD Y7, Y13, Y6, Y6           // u, or u/2, renormalized
	VMOVUPD laHidden<>(SB), Y13
	VPSUBQ Y14, Y13, Y13
	VPSRLQ $2, Y13, Y13
	VBLENDVPD Y7, Y14, Y13, Y13         // iu as log1p.go leaves it
	VPXOR Y14, Y14, Y14
	VPCMPEQQ Y14, Y13, Y13              // iu == 0: the |f| < 2^-20 branch
	VANDNPD Y13, Y11, Y13               // reached off the simple path only
	VORPD Y13, Y5, Y5
	VSUBPD Y15, Y6, Y6
	VBLENDVPD Y11, Y12, Y6, Y6          // f = simple ? v : u - 1
	VORPD Y11, Y7, Y7                   // lanes with k == 0
	VMULPD laHalf<>(SB), Y6, Y11
	VMULPD Y6, Y11, Y11                 // hfsq = 0.5*f*f
	VADDPD laTwo<>(SB), Y6, Y12
	VDIVPD Y12, Y6, Y12                 // s = f/(2+f)
	VMULPD Y12, Y12, Y14                // z = s*s
	VMOVUPD laLp7<>(SB), Y13
	VMULPD Y13, Y14, Y13
	VADDPD laLp6<>(SB), Y13, Y13
	VMULPD Y14, Y13, Y13
	VADDPD laLp5<>(SB), Y13, Y13
	VMULPD Y14, Y13, Y13
	VADDPD laLp4<>(SB), Y13, Y13
	VMULPD Y14, Y13, Y13
	VADDPD laLp3<>(SB), Y13, Y13
	VMULPD Y14, Y13, Y13
	VADDPD laLp2<>(SB), Y13, Y13
	VMULPD Y14, Y13, Y13
	VADDPD laLp1<>(SB), Y13, Y13
	VMULPD Y13, Y14, Y13                // R = z*(Lp1 + z*(...))
	VADDPD Y11, Y13, Y13
	VMULPD Y13, Y12, Y13                // sp = s*(hfsq+R)
	VSUBPD Y13, Y11, Y14
	VSUBPD Y14, Y6, Y14                 // k = 0: f - (hfsq-sp)
	VADDPD laLn2Lo<>(SB), Y10, Y10
	VADDPD Y10, Y13, Y13
	VSUBPD Y13, Y11, Y13
	VSUBPD Y6, Y13, Y13
	VMOVUPD laLn2Hi<>(SB), Y11
	VSUBPD Y13, Y11, Y13                // k = 1: Ln2Hi - ((hfsq-(sp+(Ln2Lo+c)))-f)
	VBLENDVPD Y7, Y14, Y13, Y13
	VBLENDVPD Y4, Y3, Y13, Y13          // g = Log1p(v)
	VADDPD Y13, Y8, Y13                 // hi + g
	JMP  blend

allout:
	VMOVAPD Y8, Y13

blend:
	VBLENDVPD Y9, Y8, Y13, Y13          // far lanes: hi
	VBLENDVPD Y5, Y0, Y13, Y13          // flagged lanes keep a
	VMOVUPD Y13, (DI)
	VMOVMSKPD Y5, AX
	SHLQ CX, AX
	ORQ  AX, R8
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $4, CX
	DECQ R10

cond:
	TESTQ R10, R10
	JNZ   loop
	VZEROUPPER
	MOVQ  R8, ret+32(FP)
	RET
