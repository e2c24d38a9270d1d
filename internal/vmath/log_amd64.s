//go:build amd64

#include "textflag.h"

// logLanesAVX2 evaluates math.Log four lanes at a time by replaying Go's
// log_amd64.s: f1 and k from the exponent and mantissa bits, the √2/2
// adjustment, f = f1 - 1, s = f/(2+f), the two even/odd polynomial
// chains, and k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f), with the
// same operations in the same order and no FMA. Lanes math.Log sends
// elsewhere — x ≤ 0, NaN, +Inf — and subnormal x keep their input in dst
// and are reported in the returned fixup mask.
//
// Two details of the scalar code are easy to get wrong. Its "f1 <
// math.Sqrt2/2" test is CMPSD with predicate NLT against HSqrt2, which
// is f1 <= √2/2. And AVX2 has no int64-to-float64 conversion, so k goes
// through the 2^52+2^51 magic: added to the integer bits and subtracted
// as a float64, exact for any |k| < 2^51. The constants are the .s
// file's own decimal literals, so the assembler rounds them to the same
// bits.

#define CONST4(name, val) \
	DATA name<>+0(SB)/8, $val \
	DATA name<>+8(SB)/8, $val \
	DATA name<>+16(SB)/8, $val \
	DATA name<>+24(SB)/8, $val \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(logHSqrt2, 7.07106781186547524401e-01)
CONST4(logLn2Hi, 6.93147180369123816490e-01)
CONST4(logLn2Lo, 1.90821492927058770002e-10)
CONST4(logL1, 6.666666666666735130e-01)
CONST4(logL2, 3.999999999940941908e-01)
CONST4(logL3, 2.857142874366239149e-01)
CONST4(logL4, 2.222219843214978396e-01)
CONST4(logL5, 1.818357216161805012e-01)
CONST4(logL6, 1.531383769920937332e-01)
CONST4(logL7, 1.479819860511658591e-01)
CONST4(logHalf, 0.5)
CONST4(logOne, 1.0)
CONST4(logTwo, 2.0)
CONST4(logMinNormal, 0x0010000000000000)
CONST4(logInf, 0x7FF0000000000000)
CONST4(logMant, 0x000FFFFFFFFFFFFF)
CONST4(logExpMask, 0x7FF)
CONST4(logMagic, 0x4338000000000000)  // 2^52 + 2^51
CONST4(logKMagic, 0x4337FFFFFFFFFC02) // the magic's bits - 0x3FE

// func logLanesAVX2(dst, x *float64, n int) uint64
//
// n is a multiple of 4 and at most 64; bit i of the result is lane i.
TEXT ·logLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), R10
	SHRQ $2, R10
	XORQ R8, R8                         // fixup mask
	XORQ CX, CX                         // lane base
	JMP  cond

loop:
	VMOVUPD (SI), Y0                    // x
	VCMPPD $0x0D, logMinNormal<>(SB), Y0, Y1 // x >= 2^-1022, false on NaN
	VCMPPD $1, logInf<>(SB), Y0, Y2     // x < +Inf
	VANDPD Y2, Y1, Y10                  // lane on the normal path
	VMOVMSKPD Y10, AX
	XORL $0xF, AX
	SHLQ CX, AX
	ORQ  AX, R8
	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD logMant<>(SB), Y0, Y2
	VORPD logHalf<>(SB), Y2, Y2         // f1
	VPSRLQ $52, Y0, Y1
	VPAND logExpMask<>(SB), Y1, Y1
	VPADDQ logKMagic<>(SB), Y1, Y1
	VSUBPD logMagic<>(SB), Y1, Y1       // k
	// if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 }
	VMOVUPD logHSqrt2<>(SB), Y3
	VCMPPD $5, Y2, Y3, Y3               // !(HSqrt2 < f1)
	VANDPD logOne<>(SB), Y3, Y3         // 0 or 1
	VSUBPD Y3, Y1, Y1
	VADDPD logOne<>(SB), Y3, Y3         // 1 or 2
	VMULPD Y3, Y2, Y2
	VSUBPD logOne<>(SB), Y2, Y2         // f = f1 - 1
	// s := f / (2 + f)
	VADDPD logTwo<>(SB), Y2, Y3
	VDIVPD Y3, Y2, Y3                   // s
	VMULPD Y3, Y3, Y4                   // s2
	VMULPD Y4, Y4, Y5                   // s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4                   // t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5                   // t2
	VADDPD Y5, Y4, Y4                   // R = t1 + t2
	// hfsq := 0.5 * f * f
	VMULPD logHalf<>(SB), Y2, Y6
	VMULPD Y2, Y6, Y6                   // hfsq
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y2, Y6, Y6
	VMULPD logLn2Hi<>(SB), Y1, Y1
	VSUBPD Y6, Y1, Y1
	VBLENDVPD Y10, Y1, Y0, Y1           // flagged lanes keep x
	VMOVUPD Y1, (DI)
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
