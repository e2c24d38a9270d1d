//go:build amd64

#include "textflag.h"

// The kernels here evaluate math.Cos(w*t + phi) four lanes at a time
// (AVX2) by replaying the operation sequence of math's pure-Go cos
// (sin.go) lane for lane: the argument as a multiply then an add, |x|,
// x*(4/Pi) truncated to the octant j, the odd-octant bump, the three-part
// Cody-Waite reduction, the octant's Cephes polynomial in Go's evaluation
// order, and the sign flip. Packed IEEE-754 ops are lane-wise identical
// to their scalar forms and no FMA is used, so every in-range lane is the
// exact float64 math.Cos returns. Lanes that math.Cos sends elsewhere —
// NaN, ±Inf and |x| >= 2^29 (its Payne-Hanek trigReduce path) — are
// stored as garbage and reported in the returned fixup mask for the Go
// wrapper to redo. cosLanesAVX2 takes one t and a lane per (w, phi);
// cosSumsAVX2 takes a lane per t and loops over the (w, phi) pairs,
// adding each lane's cosines from zero in ascending pair order. Each
// constant is as wide as the register that reads it.

#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits \
	DATA name<>+8(SB)/8, $bits \
	DATA name<>+16(SB)/8, $bits \
	DATA name<>+24(SB)/8, $bits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(cosAbs, 0x7FFFFFFFFFFFFFFF)
CONST4(cosSign, 0x8000000000000000)
CONST4(cosReduce, 0x41C0000000000000)  // reduceThreshold = 2^29
CONST4(cos4OverPi, 0x3FF45F306DC9C883) // 4/Pi
CONST4(cosPI4A, 0x3FE921FB40000000)
CONST4(cosPI4B, 0x3E64442D00000000)
CONST4(cosPI4C, 0x3CE8469898CC5170)
CONST4(cosHalf, 0x3FE0000000000000)
CONST4(cosOne, 0x3FF0000000000000)
// _cos[i] and _sin[i] of sin.go side by side in each 128-bit half, so
// VPERMILPD with j as its control picks each lane's coefficient: bit 1 of
// a control qword selects the half's second element.
#define PAIR4(name, cbits, sbits) \
	DATA name<>+0(SB)/8, $cbits \
	DATA name<>+8(SB)/8, $sbits \
	DATA name<>+16(SB)/8, $cbits \
	DATA name<>+24(SB)/8, $sbits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

PAIR4(cosP0, 0xBDA8FA49A0861A9B, 0x3DE5D8FD1FD19CCD)
PAIR4(cosP1, 0x3E21EE9D7B4E3F05, 0xBE5AE5E5A9291F5D)
PAIR4(cosP2, 0xBE927E4F7EAC4BC6, 0x3EC71DE3567D48A1)
PAIR4(cosP3, 0x3EFA01A019C844F5, 0xBF2A01A019BFDF03)
PAIR4(cosP4, 0xBF56C16C16C14F91, 0x3F8111111110F7D0)
PAIR4(cosP5, 0x3FA555555555554B, 0xBFC5555555555548)

// int32 1 in each of four lanes, for the odd-octant bump.
DATA cosOdd<>+0(SB)/8, $0x0000000100000001
DATA cosOdd<>+8(SB)/8, $0x0000000100000001
GLOBL cosOdd<>(SB), RODATA|NOPTR, $16

// COS4 sets Y8 = cos(Y0) for Y0 = |x| in range, clobbering Y1-Y10:
// j = uint64(x * (4/Pi)), bumped to even (j&7 is then 0, 2, 4 or 6);
// z = ((x - j*PI4A) - j*PI4B) - j*PI4C and zz = z*z; octants 2 and 6
// (bit 1 of j) take the sine polynomial P and the others the cosine Q,
// one Horner chain with each lane's own coefficients; then
//   sine:   z + z*zz*P             = base + (m*zz)*P, base = m = z
//   cosine: 1.0 - 0.5*zz + zz*zz*Q = base + (m*zz)*Q, m = zz
// and the sign flips in octants 2 and 4 (bit 1 xor bit 2).
#define COS4 \
	VMULPD cos4OverPi<>(SB), Y0, Y2 \
	VCVTTPD2DQY Y2, X2 \
	VPAND cosOdd<>(SB), X2, X3 \
	VPADDD X3, X2, X2 \
	VCVTDQ2PD X2, Y3 \
	VMULPD cosPI4A<>(SB), Y3, Y4 \
	VSUBPD Y4, Y0, Y0 \
	VMULPD cosPI4B<>(SB), Y3, Y4 \
	VSUBPD Y4, Y0, Y0 \
	VMULPD cosPI4C<>(SB), Y3, Y4 \
	VSUBPD Y4, Y0, Y0 \
	VMULPD Y0, Y0, Y1 \
	VPMOVZXDQ X2, Y2 \
	VMOVUPD cosP0<>(SB), Y4 \
	VPERMILPD Y2, Y4, Y4 \
	VMULPD Y1, Y4, Y4 \
	VMOVUPD cosP1<>(SB), Y5 \
	VPERMILPD Y2, Y5, Y5 \
	VADDPD Y5, Y4, Y4 \
	VMULPD Y1, Y4, Y4 \
	VMOVUPD cosP2<>(SB), Y5 \
	VPERMILPD Y2, Y5, Y5 \
	VADDPD Y5, Y4, Y4 \
	VMULPD Y1, Y4, Y4 \
	VMOVUPD cosP3<>(SB), Y5 \
	VPERMILPD Y2, Y5, Y5 \
	VADDPD Y5, Y4, Y4 \
	VMULPD Y1, Y4, Y4 \
	VMOVUPD cosP4<>(SB), Y5 \
	VPERMILPD Y2, Y5, Y5 \
	VADDPD Y5, Y4, Y4 \
	VMULPD Y1, Y4, Y4 \
	VMOVUPD cosP5<>(SB), Y5 \
	VPERMILPD Y2, Y5, Y5 \
	VADDPD Y5, Y4, Y4 \
	VPSLLQ $62, Y2, Y9 \
	VMULPD cosHalf<>(SB), Y1, Y7 \
	VMOVUPD cosOne<>(SB), Y8 \
	VSUBPD Y7, Y8, Y8 \
	VBLENDVPD Y9, Y0, Y8, Y8 \
	VBLENDVPD Y9, Y0, Y1, Y6 \
	VMULPD Y1, Y6, Y6 \
	VMULPD Y4, Y6, Y6 \
	VADDPD Y6, Y8, Y8 \
	VPSLLQ $1, Y2, Y10 \
	VPXOR Y2, Y10, Y10 \
	VPSLLQ $61, Y10, Y10 \
	VANDPD cosSign<>(SB), Y10, Y10 \
	VXORPD Y10, Y8, Y8

// func cosLanesAVX2(dst, w, phi *float64, t float64, n int) uint64
//
// n is a multiple of 4 and at most 64; bit i of the result is lane i.
TEXT ·cosLanesAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ phi+16(FP), DX
	VBROADCASTSD t+24(FP), Y15
	MOVQ n+32(FP), R10
	SHRQ $2, R10
	XORQ R8, R8                         // fixup mask
	XORQ CX, CX                         // lane base
	VMOVUPD cosAbs<>(SB), Y14
	VMOVUPD cosReduce<>(SB), Y13
	JMP  lanes4cond

lanes4:
	VMULPD (SI), Y15, Y0                // w*t
	VADDPD (DX), Y0, Y0                 // x = w*t + phi
	VANDPD Y14, Y0, Y0                  // x = |x|
	VCMPPD $1, Y13, Y0, Y1              // in range: x < 2^29, false on NaN
	VMOVMSKPD Y1, AX
	XORL $0xF, AX
	SHLQ CX, AX
	ORQ  AX, R8
	COS4
	VMOVUPD Y8, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $4, CX
	DECQ R10

lanes4cond:
	TESTQ R10, R10
	JNZ   lanes4
	VZEROUPPER
	MOVQ  R8, ret+40(FP)
	RET

// func cosSumsAVX2(dst, ts, w, phi *float64, n, m int) uint64
//
// dst[j] = Σ_{k<n} cos(w[k]*ts[j] + phi[k]) for j < m, m a multiple of 4
// and at most 64, n at least 1; bit j of the result flags a lane with an
// argument out of range.
TEXT ·cosSumsAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ts+8(FP), SI
	MOVQ w+16(FP), R11
	MOVQ phi+24(FP), R12
	MOVQ n+32(FP), R13
	MOVQ m+40(FP), R10
	SHRQ $2, R10
	XORQ R8, R8                         // fixup mask
	XORQ CX, CX                         // lane base
	VMOVUPD cosAbs<>(SB), Y14
	VMOVUPD cosReduce<>(SB), Y13
	JMP  sums4cond

sums4:
	VMOVUPD (SI), Y15                   // t
	VXORPD Y12, Y12, Y12                // sum = +0
	VXORPD Y11, Y11, Y11                // lanes out of range
	XORQ BX, BX                         // k

sums4osc:
	VBROADCASTSD (R11)(BX*8), Y0
	VMULPD Y15, Y0, Y0                  // w*t
	VBROADCASTSD (R12)(BX*8), Y1
	VADDPD Y1, Y0, Y0                   // x = w*t + phi
	VANDPD Y14, Y0, Y0                  // x = |x|
	VCMPPD $5, Y13, Y0, Y1              // out of range: !(x < 2^29), true on NaN
	VORPD Y1, Y11, Y11
	COS4
	VADDPD Y8, Y12, Y12                 // sum += cos
	INCQ BX
	CMPQ BX, R13
	JLT  sums4osc
	VMOVUPD Y12, (DI)
	VMOVMSKPD Y11, AX
	SHLQ CX, AX
	ORQ  AX, R8
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $4, CX
	DECQ R10

sums4cond:
	TESTQ R10, R10
	JNZ   sums4
	VZEROUPPER
	MOVQ  R8, ret+48(FP)
	RET
