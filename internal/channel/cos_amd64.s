//go:build amd64

#include "textflag.h"

// cosLanesAVX2 evaluates math.Cos(w[i]*t + phi[i]) four lanes at a time by
// replaying the operation sequence of math's pure-Go cos (sin.go) lane for
// lane: the argument as a multiply then an add, |x|, x*(4/Pi) truncated to
// the octant j, the odd-octant bump, the three-part Cody-Waite reduction,
// the octant's Cephes polynomial in Go's evaluation order, and the sign
// flip. Packed IEEE-754 ops are lane-wise identical to their
// scalar forms and no FMA is used, so every in-range lane is the exact
// float64 math.Cos returns. Lanes that math.Cos sends elsewhere — NaN, ±Inf
// and |x| >= 2^29 (its Payne-Hanek trigReduce path) — are stored as garbage
// and reported in the returned fixup mask for the Go wrapper to redo.

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
#define PAIR2(name, cbits, sbits) \
	DATA name<>+0(SB)/8, $cbits \
	DATA name<>+8(SB)/8, $sbits \
	DATA name<>+16(SB)/8, $cbits \
	DATA name<>+24(SB)/8, $sbits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

PAIR2(cosP0, 0xBDA8FA49A0861A9B, 0x3DE5D8FD1FD19CCD)
PAIR2(cosP1, 0x3E21EE9D7B4E3F05, 0xBE5AE5E5A9291F5D)
PAIR2(cosP2, 0xBE927E4F7EAC4BC6, 0x3EC71DE3567D48A1)
PAIR2(cosP3, 0x3EFA01A019C844F5, 0xBF2A01A019BFDF03)
PAIR2(cosP4, 0xBF56C16C16C14F91, 0x3F8111111110F7D0)
PAIR2(cosP5, 0x3FA555555555554B, 0xBFC5555555555548)

// int32 1 in each of four lanes, for the odd-octant bump.
DATA cosOdd<>+0(SB)/8, $0x0000000100000001
DATA cosOdd<>+8(SB)/8, $0x0000000100000001
GLOBL cosOdd<>(SB), RODATA|NOPTR, $16

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
	JMP  cond

loop:
	VMULPD (SI), Y15, Y0                // w*t
	VADDPD (DX), Y0, Y0                 // x = w*t + phi
	VANDPD Y14, Y0, Y0                  // x = |x|
	VCMPPD $1, Y13, Y0, Y1              // in range: x < 2^29, false on NaN
	VMOVMSKPD Y1, AX
	XORL $0xF, AX
	SHLQ CX, AX
	ORQ  AX, R8
	VMULPD cos4OverPi<>(SB), Y0, Y2
	VCVTTPD2DQY Y2, X2                  // j = uint64(x * (4/Pi))
	VPAND cosOdd<>(SB), X2, X3
	VPADDD X3, X2, X2                   // if j&1 == 1 { j++ }
	VCVTDQ2PD X2, Y3                    // y = float64(j), bumped
	VMULPD cosPI4A<>(SB), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD cosPI4B<>(SB), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD cosPI4C<>(SB), Y3, Y4
	VSUBPD Y4, Y0, Y0                   // z = ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD Y0, Y0, Y1                   // zz = z*z
	// j&7 is 0, 2, 4 or 6 after the bump: octants 2 and 6 (bit 1) take
	// the sine polynomial, the others the cosine. Both are the same
	// Horner chain over different coefficients, so one chain runs with
	// each lane's own.
	VPMOVZXDQ X2, Y2
	VMOVUPD cosP0<>(SB), Y4
	VPERMILPD Y2, Y4, Y4
	VMULPD Y1, Y4, Y4
	VMOVUPD cosP1<>(SB), Y5
	VPERMILPD Y2, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y1, Y4, Y4
	VMOVUPD cosP2<>(SB), Y5
	VPERMILPD Y2, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y1, Y4, Y4
	VMOVUPD cosP3<>(SB), Y5
	VPERMILPD Y2, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y1, Y4, Y4
	VMOVUPD cosP4<>(SB), Y5
	VPERMILPD Y2, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y1, Y4, Y4
	VMOVUPD cosP5<>(SB), Y5
	VPERMILPD Y2, Y5, Y5
	VADDPD Y5, Y4, Y4                   // P (sine) or Q (cosine)
	// sine:   z + z*zz*P             = base + (m*zz)*P, base = m = z
	// cosine: 1.0 - 0.5*zz + zz*zz*Q = base + (m*zz)*Q, m = zz
	VPSLLQ $62, Y2, Y9                  // bit 1 -> lane sign bit
	VMULPD cosHalf<>(SB), Y1, Y7
	VMOVUPD cosOne<>(SB), Y8
	VSUBPD Y7, Y8, Y8
	VBLENDVPD Y9, Y0, Y8, Y8            // base
	VBLENDVPD Y9, Y0, Y1, Y6            // m
	VMULPD Y1, Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y8, Y8                   // y = base + m*zz*poly
	// The sign flips in octants 2 and 4 (bit 1 xor bit 2).
	VPSLLQ $1, Y2, Y10
	VPXOR Y2, Y10, Y10
	VPSLLQ $61, Y10, Y10                // -> lane sign bit
	VANDPD cosSign<>(SB), Y10, Y10
	VXORPD Y10, Y8, Y8                  // if sign { y = -y }
	VMOVUPD Y8, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $4, CX
	DECQ R10

cond:
	TESTQ R10, R10
	JNZ   loop
	VZEROUPPER
	MOVQ  R8, ret+40(FP)
	RET
