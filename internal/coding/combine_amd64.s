//go:build amd64

#include "textflag.h"

// Vectorized log-MAP combines for the lockstep batch decoder. Each lane
// folds a candidate branch metric m into an accumulator x with the
// single-frame decoder's comb semantics:
//
//	if x <= bcjrNegInf      -> x = m
//	else if m <= bcjrNegInf -> keep x
//	else                    -> x = maxStar(x, m)
//
// where maxStar(x, m) = max(x,m) + Log1p(Exp(-|x-m|)) with the correction
// dropped when |x-m| >= 10. Bit-identity with the scalar decoder comes
// from replicating the exact operation sequences of math.Exp's avxfma
// assembly path and math.Log1p's pure-Go fast paths: packed AVX ops are
// lane-wise IEEE-identical to their scalar counterparts, FMA is used
// exactly where the scalar code fuses (math.Exp) and never where it does
// not (math.Log1p). The correction argument d = |x-m| lies in [0, 10), so
// Exp's overflow/underflow branches and Log1p's tiny-argument branches are
// unreachable. Lanes whose control flow cannot be replicated in-vector —
// NaN differences (including Inf-Inf collisions) and Log1p arguments that
// reach the |f| < 2^-20 special case (iu2 == 0, e.g. exp(-d) == 1 exactly)
// — are excluded from the result store and reported in a fixup bitmask for
// the Go wrapper to redo with scalar code.
//
// The kernels (stepCombineDualAVX2/stepAPPBlockAVX2 and their AVX-512
// forms) take one whole trellis recursion step (or a block of APP steps)
// per call, driven by a 64-entry table (combine_step.go). Every entry's
// Jacobian work is independent, so one call exposes ~128 overlapping
// evaluation pipelines to the out-of-order core instead of the two a
// per-row call can. The APP kernel additionally interleaves a block of
// trellis steps per call, because each step's accumulation is a serial
// maxStar chain: with K steps in flight the chains overlap and the kernel
// runs at Jacobian throughput instead of chain latency. The narrow
// kernels (stepNarrowFwdAVX2/stepNarrowBwdAVX2) take one step of a single
// frame, with trellis states as the lanes.

// 8-lane broadcast float64/uint64 constants. The AVX2 kernels read the low
// 32 bytes, the AVX-512 kernels the full 64.
#define CONST8(name, bits) \
	DATA name<>+0(SB)/8, $bits \
	DATA name<>+8(SB)/8, $bits \
	DATA name<>+16(SB)/8, $bits \
	DATA name<>+24(SB)/8, $bits \
	DATA name<>+32(SB)/8, $bits \
	DATA name<>+40(SB)/8, $bits \
	DATA name<>+48(SB)/8, $bits \
	DATA name<>+56(SB)/8, $bits \
	GLOBL name<>(SB), RODATA|NOPTR, $64

CONST8(jcNegInf, 0xC6293E5939A08CEA)    // bcjrNegInf = -1e30
CONST8(jcTen, 0x4024000000000000)       // maxStarRange = 10.0
CONST8(jcAbs, 0x7FFFFFFFFFFFFFFF)
CONST8(jcSign, 0x8000000000000000)
CONST8(jcOne, 0x3FF0000000000000)       // also exponent field 0x3FF<<52
CONST8(jcHalf, 0x3FE0000000000000)      // also exponent field 0x3FE<<52
CONST8(jcTwo, 0x4000000000000000)
// math.Exp avxfma-path constants (exprodata in exp_amd64.s).
CONST8(jcLog2e, 0x3FF71547652B82FE)
CONST8(jcLn2U, 0x3FE62E42FEFA3000)
CONST8(jcLn2L, 0x3D53DE6AF278ECE6)
CONST8(jcSixteenth, 0x3FB0000000000000)
CONST8(jcC3, 0x3FC5555555555555)
CONST8(jcC4, 0x3FA5555555555555)
CONST8(jcC5, 0x3F81111111111111)
CONST8(jcC6, 0x3F56C16C16C16C17)
CONST8(jcC7, 0x3F2A01A01A01A01A)
CONST8(jcC8, 0x3EFA01A01A01A01A)
// math.Log1p constants (log1p.go).
CONST8(jcSqrt2M1, 0x3FDA827999FCEF32)   // Sqrt(2)-1, actual parsed bits
CONST8(jcMant, 0x000FFFFFFFFFFFFF)
CONST8(jcBound, 0x0006A09E667F3BCD)     // mantissa of Sqrt(2)
CONST8(jcHidden, 0x0010000000000000)
CONST8(jcLn2Hi, 0x3FE62E42FEE00000)
CONST8(jcLn2Lo, 0x3DEA39EF35793C76)
CONST8(jcLp1, 0x3FE5555555555593)
CONST8(jcLp2, 0x3FD999999997FA04)
CONST8(jcLp3, 0x3FD2492494229359)
CONST8(jcLp4, 0x3FCC71C51D8E78AF)
CONST8(jcLp5, 0x3FC7466496CB03DE)
CONST8(jcLp6, 0x3FC39A09D078C69F)
CONST8(jcLp7, 0x3FC2F112DF3E5244)

// exp bias 1023 as packed int32 for the ldexp step (low 16 bytes serve the
// 4-lane kernels, all 32 the 8-lane ones).
DATA jcBias<>+0(SB)/8, $0x000003FF000003FF
DATA jcBias<>+8(SB)/8, $0x000003FF000003FF
DATA jcBias<>+16(SB)/8, $0x000003FF000003FF
DATA jcBias<>+24(SB)/8, $0x000003FF000003FF
GLOBL jcBias<>(SB), RODATA|NOPTR, $32

// The combine core is split into composable pieces so the recursion-step
// and APP kernels can share it with different prologues/epilogues.
//
// Common register contract:
//   Inputs:  Y0 = x (accumulator), Y1 = m (candidates), Y2 = skip mask,
//            Y15 = 1.0 broadcast, R8 = fixup accumulator, R9 = lane base.
//   Outputs: Y3 = Ksx, Y4 = Ksm, Y5 = fixup mask, Y8 = a (max candidate),
//            Y9 = Kfar, Y13 = combined result (after CORE_BLEND).
//   Clobbers Y6-Y14, X13, AX, CX. Preserves Y0, Y1, Y2, Y15.

// CORE_MASKS classifies the lanes and sets flags for the all-excluded
// bailout: JE <fast label> must follow, where the fast label does
// VMOVUPD Y8, Y13 and falls through to CORE_BLEND.
#define CORE_MASKS \
	VCMPPD $2, jcNegInf<>(SB), Y0, Y3   /* Ksx = x <= sentinel          */ \
	VCMPPD $2, jcNegInf<>(SB), Y1, Y4   /* Ksm = m <= sentinel          */ \
	VSUBPD Y1, Y0, Y6                   /* d = x - m                    */ \
	VCMPPD $3, Y6, Y6, Y5               /* Kun = isNaN(d)               */ \
	VXORPD Y7, Y7, Y7                   \
	VCMPPD $1, Y7, Y6, Y7               /* Kswap = d < 0                */ \
	VBLENDVPD Y7, Y1, Y0, Y8            /* a = max candidate            */ \
	VANDPD jcAbs<>(SB), Y6, Y6          /* d = |d|                      */ \
	VCMPPD $13, jcTen<>(SB), Y6, Y9     /* Kfar = d >= 10               */ \
	VORPD Y3, Y2, Y7                    \
	VORPD Y4, Y7, Y7                    /* skip|Ksx|Ksm                 */ \
	VANDNPD Y5, Y7, Y5                  /* fixup = Kun & ~that          */ \
	VORPD Y9, Y7, Y10                   \
	VORPD Y5, Y10, Y10                  /* Kexcl: no Jacobian needed    */ \
	VMOVMSKPD Y10, AX                   \
	CMPL AX, $0x0F

// CORE_JACOBIAN computes Y13 = a + Log1p(Exp(-|d|)) for the non-excluded
// lanes and folds Log1p's unreplicable-branch lanes into the Y5 fixup mask.
#define CORE_JACOBIAN \
	VBLENDVPD Y10, Y15, Y6, Y11         /* din = excl ? 1.0 : d         */ \
	/* ---- exp(-din): math.Exp avxfma path, din in [0, 10) --------- */ \
	VXORPD jcSign<>(SB), Y11, Y11       /* xe = -din                    */ \
	VMULPD jcLog2e<>(SB), Y11, Y12      \
	VCVTPD2DQY Y12, X13                 /* k = round(xe*log2(e))        */ \
	VCVTDQ2PD X13, Y14                  \
	VMOVUPD Y11, Y12                    \
	VFNMADD231PD jcLn2U<>(SB), Y14, Y12 /* r = xe - kf*Ln2Hi            */ \
	VFNMADD231PD jcLn2L<>(SB), Y14, Y12 /* r -= kf*Ln2Lo                */ \
	VMULPD jcSixteenth<>(SB), Y12, Y12  \
	VMOVUPD jcC8<>(SB), Y11             \
	VFMADD213PD jcC7<>(SB), Y12, Y11    \
	VFMADD213PD jcC6<>(SB), Y12, Y11    \
	VFMADD213PD jcC5<>(SB), Y12, Y11    \
	VFMADD213PD jcC4<>(SB), Y12, Y11    \
	VFMADD213PD jcC3<>(SB), Y12, Y11    \
	VFMADD213PD jcHalf<>(SB), Y12, Y11  \
	VFMADD213PD jcOne<>(SB), Y12, Y11   \
	VMULPD Y11, Y12, Y12                /* s = r*q                      */ \
	VADDPD jcTwo<>(SB), Y12, Y14        \
	VMULPD Y14, Y12, Y12                /* s = s*(s+2), 1st squaring    */ \
	VADDPD jcTwo<>(SB), Y12, Y14        \
	VMULPD Y14, Y12, Y12                \
	VADDPD jcTwo<>(SB), Y12, Y14        \
	VMULPD Y14, Y12, Y12                \
	VADDPD jcTwo<>(SB), Y12, Y14        \
	VFMADD213PD jcOne<>(SB), Y14, Y12   /* s = s*(s+2) + 1              */ \
	VPADDD jcBias<>(SB), X13, X13       /* ldexp: 2^k via int bits      */ \
	VPMOVZXDQ X13, Y14                  \
	VPSLLQ $52, Y14, Y14                \
	VMULPD Y14, Y12, Y12                /* v = exp(-din), in (4e-5, 1]  */ \
	/* ---- log1p(v): math.Log1p fast paths ------------------------- */ \
	VCMPPD $1, jcSqrt2M1<>(SB), Y12, Y11 /* Ksimple = v < Sqrt(2)-1     */ \
	VADDPD Y15, Y12, Y13                /* u = 1 + v                    */ \
	VSUBPD Y12, Y13, Y14                \
	VSUBPD Y14, Y15, Y14                /* cA = 1 - (u-v)               */ \
	VSUBPD Y15, Y13, Y10                \
	VSUBPD Y10, Y12, Y10                /* cB = v - (u-1)               */ \
	VCMPPD $13, jcTwo<>(SB), Y13, Y7    /* exponent k0 > 0 iff u >= 2   */ \
	VBLENDVPD Y7, Y14, Y10, Y10         \
	VDIVPD Y13, Y10, Y10                /* c = (k0>0 ? cA : cB) / u     */ \
	VPAND jcMant<>(SB), Y13, Y14        /* iu = bits(u) & mantissa      */ \
	VMOVUPD jcBound<>(SB), Y7           \
	VPCMPGTQ Y14, Y7, Y7                /* KnoInc = iu < sqrt2 mantissa */ \
	VPOR jcOne<>(SB), Y14, Y13          \
	VPOR jcHalf<>(SB), Y14, Y6          \
	VBLENDVPD Y7, Y13, Y6, Y6           /* unorm: u or u/2 renormalized */ \
	VMOVUPD jcHidden<>(SB), Y13         \
	VPSUBQ Y14, Y13, Y13                \
	VPSRLQ $2, Y13, Y13                 \
	VBLENDVPD Y7, Y14, Y13, Y13         /* iu2 per log1p.go             */ \
	VPXOR Y14, Y14, Y14                 \
	VPCMPEQQ Y14, Y13, Y13              /* iu2 == 0: |f| < 2^-20 branch */ \
	VANDNPD Y13, Y11, Y13               /* ... only on the else path    */ \
	VORPD Y13, Y5, Y5                   /* fold into fixup mask         */ \
	VSUBPD Y15, Y6, Y6                  \
	VBLENDVPD Y11, Y12, Y6, Y6          /* f = simple ? v : unorm-1     */ \
	VORPD Y11, Y7, Y7                   /* Kk0: lanes with k == 0       */ \
	VMULPD jcHalf<>(SB), Y6, Y11        \
	VMULPD Y6, Y11, Y11                 /* hfsq = (0.5*f)*f             */ \
	VADDPD jcTwo<>(SB), Y6, Y12         \
	VDIVPD Y12, Y6, Y12                 /* s = f/(2+f)                  */ \
	VMULPD Y12, Y12, Y14                /* z = s*s                      */ \
	VMOVUPD jcLp7<>(SB), Y13            /* Horner chain, no FMA         */ \
	VMULPD Y13, Y14, Y13                \
	VADDPD jcLp6<>(SB), Y13, Y13        \
	VMULPD Y14, Y13, Y13                \
	VADDPD jcLp5<>(SB), Y13, Y13        \
	VMULPD Y14, Y13, Y13                \
	VADDPD jcLp4<>(SB), Y13, Y13        \
	VMULPD Y14, Y13, Y13                \
	VADDPD jcLp3<>(SB), Y13, Y13        \
	VMULPD Y14, Y13, Y13                \
	VADDPD jcLp2<>(SB), Y13, Y13        \
	VMULPD Y14, Y13, Y13                \
	VADDPD jcLp1<>(SB), Y13, Y13        \
	VMULPD Y13, Y14, Y13                /* R = z*poly                   */ \
	VADDPD Y11, Y13, Y13                \
	VMULPD Y13, Y12, Y13                /* sp = s*(hfsq+R)              */ \
	VSUBPD Y13, Y11, Y14                \
	VSUBPD Y14, Y6, Y14                 /* k=0: f - (hfsq-sp)           */ \
	VADDPD jcLn2Lo<>(SB), Y10, Y10      \
	VADDPD Y10, Y13, Y13                \
	VSUBPD Y13, Y11, Y13                \
	VSUBPD Y6, Y13, Y13                 \
	VMOVUPD jcLn2Hi<>(SB), Y11          \
	VSUBPD Y13, Y11, Y13                /* k=1: Ln2Hi - ((hfsq-(sp+(Ln2Lo+c)))-f) */ \
	VBLENDVPD Y7, Y14, Y13, Y13         /* g = log1p(exp(-d))           */ \
	VADDPD Y13, Y8, Y13                 /* a + g                        */

// CORE_BLEND resolves the excluded lanes to their scalar-path results.
// The x-sentinel blend comes last: x <= sentinel means unconditional
// assignment of m, whatever m is.
#define CORE_BLEND \
	VBLENDVPD Y9, Y8, Y13, Y13          /* far lanes: plain max         */ \
	VBLENDVPD Y4, Y0, Y13, Y13          /* m sentinel: keep x           */ \
	VBLENDVPD Y3, Y1, Y13, Y13          /* x sentinel: take m           */

// CORE_FIXBITS shifts the group's fixup lanes to their batch positions and
// accumulates them into R8.
#define CORE_FIXBITS \
	VMOVMSKPD Y5, AX                    \
	MOVQ R9, CX                         \
	SHLQ CX, AX                         \
	ORQ AX, R8

// Step-kernel epilogue: the destination row is fully overwritten (skip
// lanes resolve to the in-register x). Fixup lanes are stored too — their
// values are garbage, but the scalar redo recomputes them from the source
// plane and overwrites, never reads, dst. A masked store here would be
// poison for throughput: its mask hangs off the end of the Jacobian
// dependency chain, and a store whose mask is unresolved blocks every
// younger load, serializing otherwise-independent iterations at full chain
// latency.
#define CORE_STORE_STEP \
	VBLENDVPD Y2, Y0, Y13, Y13          /* skip lanes keep x            */ \
	VMOVUPD Y13, (DI)(R10*1)            \
	CORE_FIXBITS

// Accumulator epilogue: no store; the caller keeps Y13 as the new x.
#define CORE_ACC \
	VBLENDVPD Y2, Y0, Y13, Y13          /* skip lanes keep x            */ \
	CORE_FIXBITS

// func stepCombineDualAVX2(dstA, srcA, bmA, dstB, srcB, bmB *float64, tableA, tableB *uint8, fixA, fixB *uint64, n, stride int) uint64
//
// Two legs of 32 table entries each in a single call (plane set A with
// tableA, plane set B with tableB). The batch decoder passes the two halves
// of one recursion step's 64-entry table: every entry rebuilds its own
// destination row, so the legs are data-independent and running their
// per-entry work back to back gives the out-of-order core two adjacent
// Jacobian chains per loop iteration.
//
// Per table entry (combine_step.go layout) the destination row is rebuilt
// from its two candidates over n lanes (n a multiple of 4), with candidate
// A assigned first and candidate B folded via the combine core. Rows are
// stride bytes apart in all planes. fixA/fixB[entry] receive the per-entry
// fixup lane masks; fixup lanes are not stored. Returns the OR of all masks
// so the caller skips the fixup scan in the (overwhelmingly common) clean
// case.
//
// Frame locals: per-entry row pointers for leg A at 0/8/16/24 (srcA, bmA,
// srcB, bmB) and 32 (dst), for leg B at 40/48/56/64/72, entry index at 80.
TEXT ·stepCombineDualAVX2(SB), NOSPLIT, $88-104
	VMOVUPD jcOne<>(SB), Y15
	MOVQ $0, 80(SP)
	XORQ R12, R12

dcentry:
	MOVQ 80(SP), DX
	CMPQ DX, $32
	JGE  dcdone
	MOVQ stride+88(FP), R11
	MOVQ tableA+48(FP), BX
	MOVBLZX (BX)(DX*8), AX              // leg A dst row
	IMULQ R11, AX
	ADDQ dstA+0(FP), AX
	MOVQ AX, 32(SP)
	MOVBLZX 1(BX)(DX*8), AX             // leg A candidate A source row
	IMULQ R11, AX
	ADDQ srcA+8(FP), AX
	MOVQ AX, 0(SP)
	MOVBLZX 2(BX)(DX*8), AX             // leg A candidate A bm row
	IMULQ R11, AX
	ADDQ bmA+16(FP), AX
	MOVQ AX, 8(SP)
	MOVBLZX 3(BX)(DX*8), AX             // leg A candidate B source row
	IMULQ R11, AX
	ADDQ srcA+8(FP), AX
	MOVQ AX, 16(SP)
	MOVBLZX 4(BX)(DX*8), AX             // leg A candidate B bm row
	IMULQ R11, AX
	ADDQ bmA+16(FP), AX
	MOVQ AX, 24(SP)
	MOVQ tableB+56(FP), BX
	MOVBLZX (BX)(DX*8), AX              // leg B dst row
	IMULQ R11, AX
	ADDQ dstB+24(FP), AX
	MOVQ AX, 72(SP)
	MOVBLZX 1(BX)(DX*8), AX             // leg B candidate A source row
	IMULQ R11, AX
	ADDQ srcB+32(FP), AX
	MOVQ AX, 40(SP)
	MOVBLZX 2(BX)(DX*8), AX             // leg B candidate A bm row
	IMULQ R11, AX
	ADDQ bmB+40(FP), AX
	MOVQ AX, 48(SP)
	MOVBLZX 3(BX)(DX*8), AX             // leg B candidate B source row
	IMULQ R11, AX
	ADDQ srcB+32(FP), AX
	MOVQ AX, 56(SP)
	MOVBLZX 4(BX)(DX*8), AX             // leg B candidate B bm row
	IMULQ R11, AX
	ADDQ bmB+40(FP), AX
	MOVQ AX, 64(SP)
	XORQ R8, R8
	XORQ R13, R13
	XORQ R9, R9
	XORQ R10, R10
	MOVQ n+80(FP), R11
	SHLQ $3, R11

dcgroup:
	CMPQ R10, R11
	JGE  dcgdone
	MOVQ 0(SP), SI
	VMOVUPD (SI)(R10*1), Y1             // leg A srcA
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2   // KskipA
	MOVQ 8(SP), SI
	VADDPD (SI)(R10*1), Y1, Y1          // mA
	VBLENDVPD Y2, jcNegInf<>(SB), Y1, Y0 // x = skipA ? sentinel : mA
	MOVQ 16(SP), SI
	VMOVUPD (SI)(R10*1), Y1             // srcB
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2   // Kskip = KskipB
	MOVQ 24(SP), SI
	VADDPD (SI)(R10*1), Y1, Y1          // m = mB
	CORE_MASKS
	JE dcafast
	CORE_JACOBIAN
	JMP dcablend

dcafast:
	VMOVUPD Y8, Y13

dcablend:
	CORE_BLEND
	MOVQ 32(SP), DI
	CORE_STORE_STEP
	MOVQ 40(SP), SI
	VMOVUPD (SI)(R10*1), Y1             // leg B srcA
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2
	MOVQ 48(SP), SI
	VADDPD (SI)(R10*1), Y1, Y1
	VBLENDVPD Y2, jcNegInf<>(SB), Y1, Y0
	MOVQ 56(SP), SI
	VMOVUPD (SI)(R10*1), Y1
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2
	MOVQ 64(SP), SI
	VADDPD (SI)(R10*1), Y1, Y1
	CORE_MASKS
	JE dcbfast
	CORE_JACOBIAN
	JMP dcbblend

dcbfast:
	VMOVUPD Y8, Y13

dcbblend:
	CORE_BLEND
	VBLENDVPD Y2, Y0, Y13, Y13          // skip lanes keep x
	MOVQ 72(SP), DI
	VMOVUPD Y13, (DI)(R10*1)
	VMOVMSKPD Y5, AX                    // leg B fixups land in R13
	MOVQ R9, CX
	SHLQ CX, AX
	ORQ  AX, R13
	ADDQ $32, R10
	ADDQ $4, R9
	JMP  dcgroup

dcgdone:
	MOVQ 80(SP), DX
	MOVQ fixA+64(FP), SI
	MOVQ R8, (SI)(DX*8)
	ORQ  R8, R12
	MOVQ fixB+72(FP), SI
	MOVQ R13, (SI)(DX*8)
	ORQ  R13, R12
	INCQ DX
	MOVQ DX, 80(SP)
	JMP  dcentry

dcdone:
	VZEROUPPER
	MOVQ R12, ret+96(FP)
	RET

// func stepAPPBlockAVX2(num, den, alpha, beta, bm *float64, table *uint8, acc *uint64, n, stride, k int)
//
// A block of k consecutive APP accumulation steps in one call. Each step's
// num (u=1) and den (u=0) accumulators start at the sentinel and fold all
// 64 states' candidates (alpha + bm) + beta in table order — a serial
// maxStar chain whose latency cannot be hidden within one step. Interleaving
// the block is what buys the throughput: the entry loop is outermost and the
// step loop innermost, so the k steps' chains (2k accumulators) advance
// round-robin and their ~200-cycle Jacobian latencies overlap.
//
// Pointer layout: alpha rows for step j live at alpha + j*stride*64 (the
// caller passes the plane position of the block's first step); beta rows at
// beta + j*stride*64 (the caller pre-offsets beta by one row-plane so step j
// reads beta[t0+j+1]); branch metrics at bm + j*stride*4 (4 rows per step).
// acc holds k records of 72 bytes: {den[4]float64, num[4]float64,
// fix uint64}. The fix words are zeroed once per call and accumulate lane
// bits across lane groups (lane bases are distinct); the caller redoes
// flagged lanes' entire num+den accumulation in scalar code, so a poisoned
// lane accumulating garbage in place is harmless. The den/num records are
// re-sentineled per lane group and their final values stored to the num/den
// planes (row j at j*stride bytes).
//
// Frame locals: 0(SP) u=0 bm row offset, 8(SP) u=0 beta row offset,
// 16(SP) u=1 bm row offset, 24(SP) u=1 beta row offset, 32(SP) entry index,
// 40(SP) bm block stride.
TEXT ·stepAPPBlockAVX2(SB), NOSPLIT, $48-80
	VMOVUPD jcOne<>(SB), Y15
	MOVQ stride+64(FP), R8
	SHLQ $6, R8                         // plane stride: 64 rows per step
	MOVQ stride+64(FP), AX
	SHLQ $2, AX
	MOVQ AX, 40(SP)                     // bm block stride: 4 rows per step
	MOVQ acc+48(FP), DI
	MOVQ k+72(FP), R11

bazfix:
	MOVQ $0, 64(DI)
	ADDQ $72, DI
	DECQ R11
	JNZ  bazfix
	XORQ R9, R9
	XORQ R10, R10

bagroup:
	MOVQ n+56(FP), AX
	SHLQ $3, AX
	CMPQ R10, AX
	JGE  badone
	MOVQ acc+48(FP), DI
	MOVQ k+72(FP), R11
	VMOVUPD jcNegInf<>(SB), Y0

bainit:
	VMOVUPD Y0, (DI)
	VMOVUPD Y0, 32(DI)
	ADDQ $72, DI
	DECQ R11
	JNZ  bainit
	MOVQ $0, 32(SP)

baentry:
	MOVQ 32(SP), DX
	CMPQ DX, $64
	JGE  baedone
	MOVQ table+40(FP), SI
	MOVQ stride+64(FP), CX
	MOVBLZX (SI)(DX*8), AX              // alpha row s
	IMULQ CX, AX
	MOVQ alpha+16(FP), R12
	ADDQ AX, R12
	MOVBLZX 1(SI)(DX*8), AX             // u=0 branch-metric row
	IMULQ CX, AX
	MOVQ AX, 0(SP)
	MOVBLZX 2(SI)(DX*8), AX             // u=0 beta row
	IMULQ CX, AX
	MOVQ AX, 8(SP)
	MOVBLZX 3(SI)(DX*8), AX             // u=1 branch-metric row
	IMULQ CX, AX
	MOVQ AX, 16(SP)
	MOVBLZX 4(SI)(DX*8), AX             // u=1 beta row
	IMULQ CX, AX
	MOVQ AX, 24(SP)
	MOVQ beta+24(FP), R13
	MOVQ bm+32(FP), BX
	MOVQ acc+48(FP), DI
	MOVQ k+72(FP), R11

bajloop:
	VMOVUPD (R12)(R10*1), Y1            // a
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2
	MOVQ 0(SP), DX
	ADDQ BX, DX
	VADDPD (DX)(R10*1), Y1, Y1          // a + bm
	MOVQ 8(SP), DX
	ADDQ R13, DX
	VMOVUPD (DX)(R10*1), Y7             // b
	VCMPPD $2, jcNegInf<>(SB), Y7, Y6
	VORPD Y6, Y2, Y2                    // Kskip = aSent | bSent
	VADDPD Y7, Y1, Y1                   // m = (a + bm) + b
	VMOVUPD (DI), Y0                    // x = step j's den accumulator
	CORE_MASKS
	JE badfast
	CORE_JACOBIAN
	JMP badblend

badfast:
	VMOVUPD Y8, Y13

badblend:
	CORE_BLEND
	VBLENDVPD Y2, Y0, Y13, Y13          // skip lanes keep x
	VMOVUPD Y13, (DI)
	VMOVMSKPD Y5, AX
	MOVQ R9, CX
	SHLQ CX, AX
	ORQ  AX, 64(DI)                     // fold fixups into step j's word
	VMOVUPD (R12)(R10*1), Y1            // a again, u=1 leg
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2
	MOVQ 16(SP), DX
	ADDQ BX, DX
	VADDPD (DX)(R10*1), Y1, Y1
	MOVQ 24(SP), DX
	ADDQ R13, DX
	VMOVUPD (DX)(R10*1), Y7
	VCMPPD $2, jcNegInf<>(SB), Y7, Y6
	VORPD Y6, Y2, Y2
	VADDPD Y7, Y1, Y1
	VMOVUPD 32(DI), Y0                  // x = step j's num accumulator
	CORE_MASKS
	JE banfast
	CORE_JACOBIAN
	JMP banblend

banfast:
	VMOVUPD Y8, Y13

banblend:
	CORE_BLEND
	VBLENDVPD Y2, Y0, Y13, Y13
	VMOVUPD Y13, 32(DI)
	VMOVMSKPD Y5, AX
	MOVQ R9, CX
	SHLQ CX, AX
	ORQ  AX, 64(DI)
	ADDQ R8, R12                        // next step's alpha row
	ADDQ R8, R13                        // next step's beta plane
	ADDQ 40(SP), BX                     // next step's bm rows
	ADDQ $72, DI                        // next step's accumulators
	DECQ R11
	JNZ  bajloop
	MOVQ 32(SP), DX
	INCQ DX
	MOVQ DX, 32(SP)
	JMP  baentry

baedone:
	MOVQ acc+48(FP), DI
	MOVQ num+0(FP), R12
	MOVQ den+8(FP), R13
	MOVQ k+72(FP), R11

bastore:
	VMOVUPD (DI), Y0
	VMOVUPD Y0, (R13)(R10*1)
	VMOVUPD 32(DI), Y0
	VMOVUPD Y0, (R12)(R10*1)
	ADDQ $72, DI
	MOVQ stride+64(FP), DX
	ADDQ DX, R12
	ADDQ DX, R13
	DECQ R11
	JNZ  bastore
	ADDQ $32, R10
	ADDQ $4, R9
	JMP  bagroup

badone:
	VZEROUPPER
	RET

// func normalizeLanesAVX2(plane *float64, n, stride int)
//
// Per-lane normalize of a 64-row metric plane: each lane's running maximum
// over the rows (pass 1) is subtracted from every finite value unless the
// lane is entirely sentinel (pass 2). Bit-identical to the scalar loops in
// batch.go: VMAXPD's NaN/equal resolution (return the second source, here
// the running maximum) matches `if x > max`, the GT_OS compare matches
// `x > sentinel` under NaN, and the subtraction is the same IEEE op.
TEXT ·normalizeLanesAVX2(SB), NOSPLIT, $0-24
	XORQ R10, R10

nlgroup:
	MOVQ n+8(FP), AX
	SHLQ $3, AX
	CMPQ R10, AX
	JGE  nldone
	MOVQ plane+0(FP), SI
	ADDQ R10, SI
	MOVQ stride+16(FP), DX
	VMOVUPD (SI), Y0                    // running max = row 0
	MOVQ SI, DI
	MOVQ $63, CX

nlmax:
	ADDQ DX, DI
	VMOVUPD (DI), Y1
	VMAXPD Y0, Y1, Y0                   // x > max ? x : max
	DECQ CX
	JNZ  nlmax
	VCMPPD $2, jcNegInf<>(SB), Y0, Y2   // lane entirely sentinel
	MOVQ SI, DI
	MOVQ $64, CX

nlsub:
	VMOVUPD (DI), Y1
	VCMPPD $14, jcNegInf<>(SB), Y1, Y3  // x > sentinel
	VANDNPD Y3, Y2, Y3                  // ... and lane not all-sentinel
	VSUBPD Y0, Y1, Y4                   // x - max
	VBLENDVPD Y3, Y4, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ DX, DI
	DECQ CX
	JNZ  nlsub
	ADDQ $32, R10
	JMP  nlgroup

nldone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Narrow (state-parallel) recursion steps for groups of one to three
// frames, each frame's planes stored alone as [t][state]. Four destination
// states share a YMM instead of four frames. The trellis fixes both
// kernels' lane pattern: nextState[s][u] = u<<5 | s>>1, so forward
// destination ns folds candidate A from state 2m, then B from state 2m+1
// (m = ns&31, input u = ns>>5), and backward state s folds β[s>>1], then
// β[32|s>>1]. That is the step tables' candidate order (combine_step.go),
// so every lane runs the scalar fold order. The branch-metric row of each
// candidate comes from a VPERMD over the step's four metrics, with index
// vectors the Go side derives from the step tables (narrowPerm). The
// returned mask has bit e set for each destination state the Go wrapper
// must redo in scalar code (stored garbage, as in CORE_STORE_STEP).
//
// Register use beyond the core contract: DI = destination row, SI = source
// row cursor, BX = the step's four branch metrics, DX = index vector
// cursor (128 bytes per iteration: leg A's candidate A and B vectors, then
// leg B's), R9 = the leg's first destination state, R10 = its byte offset.

// NARROW_CANDS loads one leg's candidates from the stack slots a (A) and b
// (B), adds the branch metrics chosen by the index vectors at ia(DX) and
// ib(DX), and classifies the lanes (CORE_MASKS, so JE must follow).
#define NARROW_CANDS(a, b, ia, ib) \
	VMOVUPD a, Y1                       \
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2   /* KskipA                       */ \
	VMOVDQU ia(DX), Y6                  \
	VPERMD (BX), Y6, Y6                 /* candidate A's bm row         */ \
	VADDPD Y6, Y1, Y1                   \
	VBLENDVPD Y2, jcNegInf<>(SB), Y1, Y0 /* x = skipA ? sentinel : A    */ \
	VMOVUPD b, Y1                       \
	VCMPPD $2, jcNegInf<>(SB), Y1, Y2   /* Kskip = KskipB               */ \
	VMOVDQU ib(DX), Y6                  \
	VPERMD (BX), Y6, Y6                 \
	VADDPD Y6, Y1, Y1                   /* m = B                        */ \
	CORE_MASKS

// func stepNarrowFwdAVX2(dst, src, bm *float64, perm *uint32) uint64
//
// One forward step: iteration h reads sources 8h..8h+7 once and splits
// them into even (candidate A) and odd (candidate B) states; leg A builds
// destinations 4h..4h+3 (u = 0), leg B 32+4h..32+4h+3 (u = 1).
TEXT ·stepNarrowFwdAVX2(SB), NOSPLIT, $64-40
	VMOVUPD jcOne<>(SB), Y15
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ bm+16(FP), BX
	MOVQ perm+24(FP), DX
	XORQ R8, R8
	XORQ R9, R9

nfloop:
	VMOVUPD (SI), Y6
	VMOVUPD 32(SI), Y7
	VUNPCKLPD Y7, Y6, Y1
	VPERMPD $0xD8, Y1, Y1               // sources 2m, m = 4h..4h+3
	VMOVUPD Y1, 0(SP)
	VUNPCKHPD Y7, Y6, Y1
	VPERMPD $0xD8, Y1, Y1               // sources 2m+1
	VMOVUPD Y1, 32(SP)
	MOVQ R9, R10
	SHLQ $3, R10
	NARROW_CANDS(0(SP), 32(SP), 0, 32)
	JE nfafast
	CORE_JACOBIAN
	JMP nfablend

nfafast:
	VMOVUPD Y8, Y13

nfablend:
	CORE_BLEND
	CORE_STORE_STEP
	ADDQ $32, R9                        // leg B: destinations 32+4h..
	ADDQ $256, R10
	NARROW_CANDS(0(SP), 32(SP), 64, 96)
	JE nfbfast
	CORE_JACOBIAN
	JMP nfbblend

nfbfast:
	VMOVUPD Y8, Y13

nfbblend:
	CORE_BLEND
	CORE_STORE_STEP
	SUBQ $28, R9                        // next iteration's 4h
	ADDQ $64, SI
	ADDQ $128, DX
	CMPQ R9, $32
	JLT  nfloop
	VZEROUPPER
	MOVQ R8, ret+32(FP)
	RET

// func stepNarrowBwdAVX2(dst, src, bm *float64, perm *uint32) uint64
//
// One backward step: iteration h reads successors 4h..4h+3 (u = 0) and
// 32+4h..32+4h+3 (u = 1) and pairs each with the two states it follows;
// leg A builds states 8h..8h+3, leg B 8h+4..8h+7.
TEXT ·stepNarrowBwdAVX2(SB), NOSPLIT, $128-40
	VMOVUPD jcOne<>(SB), Y15
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ bm+16(FP), BX
	MOVQ perm+24(FP), DX
	XORQ R8, R8
	XORQ R9, R9

nbloop:
	VMOVUPD (SI), Y6                    // β[4h..4h+3]
	VMOVUPD 256(SI), Y7                 // β[32+4h..32+4h+3]
	VPERMPD $0x50, Y6, Y1               // s>>1 for s = 8h..8h+3
	VMOVUPD Y1, 0(SP)
	VPERMPD $0x50, Y7, Y1               // 32|s>>1
	VMOVUPD Y1, 32(SP)
	VPERMPD $0xFA, Y6, Y1               // s>>1 for s = 8h+4..8h+7
	VMOVUPD Y1, 64(SP)
	VPERMPD $0xFA, Y7, Y1
	VMOVUPD Y1, 96(SP)
	MOVQ R9, R10
	SHLQ $3, R10
	NARROW_CANDS(0(SP), 32(SP), 0, 32)
	JE nbafast
	CORE_JACOBIAN
	JMP nbablend

nbafast:
	VMOVUPD Y8, Y13

nbablend:
	CORE_BLEND
	CORE_STORE_STEP
	ADDQ $4, R9                         // leg B: states 8h+4..
	ADDQ $32, R10
	NARROW_CANDS(64(SP), 96(SP), 64, 96)
	JE nbbfast
	CORE_JACOBIAN
	JMP nbbblend

nbbfast:
	VMOVUPD Y8, Y13

nbbblend:
	CORE_BLEND
	CORE_STORE_STEP
	ADDQ $4, R9
	ADDQ $32, SI
	ADDQ $128, DX
	CMPQ R9, $64
	JLT  nbloop
	VZEROUPPER
	MOVQ R8, ret+32(FP)
	RET

// ---------------------------------------------------------------------------
// AVX-512 forms of the step kernels: 8 lanes per vector, comparisons landing
// in opmask registers, and merging VMOVAPD replacing every VBLENDVPD. Each
// packed operation is lane-wise IEEE-identical to its 4-lane counterpart, so
// bit-identity with the scalar decoder is inherited unchanged. The win is
// structural: the Jacobian evaluation is a ~200-cycle dependency chain the
// core overlaps poorly, and 8-lane vectors halve the number of chains per
// trellis step.
//
// Opmask contract (core Z macros):
//   Inputs:  Z0 = x, Z1 = m, K2 = skip, Z15 = 1.0, R8 = fixup acc,
//            R9 = lane base.
//   CORE_MASKS_Z sets K1 = Ksx, K3 = Ksm, K4 = Kfar, K5 = fixup, K7 = Kexcl,
//   Z8 = a, and leaves CF = 1 iff all 8 lanes are excluded: JC <fast label>
//   must follow, where the fast label does VMOVAPD Z8, Z13 and falls through
//   to CORE_BLEND_Z. Clobbers Z6, Z10-Z14, Y13, K0, K6, K7, AX, CX.
//   Preserves Z0, Z1, K2, Z15.

#define CORE_MASKS_Z \
	VCMPPD $2, jcNegInf<>(SB), Z0, K1   /* Ksx = x <= sentinel          */ \
	VCMPPD $2, jcNegInf<>(SB), Z1, K3   /* Ksm = m <= sentinel          */ \
	VSUBPD Z1, Z0, Z6                   /* d = x - m                    */ \
	VCMPPD $3, Z6, Z6, K5               /* Kun = isNaN(d)               */ \
	VPXORQ Z7, Z7, Z7                   \
	VCMPPD $1, Z7, Z6, K6               /* Kswap = d < 0                */ \
	VMOVAPD Z0, Z8                      \
	VMOVAPD Z1, K6, Z8                  /* a = max candidate            */ \
	VANDPD jcAbs<>(SB), Z6, Z6          /* d = |d|                      */ \
	VCMPPD $13, jcTen<>(SB), Z6, K4     /* Kfar = d >= 10               */ \
	KORW K1, K2, K7                     \
	KORW K3, K7, K7                     /* skip|Ksx|Ksm                 */ \
	KANDNW K5, K7, K5                   /* fixup = Kun & ~that          */ \
	KORW K4, K7, K7                     \
	KORW K5, K7, K7                     /* Kexcl: no Jacobian needed    */ \
	KORTESTB K7, K7                     /* CF = 1 iff all excluded      */

#define CORE_JACOBIAN_Z \
	VMOVAPD Z6, Z11                     \
	VMOVAPD Z15, K7, Z11                /* din = excl ? 1.0 : d         */ \
	/* ---- exp(-din): math.Exp avxfma path, din in [0, 10) --------- */ \
	VXORPD jcSign<>(SB), Z11, Z11       /* xe = -din                    */ \
	VMULPD jcLog2e<>(SB), Z11, Z12      \
	VCVTPD2DQ Z12, Y13                  /* k = round(xe*log2(e))        */ \
	VCVTDQ2PD Y13, Z14                  \
	VMOVAPD Z11, Z12                    \
	VFNMADD231PD jcLn2U<>(SB), Z14, Z12 /* r = xe - kf*Ln2Hi            */ \
	VFNMADD231PD jcLn2L<>(SB), Z14, Z12 /* r -= kf*Ln2Lo                */ \
	VMULPD jcSixteenth<>(SB), Z12, Z12  \
	VMOVUPD jcC8<>(SB), Z11             \
	VFMADD213PD jcC7<>(SB), Z12, Z11    \
	VFMADD213PD jcC6<>(SB), Z12, Z11    \
	VFMADD213PD jcC5<>(SB), Z12, Z11    \
	VFMADD213PD jcC4<>(SB), Z12, Z11    \
	VFMADD213PD jcC3<>(SB), Z12, Z11    \
	VFMADD213PD jcHalf<>(SB), Z12, Z11  \
	VFMADD213PD jcOne<>(SB), Z12, Z11   \
	VMULPD Z11, Z12, Z12                /* s = r*q                      */ \
	VADDPD jcTwo<>(SB), Z12, Z14        \
	VMULPD Z14, Z12, Z12                /* s = s*(s+2), 1st squaring    */ \
	VADDPD jcTwo<>(SB), Z12, Z14        \
	VMULPD Z14, Z12, Z12                \
	VADDPD jcTwo<>(SB), Z12, Z14        \
	VMULPD Z14, Z12, Z12                \
	VADDPD jcTwo<>(SB), Z12, Z14        \
	VFMADD213PD jcOne<>(SB), Z14, Z12   /* s = s*(s+2) + 1              */ \
	VPADDD jcBias<>(SB), Y13, Y13       /* ldexp: 2^k via int bits      */ \
	VPMOVZXDQ Y13, Z14                  \
	VPSLLQ $52, Z14, Z14                \
	VMULPD Z14, Z12, Z12                /* v = exp(-din), in (4e-5, 1]  */ \
	/* ---- log1p(v): math.Log1p fast paths ------------------------- */ \
	VCMPPD $1, jcSqrt2M1<>(SB), Z12, K6 /* Ksimple = v < Sqrt(2)-1      */ \
	VADDPD Z15, Z12, Z13                /* u = 1 + v                    */ \
	VSUBPD Z12, Z13, Z14                \
	VSUBPD Z14, Z15, Z14                /* cA = 1 - (u-v)               */ \
	VSUBPD Z15, Z13, Z10                \
	VSUBPD Z10, Z12, Z10                /* cB = v - (u-1)               */ \
	VCMPPD $13, jcTwo<>(SB), Z13, K7    /* exponent k0 > 0 iff u >= 2   */ \
	VMOVAPD Z14, K7, Z10                \
	VDIVPD Z13, Z10, Z10                /* c = (k0>0 ? cA : cB) / u     */ \
	VPANDQ jcMant<>(SB), Z13, Z14       /* iu = bits(u) & mantissa      */ \
	VPCMPQ $1, jcBound<>(SB), Z14, K7   /* KnoInc = iu < sqrt2 mantissa */ \
	VPORQ jcOne<>(SB), Z14, Z13         \
	VPORQ jcHalf<>(SB), Z14, Z6         \
	VMOVAPD Z13, K7, Z6                 /* unorm: u or u/2 renormalized */ \
	VMOVUPD jcHidden<>(SB), Z13         \
	VPSUBQ Z14, Z13, Z13                \
	VPSRLQ $2, Z13, Z13                 \
	VMOVAPD Z14, K7, Z13                /* iu2 per log1p.go             */ \
	VPTESTNMQ Z13, Z13, K0              /* iu2 == 0: |f| < 2^-20 branch */ \
	KANDNW K0, K6, K0                   /* ... only on the else path    */ \
	KORW K0, K5, K5                     /* fold into fixup mask         */ \
	VSUBPD Z15, Z6, Z6                  \
	VMOVAPD Z12, K6, Z6                 /* f = simple ? v : unorm-1     */ \
	KORW K6, K7, K7                     /* Kk0: lanes with k == 0       */ \
	VMULPD jcHalf<>(SB), Z6, Z11        \
	VMULPD Z6, Z11, Z11                 /* hfsq = (0.5*f)*f             */ \
	VADDPD jcTwo<>(SB), Z6, Z12         \
	VDIVPD Z12, Z6, Z12                 /* s = f/(2+f)                  */ \
	VMULPD Z12, Z12, Z14                /* z = s*s                      */ \
	VMOVUPD jcLp7<>(SB), Z13            /* Horner chain, no FMA         */ \
	VMULPD Z13, Z14, Z13                \
	VADDPD jcLp6<>(SB), Z13, Z13        \
	VMULPD Z14, Z13, Z13                \
	VADDPD jcLp5<>(SB), Z13, Z13        \
	VMULPD Z14, Z13, Z13                \
	VADDPD jcLp4<>(SB), Z13, Z13        \
	VMULPD Z14, Z13, Z13                \
	VADDPD jcLp3<>(SB), Z13, Z13        \
	VMULPD Z14, Z13, Z13                \
	VADDPD jcLp2<>(SB), Z13, Z13        \
	VMULPD Z14, Z13, Z13                \
	VADDPD jcLp1<>(SB), Z13, Z13        \
	VMULPD Z13, Z14, Z13                /* R = z*poly                   */ \
	VADDPD Z11, Z13, Z13                \
	VMULPD Z13, Z12, Z13                /* sp = s*(hfsq+R)              */ \
	VSUBPD Z13, Z11, Z14                \
	VSUBPD Z14, Z6, Z14                 /* k=0: f - (hfsq-sp)           */ \
	VADDPD jcLn2Lo<>(SB), Z10, Z10      \
	VADDPD Z10, Z13, Z13                \
	VSUBPD Z13, Z11, Z13                \
	VSUBPD Z6, Z13, Z13                 \
	VMOVUPD jcLn2Hi<>(SB), Z11          \
	VSUBPD Z13, Z11, Z13                /* k=1: Ln2Hi - ((hfsq-(sp+(Ln2Lo+c)))-f) */ \
	VMOVAPD Z14, K7, Z13                /* g = log1p(exp(-d))           */ \
	VADDPD Z13, Z8, Z13                 /* a + g                        */

#define CORE_BLEND_Z \
	VMOVAPD Z8, K4, Z13                 /* far lanes: plain max         */ \
	VMOVAPD Z0, K3, Z13                 /* m sentinel: keep x           */ \
	VMOVAPD Z1, K1, Z13                 /* x sentinel: take m           */

#define CORE_FIXBITS_Z \
	KMOVW K5, AX                        \
	MOVQ R9, CX                         \
	SHLQ CX, AX                         \
	ORQ AX, R8

#define CORE_STORE_STEP_Z \
	VMOVAPD Z0, K2, Z13                 /* skip lanes keep x            */ \
	VMOVUPD Z13, (DI)(R10*1)            \
	CORE_FIXBITS_Z

// func stepCombineDualAVX512(dstA, srcA, bmA, dstB, srcB, bmB *float64, tableA, tableB *uint8, fixA, fixB *uint64, n, stride int) uint64
//
// The 8-lane form of stepCombineDualAVX2 (n a multiple of 8); same frame
// and table layout, same fixup reporting.
TEXT ·stepCombineDualAVX512(SB), NOSPLIT, $88-104
	VMOVUPD jcOne<>(SB), Z15
	MOVQ $0, 80(SP)
	XORQ R12, R12

dzentry:
	MOVQ 80(SP), DX
	CMPQ DX, $32
	JGE  dzdone
	MOVQ stride+88(FP), R11
	MOVQ tableA+48(FP), BX
	MOVBLZX (BX)(DX*8), AX              // leg A dst row
	IMULQ R11, AX
	ADDQ dstA+0(FP), AX
	MOVQ AX, 32(SP)
	MOVBLZX 1(BX)(DX*8), AX             // leg A candidate A source row
	IMULQ R11, AX
	ADDQ srcA+8(FP), AX
	MOVQ AX, 0(SP)
	MOVBLZX 2(BX)(DX*8), AX             // leg A candidate A bm row
	IMULQ R11, AX
	ADDQ bmA+16(FP), AX
	MOVQ AX, 8(SP)
	MOVBLZX 3(BX)(DX*8), AX             // leg A candidate B source row
	IMULQ R11, AX
	ADDQ srcA+8(FP), AX
	MOVQ AX, 16(SP)
	MOVBLZX 4(BX)(DX*8), AX             // leg A candidate B bm row
	IMULQ R11, AX
	ADDQ bmA+16(FP), AX
	MOVQ AX, 24(SP)
	MOVQ tableB+56(FP), BX
	MOVBLZX (BX)(DX*8), AX              // leg B dst row
	IMULQ R11, AX
	ADDQ dstB+24(FP), AX
	MOVQ AX, 72(SP)
	MOVBLZX 1(BX)(DX*8), AX             // leg B candidate A source row
	IMULQ R11, AX
	ADDQ srcB+32(FP), AX
	MOVQ AX, 40(SP)
	MOVBLZX 2(BX)(DX*8), AX             // leg B candidate A bm row
	IMULQ R11, AX
	ADDQ bmB+40(FP), AX
	MOVQ AX, 48(SP)
	MOVBLZX 3(BX)(DX*8), AX             // leg B candidate B source row
	IMULQ R11, AX
	ADDQ srcB+32(FP), AX
	MOVQ AX, 56(SP)
	MOVBLZX 4(BX)(DX*8), AX             // leg B candidate B bm row
	IMULQ R11, AX
	ADDQ bmB+40(FP), AX
	MOVQ AX, 64(SP)
	XORQ R8, R8
	XORQ R13, R13
	XORQ R9, R9
	XORQ R10, R10
	MOVQ n+80(FP), R11
	SHLQ $3, R11

dzgroup:
	CMPQ R10, R11
	JGE  dzgdone
	MOVQ 0(SP), SI
	VMOVUPD (SI)(R10*1), Z1             // leg A srcA
	VCMPPD $2, jcNegInf<>(SB), Z1, K2   // KskipA
	MOVQ 8(SP), SI
	VADDPD (SI)(R10*1), Z1, Z1          // mA
	VMOVAPD Z1, Z0
	VMOVUPD jcNegInf<>(SB), K2, Z0      // x = skipA ? sentinel : mA
	MOVQ 16(SP), SI
	VMOVUPD (SI)(R10*1), Z1             // srcB
	VCMPPD $2, jcNegInf<>(SB), Z1, K2   // Kskip = KskipB
	MOVQ 24(SP), SI
	VADDPD (SI)(R10*1), Z1, Z1          // m = mB
	CORE_MASKS_Z
	JC dzafast
	CORE_JACOBIAN_Z
	JMP dzablend

dzafast:
	VMOVAPD Z8, Z13

dzablend:
	CORE_BLEND_Z
	MOVQ 32(SP), DI
	CORE_STORE_STEP_Z
	MOVQ 40(SP), SI
	VMOVUPD (SI)(R10*1), Z1             // leg B srcA
	VCMPPD $2, jcNegInf<>(SB), Z1, K2
	MOVQ 48(SP), SI
	VADDPD (SI)(R10*1), Z1, Z1
	VMOVAPD Z1, Z0
	VMOVUPD jcNegInf<>(SB), K2, Z0
	MOVQ 56(SP), SI
	VMOVUPD (SI)(R10*1), Z1
	VCMPPD $2, jcNegInf<>(SB), Z1, K2
	MOVQ 64(SP), SI
	VADDPD (SI)(R10*1), Z1, Z1
	CORE_MASKS_Z
	JC dzbfast
	CORE_JACOBIAN_Z
	JMP dzbblend

dzbfast:
	VMOVAPD Z8, Z13

dzbblend:
	CORE_BLEND_Z
	VMOVAPD Z0, K2, Z13                 // skip lanes keep x
	MOVQ 72(SP), DI
	VMOVUPD Z13, (DI)(R10*1)
	KMOVW K5, AX                        // leg B fixups land in R13
	MOVQ R9, CX
	SHLQ CX, AX
	ORQ  AX, R13
	ADDQ $64, R10
	ADDQ $8, R9
	JMP  dzgroup

dzgdone:
	MOVQ 80(SP), DX
	MOVQ fixA+64(FP), SI
	MOVQ R8, (SI)(DX*8)
	ORQ  R8, R12
	MOVQ fixB+72(FP), SI
	MOVQ R13, (SI)(DX*8)
	ORQ  R13, R12
	INCQ DX
	MOVQ DX, 80(SP)
	JMP  dzentry

dzdone:
	VZEROUPPER
	MOVQ R12, ret+96(FP)
	RET

// func stepAPPBlockAVX512(num, den, alpha, beta, bm *float64, table *uint8, acc *uint64, n, stride, k int)
//
// The 8-lane form of stepAPPBlockAVX2 (n a multiple of 8). The acc records
// widen to 136 bytes: {den[8]float64, num[8]float64, fix uint64}; pointer
// layout is otherwise identical.
TEXT ·stepAPPBlockAVX512(SB), NOSPLIT, $48-80
	VMOVUPD jcOne<>(SB), Z15
	MOVQ stride+64(FP), R8
	SHLQ $6, R8                         // plane stride: 64 rows per step
	MOVQ stride+64(FP), AX
	SHLQ $2, AX
	MOVQ AX, 40(SP)                     // bm block stride: 4 rows per step
	MOVQ acc+48(FP), DI
	MOVQ k+72(FP), R11

bzzfix:
	MOVQ $0, 128(DI)
	ADDQ $136, DI
	DECQ R11
	JNZ  bzzfix
	XORQ R9, R9
	XORQ R10, R10

bzgroup:
	MOVQ n+56(FP), AX
	SHLQ $3, AX
	CMPQ R10, AX
	JGE  bzdone
	MOVQ acc+48(FP), DI
	MOVQ k+72(FP), R11
	VMOVUPD jcNegInf<>(SB), Z0

bzinit:
	VMOVUPD Z0, (DI)
	VMOVUPD Z0, 64(DI)
	ADDQ $136, DI
	DECQ R11
	JNZ  bzinit
	MOVQ $0, 32(SP)

bzentry:
	MOVQ 32(SP), DX
	CMPQ DX, $64
	JGE  bzedone
	MOVQ table+40(FP), SI
	MOVQ stride+64(FP), CX
	MOVBLZX (SI)(DX*8), AX              // alpha row s
	IMULQ CX, AX
	MOVQ alpha+16(FP), R12
	ADDQ AX, R12
	MOVBLZX 1(SI)(DX*8), AX             // u=0 branch-metric row
	IMULQ CX, AX
	MOVQ AX, 0(SP)
	MOVBLZX 2(SI)(DX*8), AX             // u=0 beta row
	IMULQ CX, AX
	MOVQ AX, 8(SP)
	MOVBLZX 3(SI)(DX*8), AX             // u=1 branch-metric row
	IMULQ CX, AX
	MOVQ AX, 16(SP)
	MOVBLZX 4(SI)(DX*8), AX             // u=1 beta row
	IMULQ CX, AX
	MOVQ AX, 24(SP)
	MOVQ beta+24(FP), R13
	MOVQ bm+32(FP), BX
	MOVQ acc+48(FP), DI
	MOVQ k+72(FP), R11

bzjloop:
	VMOVUPD (R12)(R10*1), Z1            // a
	VCMPPD $2, jcNegInf<>(SB), Z1, K2
	MOVQ 0(SP), DX
	ADDQ BX, DX
	VADDPD (DX)(R10*1), Z1, Z1          // a + bm
	MOVQ 8(SP), DX
	ADDQ R13, DX
	VMOVUPD (DX)(R10*1), Z7             // b
	VCMPPD $2, jcNegInf<>(SB), Z7, K6
	KORW K6, K2, K2                     // Kskip = aSent | bSent
	VADDPD Z7, Z1, Z1                   // m = (a + bm) + b
	VMOVUPD (DI), Z0                    // x = step j's den accumulator
	CORE_MASKS_Z
	JC bzdfast
	CORE_JACOBIAN_Z
	JMP bzdblend

bzdfast:
	VMOVAPD Z8, Z13

bzdblend:
	CORE_BLEND_Z
	VMOVAPD Z0, K2, Z13                 // skip lanes keep x
	VMOVUPD Z13, (DI)
	KMOVW K5, AX
	MOVQ R9, CX
	SHLQ CX, AX
	ORQ  AX, 128(DI)                    // fold fixups into step j's word
	VMOVUPD (R12)(R10*1), Z1            // a again, u=1 leg
	VCMPPD $2, jcNegInf<>(SB), Z1, K2
	MOVQ 16(SP), DX
	ADDQ BX, DX
	VADDPD (DX)(R10*1), Z1, Z1
	MOVQ 24(SP), DX
	ADDQ R13, DX
	VMOVUPD (DX)(R10*1), Z7
	VCMPPD $2, jcNegInf<>(SB), Z7, K6
	KORW K6, K2, K2
	VADDPD Z7, Z1, Z1
	VMOVUPD 64(DI), Z0                  // x = step j's num accumulator
	CORE_MASKS_Z
	JC bznfast
	CORE_JACOBIAN_Z
	JMP bznblend

bznfast:
	VMOVAPD Z8, Z13

bznblend:
	CORE_BLEND_Z
	VMOVAPD Z0, K2, Z13
	VMOVUPD Z13, 64(DI)
	KMOVW K5, AX
	MOVQ R9, CX
	SHLQ CX, AX
	ORQ  AX, 128(DI)
	ADDQ R8, R12                        // next step's alpha row
	ADDQ R8, R13                        // next step's beta plane
	ADDQ 40(SP), BX                     // next step's bm rows
	ADDQ $136, DI                       // next step's accumulators
	DECQ R11
	JNZ  bzjloop
	MOVQ 32(SP), DX
	INCQ DX
	MOVQ DX, 32(SP)
	JMP  bzentry

bzedone:
	MOVQ acc+48(FP), DI
	MOVQ num+0(FP), R12
	MOVQ den+8(FP), R13
	MOVQ k+72(FP), R11

bzstore:
	VMOVUPD (DI), Z0
	VMOVUPD Z0, (R13)(R10*1)
	VMOVUPD 64(DI), Z0
	VMOVUPD Z0, (R12)(R10*1)
	ADDQ $136, DI
	MOVQ stride+64(FP), DX
	ADDQ DX, R12
	ADDQ DX, R13
	DECQ R11
	JNZ  bzstore
	ADDQ $64, R10
	ADDQ $8, R9
	JMP  bzgroup

bzdone:
	VZEROUPPER
	RET

// func normalizeLanesAVX512(plane *float64, n, stride int)
//
// The 8-lane form of normalizeLanesAVX2 (n a multiple of 8). VMAXPD's ZMM
// form has the same per-lane NaN/equal resolution, so bit-identity with the
// scalar passes is inherited.
TEXT ·normalizeLanesAVX512(SB), NOSPLIT, $0-24
	XORQ R10, R10

nzgroup:
	MOVQ n+8(FP), AX
	SHLQ $3, AX
	CMPQ R10, AX
	JGE  nzdone
	MOVQ plane+0(FP), SI
	ADDQ R10, SI
	MOVQ stride+16(FP), DX
	VMOVUPD (SI), Z0                    // running max = row 0
	MOVQ SI, DI
	MOVQ $63, CX

nzmax:
	ADDQ DX, DI
	VMOVUPD (DI), Z1
	VMAXPD Z0, Z1, Z0                   // x > max ? x : max
	DECQ CX
	JNZ  nzmax
	VCMPPD $2, jcNegInf<>(SB), Z0, K2   // lane entirely sentinel
	MOVQ SI, DI
	MOVQ $64, CX

nzsub:
	VMOVUPD (DI), Z1
	VCMPPD $14, jcNegInf<>(SB), Z1, K3  // x > sentinel
	KANDNW K3, K2, K3                   // ... and lane not all-sentinel
	VSUBPD Z0, Z1, Z4                   // x - max
	VMOVAPD Z4, K3, Z1
	VMOVUPD Z1, (DI)
	ADDQ DX, DI
	DECQ CX
	JNZ  nzsub
	ADDQ $64, R10
	JMP  nzgroup

nzdone:
	VZEROUPPER
	RET
