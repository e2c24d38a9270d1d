//go:build amd64

package coding

import "softrate/internal/cpufeat"

// The vectorized log-MAP combine kernels require AVX2 (256-bit integer ops)
// and FMA3. On such hardware math.Exp's amd64 assembly takes its FMA path
// (math.useFMA is AVX&&FMA), which is the operation sequence the kernels
// in combine_amd64.s replicate lane-for-lane — packed IEEE-754 ops are
// bit-identical to their scalar forms, so the vector path produces exactly
// the floats the scalar decoder produces. Rare inputs whose math.Log1p
// control flow leaves the replicated fast paths (NaNs, Inf-Inf candidate
// collisions, arguments within ulps of u==2 inside Log1p) are reported in
// the fixup masks and re-run through the scalar code (applyStepFixups and
// appLane in combine_step.go).
var hasFastJacobian = cpufeat.AVX2 && cpufeat.FMA

// hasAVX512Jacobian additionally requires AVX512 F/DQ/VL (and OS ZMM+opmask
// state support): the 8-lane step kernels use ZMM vectors, opmask-register
// compares and merges, and EVEX-encoded YMM integer ops for the ldexp step.
// The arithmetic is the same lane-wise IEEE sequence as the 4-lane kernels,
// so the bit-identity contract is unchanged; the wider vectors halve the
// number of long-latency Jacobian chains per trellis step.
var hasAVX512Jacobian = hasFastJacobian && cpufeat.AVX512

// stepCombineDualAVX2 walks two legs of 32 table entries each (see
// combine_step.go) over n lanes, n a multiple of 4; the batch decoder
// passes the two halves of one recursion step's table. Rows are stride
// bytes apart. fixA/fixB[entry] receive the entries' fixup lane masks;
// fixup lanes are left unstored for applyStepFixups. The return value is
// the OR of all masks, so callers skip the fixup scan when it is zero.
//
//go:noescape
func stepCombineDualAVX2(dstA, srcA, bmA, dstB, srcB, bmB *float64, tableA, tableB *uint8, fixA, fixB *uint64, n, stride int) uint64

// stepNarrowFwdAVX2 and stepNarrowBwdAVX2 run one forward or backward
// recursion step of a single frame's [state] rows, four destination states
// per vector (see combine_amd64.s). bm points at the step's four branch
// metrics and perm at narrowPerm[0] or narrowPerm[1]. The result has bit e
// set for each destination state left for the scalar redo.
//
//go:noescape
func stepNarrowFwdAVX2(dst, src, bm *float64, perm *uint32) uint64

//go:noescape
func stepNarrowBwdAVX2(dst, src, bm *float64, perm *uint32) uint64

// stepAPPBlockAVX2 runs k consecutive APP accumulation steps in one call,
// interleaving their serial accumulation chains so the Jacobian latency
// overlaps across steps (see combine_amd64.s for the pointer and acc record
// layout). acc[j*9+8] receives step j's fixup lane mask; the caller redoes
// flagged lanes entirely with appLane.
//
//go:noescape
func stepAPPBlockAVX2(num, den, alpha, beta, bm *float64, table *uint8, acc *uint64, n, stride, k int)

// stepCombineDualAVX512 is the 8-lane form of stepCombineDualAVX2 (n a
// multiple of 8).
//
//go:noescape
func stepCombineDualAVX512(dstA, srcA, bmA, dstB, srcB, bmB *float64, tableA, tableB *uint8, fixA, fixB *uint64, n, stride int) uint64

// stepAPPBlockAVX512 is the 8-lane form of stepAPPBlockAVX2 (n a multiple
// of 8); acc holds k records of 17 words {den[8], num[8], fix}.
//
//go:noescape
func stepAPPBlockAVX512(num, den, alpha, beta, bm *float64, table *uint8, acc *uint64, n, stride, k int)

// normalizeLanesAVX512 is the 8-lane form of normalizeLanesAVX2 (n a
// multiple of 8).
//
//go:noescape
func normalizeLanesAVX512(plane *float64, n, stride int)

// normalizeLanesAVX2 is the vector form of bcjrHalf.normalizeLanes
// over n lanes (a multiple of 4), bit-identical to the scalar passes.
//
//go:noescape
func normalizeLanesAVX2(plane *float64, n, stride int)
