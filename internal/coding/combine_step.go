package coding

import "math/bits"

// Whole-trellis-step combine tables. The trellis is fixed (K=7, 64 states,
// in-degree and out-degree exactly 2), so each recursion step decomposes
// into 64 independent destination rows, each folding exactly two
// (source row, branch-metric row) candidates. The step kernels walk these
// tables in a single call per trellis step, which exposes ~128 independent
// Jacobian evaluations to the out-of-order core at once — the per-row
// combine calls expose only two — and removes the sentinel-initialization
// pass entirely, since every destination row is fully rebuilt.
//
// Entries are 8 bytes: [dstRow, srcRowA, bmRowA, srcRowB, bmRowB, 0, 0, 0],
// with candidate A ordered before B exactly as the scalar decoder's (s, u)
// loop visits them, so the combine order (and therefore every float bit) is
// preserved. The APP table reuses the layout as
// [alphaRow, bmRow(u=0), betaRow(u=0), bmRow(u=1), betaRow(u=1)].
var (
	fwdStepTable [512]uint8
	bwdStepTable [512]uint8
	appStepTable [512]uint8
)

// narrowPerm holds the narrow step kernels' VPERMD index vectors, forward
// then backward: for loop iteration h, leg A's candidate A and B vectors,
// then leg B's, each lane's branch-metric row as the two dwords of one
// double. The kernels derive candidate sources from the state number
// alone; init checks that the step tables agree.
var narrowPerm [2][8][4][8]uint32

func init() {
	tr := theTrellis
	var seen [numStates]int
	for s := 0; s < numStates; s++ {
		for u := 0; u < 2; u++ {
			ns := int(tr.nextState[s][u])
			e := fwdStepTable[ns*8 : ns*8+8]
			if seen[ns] == 0 {
				e[0] = uint8(ns)
				e[1] = uint8(s)
				e[2] = tr.output[s][u]
			} else {
				e[3] = uint8(s)
				e[4] = tr.output[s][u]
			}
			seen[ns]++
		}
	}
	for s := 0; s < numStates; s++ {
		b := bwdStepTable[s*8 : s*8+8]
		b[0] = uint8(s)
		b[1] = tr.nextState[s][0]
		b[2] = tr.output[s][0]
		b[3] = tr.nextState[s][1]
		b[4] = tr.output[s][1]
		a := appStepTable[s*8 : s*8+8]
		a[0] = uint8(s)
		a[1] = tr.output[s][0]
		a[2] = tr.nextState[s][0]
		a[3] = tr.output[s][1]
		a[4] = tr.nextState[s][1]
	}
	for h := 0; h < 8; h++ {
		for leg := 0; leg < 2; leg++ {
			for i := 0; i < 4; i++ {
				ns := 32*leg + 4*h + i // forward destination
				f := fwdStepTable[ns*8 : ns*8+8]
				s := 8*h + 4*leg + i // backward state
				b := bwdStepTable[s*8 : s*8+8]
				if int(f[1]) != 2*(ns&31) || int(f[3]) != 2*(ns&31)+1 || int(b[1]) != s>>1 || int(b[3]) != 32|s>>1 {
					panic("coding: step tables do not match the narrow kernels' source pattern")
				}
				for c := 0; c < 2; c++ {
					for d, ent := range [2][]uint8{f, b} {
						o := uint32(ent[2+2*c])
						narrowPerm[d][h][2*leg+c][2*i] = 2 * o
						narrowPerm[d][h][2*leg+c][2*i+1] = 2*o + 1
					}
				}
			}
		}
	}
}

// combRows folds candidate m into accumulator x with the mode's comb.
func combRows(x, m float64, mode BCJRMode) float64 {
	if mode == MaxLog {
		return combMaxLog(x, m)
	}
	return combLogMAP(x, m)
}

// stepCombineEntry computes one destination lane of a whole-step combine
// from scratch: candidate A is assigned first (a sentinel source leaves the
// sentinel), candidate B folds in with the full comb semantics.
func stepCombineEntry(ent []uint8, src, bm []float64, L, l int, mode BCJRMode) float64 {
	x := bcjrNegInf
	if a := src[int(ent[1])*L+l]; !(a <= bcjrNegInf) {
		x = a + bm[int(ent[2])*L+l]
	}
	if b := src[int(ent[3])*L+l]; !(b <= bcjrNegInf) {
		x = combRows(x, b+bm[int(ent[4])*L+l], mode)
	}
	return x
}

// stepCombineLanes is the scalar whole-step combine for lanes [lo, hi): the
// non-AVX2 fallback and the MaxLog path (a log-MAP group on AVX2 hardware
// has no scalar lanes). Every destination row is fully written.
func stepCombineLanes(dst, src, bm []float64, table *[512]uint8, lo, hi, L int, mode BCJRMode) {
	for e := 0; e < numStates; e++ {
		ent := table[e*8 : e*8+8]
		drow := dst[int(ent[0])*L:]
		for l := lo; l < hi; l++ {
			drow[l] = stepCombineEntry(ent, src, bm, L, l, mode)
		}
	}
}

// applyStepFixups redoes, in scalar code, every (entry, lane) the vector
// step kernel flagged and left unstored.
func applyStepFixups(fix *[64]uint64, dst, src, bm []float64, table *[512]uint8, L int, mode BCJRMode) {
	for e := range fix {
		mask := fix[e]
		for mask != 0 {
			l := bits.TrailingZeros64(mask)
			mask &^= 1 << uint(l)
			ent := table[e*8 : e*8+8]
			dst[int(ent[0])*L+l] = stepCombineEntry(ent, src, bm, L, l, mode)
		}
	}
}

// appLane computes one lane's APP accumulators at one trellis step in the
// exact scalar recursion order (states ascending, u=0 into den then u=1
// into num).
func appLane(at, bt, bm []float64, L, l int, mode BCJRMode) (num, den float64) {
	tr := theTrellis
	num, den = bcjrNegInf, bcjrNegInf
	for s := 0; s < numStates; s++ {
		a := at[s*L+l]
		if a <= bcjrNegInf {
			continue
		}
		for u := 0; u < 2; u++ {
			b := bt[int(tr.nextState[s][u])*L+l]
			if b <= bcjrNegInf {
				continue
			}
			m := (a + bm[int(tr.output[s][u])*L+l]) + b
			if u == 1 {
				num = combRows(num, m, mode)
			} else {
				den = combRows(den, m, mode)
			}
		}
	}
	return num, den
}
