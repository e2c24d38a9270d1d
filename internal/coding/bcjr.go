package coding

import "math"

// BCJRMode selects the recursion arithmetic of the BCJR decoder.
type BCJRMode int

const (
	// LogMAP uses the exact Jacobian logarithm via a lookup-table
	// correction; it is the reference mode and produces calibrated LLRs.
	LogMAP BCJRMode = iota
	// MaxLog drops the correction term (max-log-MAP). It is faster and
	// slightly optimistic in its confidences; used in the decoder ablation.
	MaxLog
)

// maxStarRange is the difference beyond which the Jacobian correction term
// log(1+exp(-d)) is below 3e-5 and is skipped.
const maxStarRange = 10.0

// maxStar computes log(exp(a)+exp(b)) exactly (up to the cutoff above).
// Keeping the correction exact matters: the SoftPHY hint calibration of
// Equation 3 is a statement about true a-posteriori probabilities, and a
// coarse tabulated correction accumulates enough bias over a frame-length
// recursion to visibly distort the hint-vs-BER curve.
func maxStar(a, b float64) float64 {
	d := a - b
	if d < 0 {
		a = b
		d = -d
	}
	if d >= maxStarRange {
		return a
	}
	return a + math.Log1p(math.Exp(-d))
}

const bcjrNegInf = -1e30

// DecodeBCJR runs the BCJR (log-MAP) algorithm over rate-1/2 channel LLRs
// (after DepunctureLLR for punctured rates) and returns the hard decisions
// together with the a-posteriori LLR for each information bit. |llrOut[k]|
// is the SoftPHY hint s_k; Equation 3 of the paper converts it to the
// probability that bit k was decoded in error:
//
//	p_k = 1 / (1 + exp(s_k))
//
// The trellis is terminated (Encode's tail), so both recursions are
// anchored in state 0.
//
// This package-level form allocates fresh output and trellis planes per
// call; the hot path uses Workspace.DecodeBCJR, which is the same decode
// on a reused workspace and allocation-free in steady state.
func DecodeBCJR(llrs []float64, nInfo int, mode BCJRMode) (info []byte, llrOut []float64) {
	var w Workspace
	wsInfo, wsLLR := w.DecodeBCJR(llrs, nInfo, mode)
	// The workspace is function-local, so its buffers can be handed out
	// directly — they are freshly allocated and never reused.
	return wsInfo, wsLLR
}

// branchMetrics computes the four possible branch log-likelihoods of one
// trellis step, indexed by the packed coded-bit pair o (out0 in bit 1,
// out1 in bit 0). The arithmetic matches the historical per-branch
// computation exactly: bm[o] = -0.5*(l0+l1), then +l0 if o&2, then +l1 if
// o&1, in that association order — recomputed once per step instead of
// once per (state, input) branch.
func branchMetrics(l0, l1 float64) (bm [4]float64) {
	base := -0.5 * (l0 + l1)
	bm[0] = base
	bm[1] = base + l1
	bm[2] = base + l0
	bm[3] = (base + l0) + l1
	return bm
}

// DecodeBCJR is the workspace form of the package-level DecodeBCJR: same
// inputs, bit-identical outputs, zero steady-state allocations. It runs
// the frame as a one-job batch on the workspace's BatchWorkspace, so a
// single frame takes the batch decoder's kernels and its two-phase split
// onto the helper goroutine. The returned slices alias the workspace and
// are valid until its next call.
func (w *Workspace) DecodeBCJR(llrs []float64, nInfo int, mode BCJRMode) (info []byte, llrOut []float64) {
	w.job[0] = BatchJob{LLRs: llrs, NInfo: nInfo}
	r := w.bcjr.DecodeBCJRBatch(w.job[:], mode)[0]
	w.job[0].LLRs = nil
	return r.Info, r.LLR
}

// normalize subtracts the maximum from a metric row to keep the log domain
// recursion numerically bounded over long frames.
func normalize(v []float64) {
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	if max <= bcjrNegInf {
		return
	}
	for i := range v {
		if v[i] > bcjrNegInf {
			v[i] -= max
		}
	}
}
