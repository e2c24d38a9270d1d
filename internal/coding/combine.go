package coding

// This file holds the combine primitives of the lockstep batch decoder:
// folding one candidate branch metric into an accumulator with exactly
// the sentinel/maxStar semantics of the scalar single-frame decoder's
// inlined comb logic. The log-MAP form has vectorized amd64 step kernels
// (combine_amd64.s) that replicate the scalar math.Exp/math.Log1p
// operation sequences bit-for-bit: frame-parallel ones for groups of four
// or more frames and narrow, state-parallel ones for one to three. The
// MaxLog mode, hosts without AVX2 and FMA, and the (entry, lane) pairs the
// kernels flag run the scalar combs below (combine_step.go). Both paths
// are contractually bit-identical to the scalar decoder, which the tests
// keep as refDecodeBCJR (the batch equivalence suite and
// FuzzBatchDecodeMatchesSingle pin this).

// combLogMAP folds candidate m into accumulator x with the BCJR sentinel
// semantics and the exact Jacobian combine. It mirrors the scalar
// single-frame decoder's inlined check-for-check logic.
func combLogMAP(x, m float64) float64 {
	if x <= bcjrNegInf {
		return m
	}
	if m <= bcjrNegInf {
		return x
	}
	return maxStar(x, m)
}

// combMaxLog is combLogMAP without the Jacobian correction (max-log-MAP).
func combMaxLog(x, m float64) float64 {
	if x <= bcjrNegInf {
		return m
	}
	if m <= bcjrNegInf {
		return x
	}
	if !(x > m) {
		return m
	}
	return x
}
