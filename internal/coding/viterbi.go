package coding

// DecodeViterbi runs a soft-decision Viterbi decoder over the rate-1/2
// channel LLRs (use DepunctureInto first for punctured rates) and returns
// the nInfo decoded information bits. The trellis is assumed terminated in
// the all-zero state by the TailBits appended by AppendEncode.
//
// Viterbi yields maximum-likelihood *sequence* decisions but no per-bit
// confidence; it exists as the baseline decoder against which the
// soft-output BCJR decoder is compared (ablation in DESIGN.md §4).
func DecodeViterbi(llrs []float64, nInfo int) []byte {
	var w Workspace
	return w.DecodeViterbi(llrs, nInfo)
}

// DecodeViterbi is the workspace form of the package-level DecodeViterbi:
// same inputs, bit-identical output, zero steady-state allocations. The
// returned slice aliases the workspace and is valid until its next call.
func (w *Workspace) DecodeViterbi(llrs []float64, nInfo int) []byte {
	steps := nInfo + TailBits
	llrs = w.padLLRs(llrs, steps)
	const negInf = -1e30
	w.metric = growF(w.metric, numStates)
	w.next = growF(w.next, numStates)
	metric, next := w.metric, w.next
	metric[0] = 0
	for s := 1; s < numStates; s++ {
		metric[s] = negInf
	}
	// survivors[t*numStates+s] holds the predecessor state of the winning
	// branch into state s at step t. Both branches entering a state carry
	// the same input bit (the state's top bit), so the input is recovered
	// from the state itself during traceback. The plane is cleared so that
	// a reused workspace matches a fresh zeroed allocation even on inputs
	// that leave states unreachable.
	w.survivors = growB(w.survivors, steps*numStates)
	survivors := w.survivors
	clear(survivors)
	tr := theTrellis
	for t := 0; t < steps; t++ {
		bm := branchMetrics(llrs[2*t], llrs[2*t+1])
		row := survivors[t*numStates : (t+1)*numStates : (t+1)*numStates]
		for s := range next {
			next[s] = negInf
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m <= negInf {
				continue
			}
			for u := 0; u < 2; u++ {
				ns := tr.nextState[s][u]
				cand := m + bm[tr.output[s][u]]
				if cand > next[ns] {
					next[ns] = cand
					row[ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}
	w.metric, w.next = metric, next
	// Traceback from state 0 (terminated trellis). The input bit consumed
	// when entering state s is s's most significant state bit.
	w.info = growB(w.info, steps)
	info := w.info
	state := uint8(0)
	for t := steps - 1; t >= 0; t-- {
		info[t] = state >> (Constraint - 2) & 1
		state = survivors[t*numStates+int(state)]
	}
	return info[:nInfo]
}

// HardToLLR converts hard-decision bits into saturated LLRs of magnitude
// mag, for driving the soft decoders with hard-decision inputs in tests.
func HardToLLR(bits []byte, mag float64) []float64 {
	llrs := make([]float64, len(bits))
	for i, b := range bits {
		if b != 0 {
			llrs[i] = mag
		} else {
			llrs[i] = -mag
		}
	}
	return llrs
}
