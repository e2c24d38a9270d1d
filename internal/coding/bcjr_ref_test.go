package coding

// refDecodeBCJR is the scalar single-frame log-MAP / max-log-MAP decoder
// the batch decoder replaced, kept verbatim apart from allocating its
// planes: the oracle every decoder-equivalence test and fuzz target holds
// DecodeBCJR and DecodeBCJRBatch to, bit for bit (NaN payloads aside).
func refDecodeBCJR(llrs []float64, nInfo int, mode BCJRMode) (info []byte, llrOut []float64) {
	steps := nInfo + TailBits
	if len(llrs) < 2*steps {
		llrs = append(llrs[:len(llrs):len(llrs)], make([]float64, 2*steps-len(llrs))...)
	}
	tr := theTrellis

	alpha := make([]float64, (steps+1)*numStates)
	beta := make([]float64, (steps+1)*numStates)

	// Forward recursion. Every plane row is fully initialized before it is
	// combined into, so a reused workspace is indistinguishable from a
	// fresh one.
	alpha[0] = 0
	for s := 1; s < numStates; s++ {
		alpha[s] = bcjrNegInf
	}
	for t := 0; t < steps; t++ {
		bm := branchMetrics(llrs[2*t], llrs[2*t+1])
		cur := alpha[t*numStates : (t+1)*numStates : (t+1)*numStates]
		nxt := alpha[(t+1)*numStates : (t+2)*numStates : (t+2)*numStates]
		for s := range nxt {
			nxt[s] = bcjrNegInf
		}
		for s := 0; s < numStates; s++ {
			a := cur[s]
			if a <= bcjrNegInf {
				continue
			}
			for u := 0; u < 2; u++ {
				ns := tr.nextState[s][u]
				m := a + bm[tr.output[s][u]]
				// Inlined comb(nxt[ns], m): sentinel checks first, then
				// max-log or exact Jacobian combine.
				if x := nxt[ns]; x <= bcjrNegInf {
					nxt[ns] = m
				} else if m <= bcjrNegInf {
					// keep x
				} else if mode == MaxLog {
					if !(x > m) {
						nxt[ns] = m
					}
				} else {
					nxt[ns] = maxStar(x, m)
				}
			}
		}
		normalize(nxt)
	}

	// Backward recursion.
	beta[steps*numStates] = 0
	for s := 1; s < numStates; s++ {
		beta[steps*numStates+s] = bcjrNegInf
	}
	for t := steps - 1; t >= 0; t-- {
		bm := branchMetrics(llrs[2*t], llrs[2*t+1])
		cur := beta[t*numStates : (t+1)*numStates : (t+1)*numStates]
		nxt := beta[(t+1)*numStates : (t+2)*numStates : (t+2)*numStates]
		for s := range cur {
			cur[s] = bcjrNegInf
		}
		for s := 0; s < numStates; s++ {
			for u := 0; u < 2; u++ {
				b := nxt[tr.nextState[s][u]]
				if b <= bcjrNegInf {
					continue
				}
				m := b + bm[tr.output[s][u]]
				if x := cur[s]; x <= bcjrNegInf {
					cur[s] = m
				} else if m <= bcjrNegInf {
					// keep x
				} else if mode == MaxLog {
					if !(x > m) {
						cur[s] = m
					}
				} else {
					cur[s] = maxStar(x, m)
				}
			}
		}
		normalize(cur)
	}

	// Per-bit APP LLRs.
	info, llrOut = make([]byte, nInfo), make([]float64, nInfo)
	for t := 0; t < nInfo; t++ {
		bm := branchMetrics(llrs[2*t], llrs[2*t+1])
		at := alpha[t*numStates : (t+1)*numStates : (t+1)*numStates]
		bt := beta[(t+1)*numStates : (t+2)*numStates : (t+2)*numStates]
		num, den := bcjrNegInf, bcjrNegInf // input 1, input 0
		for s := 0; s < numStates; s++ {
			a := at[s]
			if a <= bcjrNegInf {
				continue
			}
			for u := 0; u < 2; u++ {
				b := bt[tr.nextState[s][u]]
				if b <= bcjrNegInf {
					continue
				}
				m := (a + bm[tr.output[s][u]]) + b
				if u == 1 {
					if num <= bcjrNegInf {
						num = m
					} else if m <= bcjrNegInf {
						// keep num
					} else if mode == MaxLog {
						if !(num > m) {
							num = m
						}
					} else {
						num = maxStar(num, m)
					}
				} else {
					if den <= bcjrNegInf {
						den = m
					} else if m <= bcjrNegInf {
						// keep den
					} else if mode == MaxLog {
						if !(den > m) {
							den = m
						}
					} else {
						den = maxStar(den, m)
					}
				}
			}
		}
		llr := num - den
		llrOut[t] = llr
		if llr >= 0 {
			info[t] = 1
		} else {
			info[t] = 0
		}
	}
	return info, llrOut
}
