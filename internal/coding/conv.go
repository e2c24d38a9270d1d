// Package coding implements the 802.11a/g channel code: the constraint
// length K=7, rate-1/2 convolutional code with generator polynomials 133
// and 171 (octal), the 2/3 and 3/4 puncturing patterns that derive the
// higher code rates, a hard/soft-decision Viterbi decoder, and a
// soft-output BCJR (log-MAP) decoder.
//
// The BCJR decoder is the source of SoftPHY hints: it emits, for every
// information bit, the a-posteriori log-likelihood ratio
//
//	LLR(k) = log P(x_k = 1 | r) / P(x_k = 0 | r)
//
// whose magnitude |LLR(k)| is the SoftPHY hint s_k of the paper (§3.1).
//
// LLR sign convention throughout this package: positive means "bit = 1 is
// more likely". Channel LLRs for punctured (untransmitted) bits are zero,
// i.e. erasures.
package coding

import "math/bits"

// Constraint is the constraint length of the 802.11 convolutional code.
const Constraint = 7

// numStates is the number of trellis states (2^(K-1)).
const numStates = 1 << (Constraint - 1)

// TailBits is the number of zero tail bits appended by AppendEncode to
// terminate the trellis in the all-zero state, which lets the decoders
// anchor the backward recursion.
const TailBits = Constraint - 1

// Generator polynomials, written with the current input bit as the MSB of a
// 7-bit window [x_k, x_{k-1}, ..., x_{k-6}]: 133 octal and 171 octal.
const (
	gen0 = 0o133 // 1011011b
	gen1 = 0o171 // 1111001b
)

// trellis holds the precomputed state-transition tables shared by the
// encoder and both decoders.
type trellis struct {
	// nextState[s][u] is the state reached from s on input bit u.
	nextState [numStates][2]uint8
	// output[s][u] packs the two coded bits (out0 in bit 1, out1 in bit 0)
	// emitted on the transition from s with input u.
	output [numStates][2]uint8
}

// theTrellis is built once; the tables are tiny (64 states).
var theTrellis = buildTrellis()

func buildTrellis() *trellis {
	t := &trellis{}
	for s := 0; s < numStates; s++ {
		for u := 0; u < 2; u++ {
			// Window layout: bit 6 = current input, bits 5..0 = state
			// (bit 5 = most recent past bit).
			window := uint(u)<<6 | uint(s)
			out0 := uint8(bits.OnesCount(window&gen0) & 1)
			out1 := uint8(bits.OnesCount(window&gen1) & 1)
			ns := uint8((window >> 1) & (numStates - 1))
			t.nextState[s][u] = ns
			t.output[s][u] = out0<<1 | out1
		}
	}
	return t
}

// AppendEncode convolutionally encodes the information bits at rate 1/2,
// terminating the trellis by appending TailBits zero bits, appends the
// 2*(len(info)+TailBits) coded bits (interleaved as out0, out1 per input)
// to dst and returns the extended slice, allocating nothing when dst has
// sufficient capacity.
func AppendEncode(dst []byte, info []byte) []byte {
	state := uint8(0)
	tr := theTrellis
	for _, b := range info {
		o := tr.output[state][b&1]
		dst = append(dst, o>>1&1, o&1)
		state = tr.nextState[state][b&1]
	}
	for i := 0; i < TailBits; i++ {
		o := tr.output[state][0]
		dst = append(dst, o>>1&1, o&1)
		state = tr.nextState[state][0]
	}
	return dst
}

// CodedLen returns the number of rate-1/2 coded bits produced by
// AppendEncode for nInfo information bits (before puncturing).
func CodedLen(nInfo int) int { return 2 * (nInfo + TailBits) }
