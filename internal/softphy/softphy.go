// Package softphy implements the SoftPHY interface math of §3.1–§3.2: the
// conversion from per-bit SoftPHY hints (|LLR| values exported by the
// decoder) to bit error probabilities (Equation 3), per-frame and
// per-OFDM-symbol BER estimation (Equation 4), and the interference
// detection heuristic that excises collision-damaged portions of a frame
// so that rate adaptation reacts only to the interference-free channel BER.
package softphy

import "math"

// BitErrorProb converts a SoftPHY hint s_k = |LLR(k)| into the probability
// that bit k was decoded incorrectly (Equation 3):
//
//	p_k = 1 / (1 + exp(s_k))
//
// Hints are |LLR| by contract, so s_k >= 0 and p_k ∈ (0, 0.5]. In that
// domain the direct form is numerically exact: exp(s) >= 1, the addition
// never cancels, and for large hints exp overflows gracefully to +Inf and
// p_k to 0 (an Expm1-based rearrangement would buy nothing). Out-of-domain
// inputs degrade softly rather than trap — a negative hint yields
// p_k ∈ (0.5, 1) (exact until exp underflows to 0 near s < -745, where p_k
// saturates at 1), and a NaN propagates — but they indicate a caller bug,
// which the tests assert against at package boundaries.
func BitErrorProb(hint float64) float64 {
	return 1 / (1 + math.Exp(hint))
}

// FrameBER averages p_k over all hints in a frame, the receiver's estimate
// of the channel BER during the frame — computable even when the frame had
// no bit errors at all, which is what lets SoftRate tell a 1e-9 channel
// from a 1e-4 one (§1).
func FrameBER(hints []float64) float64 {
	if len(hints) == 0 {
		return 0
	}
	var sum float64
	for _, s := range hints {
		sum += BitErrorProb(s)
	}
	return sum / float64(len(hints))
}

// minBlockBits is the target detection-block size: the paper's long-range
// prototype carries 768+ information bits per OFDM symbol, which is what
// makes its per-symbol BER estimates stable enough for the jump heuristic;
// modes with smaller symbols group several per block to match.
const minBlockBits = 512

// BlockBits returns the detection-block size (in hints) for a PHY whose
// OFDM symbols carry infoBitsPerSymbol information bits: the smallest
// whole number of symbols reaching minBlockBits.
func BlockBits(infoBitsPerSymbol int) int {
	if infoBitsPerSymbol <= 0 {
		return minBlockBits
	}
	k := (minBlockBits + infoBitsPerSymbol - 1) / infoBitsPerSymbol
	return k * infoBitsPerSymbol
}

// SymbolBERs averages p_k in groups of nbps bits — one group per OFDM
// symbol (Equation 4). The final group may be shorter because the
// trellis tail bits carry no hints.
func SymbolBERs(hints []float64, nbps int) []float64 {
	n := (len(hints) + nbps - 1) / nbps
	return AppendSymbolBERs(make([]float64, 0, n), hints, nbps)
}

// AppendSymbolBERs appends the per-symbol BER series to dst and returns
// the extended slice, allocating nothing when dst has sufficient capacity.
// The per-group summation order matches SymbolBERs exactly, so batch
// consumers see bit-identical estimates.
func AppendSymbolBERs(dst []float64, hints []float64, nbps int) []float64 {
	if nbps <= 0 {
		panic("softphy: nbps must be positive")
	}
	for base := 0; base < len(hints); base += nbps {
		end := base + nbps
		if end > len(hints) {
			end = len(hints)
		}
		var sum float64
		for _, s := range hints[base:end] {
			sum += BitErrorProb(s)
		}
		dst = append(dst, sum/float64(end-base))
	}
	return dst
}
