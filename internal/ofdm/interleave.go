package ofdm

import "sync"

// The 802.11a block interleaver. Within each OFDM symbol, coded bits are
// permuted in two steps so that (a) adjacent coded bits land on
// non-adjacent subcarriers and (b) they alternate between more and less
// significant constellation bit positions. Property (a) is what makes a
// collision distinguishable from frequency-selective fading: fading takes
// out clusters of adjacent subcarriers while a collision degrades the whole
// symbol (§4, "Interference detector").

// Permutation returns the interleaver mapping for one OFDM symbol carrying
// ncbps coded bits at nbpsc coded bits per subcarrier: output position
// perm[k] holds input bit k. ncbps must be a multiple of 16 (all modes in
// this repository satisfy this).
func Permutation(ncbps, nbpsc int) []int {
	if ncbps%16 != 0 {
		panic("ofdm: N_CBPS must be a multiple of 16")
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	perm := make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		// First permutation: write row-wise, read column-wise over 16
		// columns.
		i := (ncbps/16)*(k%16) + k/16
		// Second permutation: rotate bits within groups of s so that
		// coded bits alternate significance.
		j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
		perm[k] = j
	}
	return perm
}

// permCache memoizes Permutation results per (ncbps, nbpsc) pair. Only a
// handful of combinations exist (modes × modulation schemes), but the PHY
// historically rebuilt the table for every transmitted and received
// segment — two allocations and O(ncbps) work per frame for a permutation
// that never changes.
var permCache sync.Map // key uint64: ncbps<<8 | nbpsc -> []int

// CachedPermutation returns the shared interleaver mapping for the given
// (ncbps, nbpsc) pair, computing it on first use. Callers must treat the
// slice as read-only.
func CachedPermutation(ncbps, nbpsc int) []int {
	key := uint64(ncbps)<<8 | uint64(nbpsc)
	if p, ok := permCache.Load(key); ok {
		return p.([]int)
	}
	p, _ := permCache.LoadOrStore(key, Permutation(ncbps, nbpsc))
	return p.([]int)
}

// InterleaveBitsInto permutes the coded bits of a whole frame
// symbol-by-symbol using perm (from Permutation), writing into a
// caller-provided buffer of len(bits) bytes (typically per-worker scratch);
// it returns out. len(bits) must be a multiple of len(perm) — the PHY pads
// frames to whole OFDM symbols first — and out must not alias bits.
func InterleaveBitsInto(out, bits []byte, perm []int) []byte {
	n := len(perm)
	if len(bits)%n != 0 {
		panic("ofdm: frame not padded to whole symbols")
	}
	out = out[:len(bits)]
	for base := 0; base < len(bits); base += n {
		for k, v := range perm {
			out[base+v] = bits[base+k]
		}
	}
	return out
}

// DeinterleaveLLRsInto inverts the interleaving on per-coded-bit LLRs,
// restoring decoder order in a caller-provided buffer of len(llrs)
// entries; it returns out. out must not alias llrs.
func DeinterleaveLLRsInto(out, llrs []float64, perm []int) []float64 {
	n := len(perm)
	if len(llrs)%n != 0 {
		panic("ofdm: LLR stream not a whole number of symbols")
	}
	out = out[:len(llrs)]
	for base := 0; base < len(llrs); base += n {
		for k, v := range perm {
			out[base+k] = llrs[base+v]
		}
	}
	return out
}
