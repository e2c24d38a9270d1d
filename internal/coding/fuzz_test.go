package coding

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzWS and fuzzLat are the shared dirty workspace and depuncture
// lattice the fuzzer drives: carrying state from one input to the next is
// the point — any residue that leaks into a decode shows up as a
// divergence from the fresh-allocation reference.
var (
	fuzzWS  Workspace
	fuzzLat []float64
)

// FuzzDecodeWorkspaceReuse feeds arbitrary LLR lattices (including
// non-finite values) through depuncture and both decoders twice — once
// through the persistent dirty workspace, once through the allocating
// package-level functions — and requires bit-for-bit identical outputs;
// the BCJR outputs must also match the scalar decoder (refDecodeBCJR).
// This is the coding-layer analogue of the server's FuzzDecodeBatch: the
// property under test is that buffer reuse is contractually invisible.
func FuzzDecodeWorkspaceReuse(f *testing.F) {
	mk := func(n int, fill byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	f.Add(uint8(0), uint8(0), uint16(4), mk(64, 0x3c))
	f.Add(uint8(1), uint8(1), uint16(40), mk(256, 0x81))
	f.Add(uint8(2), uint8(0), uint16(121), mk(400, 0x55))
	f.Add(uint8(1), uint8(1), uint16(13), mk(8, 0xff)) // short input: padding path
	f.Fuzz(func(t *testing.T, rateSel, modeSel uint8, nInfoRaw uint16, raw []byte) {
		r := CodeRate(rateSel % 3)
		mode := BCJRMode(modeSel % 2)
		nInfo := 1 + int(nInfoRaw)%512
		nCoded := CodedLen(nInfo)

		// Interpret the raw bytes as packed float64 LLRs of the punctured
		// stream; out-of-range and non-finite values are kept — the decoder
		// must treat them identically with and without buffer reuse.
		llrs := make([]float64, len(raw)/8)
		for i := range llrs {
			llrs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if want := len(AppendPuncture(nil, make([]byte, nCoded), r)); len(llrs) > want {
			llrs = llrs[:want]
		}

		wantLat := DepunctureInto(make([]float64, nCoded), llrs, r)
		fuzzLat = growF(fuzzLat, nCoded)
		gotLat := DepunctureInto(fuzzLat, llrs, r)
		for i := range wantLat {
			if math.Float64bits(gotLat[i]) != math.Float64bits(wantLat[i]) {
				t.Fatalf("depuncture position %d differs: reused %v, fresh %v", i, gotLat[i], wantLat[i])
			}
		}

		wantInfo, wantLLR := DecodeBCJR(wantLat, nInfo, mode)
		// The scalar decoder is the reference; the vector kernels may carry
		// a different NaN payload, so against it NaNs compare as NaNs.
		refInfo, refLLR := refDecodeBCJR(wantLat, nInfo, mode)
		// Decode from the workspace's own lattice: the decoder must not
		// corrupt its input, and reuse must not change the result.
		gotInfo, gotLLR := fuzzWS.DecodeBCJR(gotLat, nInfo, mode)
		for k := 0; k < nInfo; k++ {
			if gotInfo[k] != wantInfo[k] {
				t.Fatalf("BCJR bit %d differs: reused %d, fresh %d", k, gotInfo[k], wantInfo[k])
			}
			if math.Float64bits(gotLLR[k]) != math.Float64bits(wantLLR[k]) {
				t.Fatalf("BCJR LLR %d differs: reused %v (bits %x), fresh %v (bits %x)",
					k, gotLLR[k], math.Float64bits(gotLLR[k]), wantLLR[k], math.Float64bits(wantLLR[k]))
			}
			if gotInfo[k] != refInfo[k] || !sameBits(gotLLR[k], refLLR[k]) {
				t.Fatalf("BCJR bit %d differs from the scalar decoder: info %d llr %v, want %d %v",
					k, gotInfo[k], gotLLR[k], refInfo[k], refLLR[k])
			}
		}

		wantV := DecodeViterbi(wantLat, nInfo)
		gotV := fuzzWS.DecodeViterbi(wantLat, nInfo)
		for k := 0; k < nInfo; k++ {
			if gotV[k] != wantV[k] {
				t.Fatalf("Viterbi bit %d differs: reused %d, fresh %d", k, gotV[k], wantV[k])
			}
		}
	})
}
