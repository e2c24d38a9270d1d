package ratectl

import (
	"math"

	"softrate/internal/bitutil"

	"encoding/binary"
)

// This file is SampleRate's in-slab execution engine: OnResult + NextRate
// run directly against an encoded snapshot (state.go's layout), so a store
// can service a feedback op without the DecodeState → EncodeState round
// trip. For SampleRate that round trip is ~1.7 KB of parsing and
// re-serialization per op while the op itself touches one ring slot and a
// few counters — it dominates the serving cost of the algorithm
// (BenchmarkSampleRateInPlace vs BenchmarkSampleRateCodec in
// internal/linkstore/bench_test.go).
//
// The contract is strict byte equivalence: for any snapshot buffer,
// ApplyEncoded(buf, res) leaves buf exactly as DecodeState(buf) →
// OnResult(res) → NextRate(res.Time) → EncodeState(buf) would — including
// the bytes beyond each ring's live length, which EncodeState leaves
// untouched and ApplyEncoded therefore never writes either. The decision
// returned is identical too. TestInPlaceMatchesCodecPath holds both
// properties over long randomized runs.

// InPlaceOK reports whether this configuration supports the in-place
// engine: a fixed-width snapshot (bounded WindowCap) and a relocatable
// SplitMix PRNG whose state lives in the snapshot header. The simulators'
// unbounded, shared-*rand.Rand instances do not qualify and keep using the
// codec path.
func (s *SampleRate) InPlaceOK() bool {
	if s.WindowCap <= 0 || s.WindowCap > 255 {
		return false
	}
	_, ok := s.Rng.(*SplitMix)
	return ok
}

// ApplyEncoded performs OnResult(res) followed by NextRate(res.Time)
// directly on the encoded snapshot st (the layout written by EncodeState,
// without the wrapper's clock prefix). It returns the chosen rate index
// and ok=true; ok=false means the configuration does not support in-place
// execution or st failed validation, in which case st is untouched and the
// caller should fall back to the codec path.
func (s *SampleRate) ApplyEncoded(st []byte, res Result) (int, bool) {
	if !s.InPlaceOK() || len(st) < s.StateLen() {
		return 0, false
	}
	wcap := s.WindowCap
	stride := 2 + wcap*srSampleBytes
	// Validate every ring length before mutating anything, so a corrupt
	// buffer is rejected whole rather than half-applied.
	for i := range s.Rates {
		if int(st[srHeaderBytes+i*stride+1]) > wcap {
			return 0, false
		}
	}

	// --- OnResult(res), against the encoded rings ---
	if i := res.RateIndex; i >= 0 && i < len(s.Rates) {
		off := srHeaderBytes + i*stride
		n := int(st[off+1])
		samples := st[off+2 : off+2+wcap*srSampleBytes]
		// The oldest sample goes first when the ring is at cap
		// (push-overwrite), then any further leading samples that have
		// aged out of twice the averaging window (OnResult's expiry).
		drop := 0
		if n >= wcap {
			drop = 1
		}
		cut := res.Time - 2*s.Window
		for drop < n {
			t := math.Float64frombits(binary.LittleEndian.Uint64(samples[drop*srSampleBytes:]))
			if t >= cut {
				break
			}
			drop++
		}
		if drop > 0 {
			copy(samples, samples[drop*srSampleBytes:n*srSampleBytes])
			n -= drop
		}
		p := n * srSampleBytes
		binary.LittleEndian.PutUint64(samples[p:], math.Float64bits(res.Time))
		binary.LittleEndian.PutUint64(samples[p+8:], math.Float64bits(res.Airtime))
		if res.Delivered {
			samples[p+16] = 1
		} else {
			samples[p+16] = 0
		}
		st[off+1] = uint8(n + 1)

		if res.Delivered {
			st[off] = 0
		} else if st[off] < 255 {
			// The in-memory counter can exceed 255 but encodes saturated;
			// saturating here is byte-identical and behaviourally identical
			// (every comparison is against MaxConsecFail, far below 255).
			st[off]++
		}
		// If every rate is locked out, forgive — exactly OnResult's rule.
		all := true
		for j := range s.Rates {
			if int(st[srHeaderBytes+j*stride]) < s.MaxConsecFail {
				all = false
				break
			}
		}
		if all {
			for j := range s.Rates {
				st[srHeaderBytes+j*stride] = 0
			}
		}
	}

	// --- NextRate(res.Time), against the encoded rings ---
	now := res.Time
	winStart := now - s.Window
	best, bestT := 0, math.Inf(1)
	for i := range s.Rates {
		off := srHeaderBytes + i*stride
		n := int(st[off+1])
		var total float64
		cnt, okCnt := 0, 0
		for k := 0; k < n; k++ {
			p := off + 2 + k*srSampleBytes
			if math.Float64frombits(binary.LittleEndian.Uint64(st[p:])) < winStart {
				continue
			}
			cnt++
			total += math.Float64frombits(binary.LittleEndian.Uint64(st[p+8:]))
			if st[p+16] != 0 {
				okCnt++
			}
		}
		var avg float64
		switch {
		case cnt == 0:
			avg = s.LosslessAirtime[i] // optimistic: untried rates look good
		case okCnt == 0:
			avg = math.Inf(1)
		default:
			avg = total / float64(okCnt)
		}
		if avg < bestT {
			best, bestT = i, avg
		}
	}
	frameCount := binary.LittleEndian.Uint64(st[0:8]) + 1
	binary.LittleEndian.PutUint64(st[0:8], frameCount)
	if s.ProbeEvery > 0 && frameCount%uint64(s.ProbeEvery) == 0 {
		cands := s.cands[:0]
		for i := range s.Rates {
			if i == best || int(st[srHeaderBytes+i*stride]) >= s.MaxConsecFail {
				continue
			}
			if s.LosslessAirtime[i] < bestT {
				cands = append(cands, i)
			}
		}
		s.cands = cands
		if len(cands) > 0 {
			// SplitMix.Intn inlined against the header-resident PRNG state.
			rng := binary.LittleEndian.Uint64(st[8:16]) + 0x9e3779b97f4a7c15
			binary.LittleEndian.PutUint64(st[8:16], rng)
			return cands[int(bitutil.Mix64(rng)%uint64(len(cands)))], true
		}
	}
	return best, true
}
