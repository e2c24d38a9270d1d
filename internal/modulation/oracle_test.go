package modulation

import (
	"math"
	"math/cmplx"
)

// The constellation's geometry computed the slow, obvious way: the
// oracles the tests hold the modulator and the receiver's demap and noise
// estimate to.

// nearestLevelIndex returns the Gray index of the axis level closest to v,
// breaking ties toward the lowest index.
func nearestLevelIndex(levels []float64, v float64) int {
	best, bd := 0, math.Inf(1)
	for g, lv := range levels {
		d := math.Abs(v - lv)
		if d < bd {
			bd, best = d, g
		}
	}
	return best
}

// hardDemap maps a received (already equalized) symbol to the nearest
// constellation point's bits.
func hardDemap(s Scheme, z complex128) []byte {
	levels := s.axisLevels()
	bpa := s.bitsPerAxis()
	bits := make([]byte, 0, s.BitsPerSymbol())
	appendGray := func(g int) {
		for j := bpa - 1; j >= 0; j-- {
			bits = append(bits, byte(g>>j&1))
		}
	}
	appendGray(nearestLevelIndex(levels, real(z)))
	if s != BPSK {
		appendGray(nearestLevelIndex(levels, imag(z)))
	}
	return bits
}

// hardDecision returns the constellation point nearest to the (already
// equalized) sample z — the point hardDemap's bits modulate to, including
// tie-breaking. It is the per-tone reference of the decision-directed
// noise estimate (refNoiseEVM).
func hardDecision(s Scheme, z complex128) complex128 {
	levels := s.axisLevels()
	re := levels[nearestLevelIndex(levels, real(z))]
	if s == BPSK {
		return complex(re, 0)
	}
	return complex(re, levels[nearestLevelIndex(levels, imag(z))])
}

// symbolEnergy returns the average energy of the constellation (1.0 by
// construction).
func symbolEnergy(s Scheme) float64 {
	levels := s.axisLevels()
	var e float64
	for _, li := range levels {
		if s == BPSK {
			e += li * li
		} else {
			for _, lq := range levels {
				e += li*li + lq*lq
			}
		}
	}
	if s == BPSK {
		return e / float64(len(levels))
	}
	return e / float64(len(levels)*len(levels))
}

// minDistance returns the minimum Euclidean distance between distinct
// constellation points, which orders the schemes by noise robustness.
func minDistance(s Scheme) float64 {
	pts := constellation(s)
	min := math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := cmplx.Abs(pts[i] - pts[j])
			if d < min {
				min = d
			}
		}
	}
	return min
}

// constellation enumerates all points of the scheme.
func constellation(s Scheme) []complex128 {
	bps := s.BitsPerSymbol()
	n := 1 << bps
	pts := make([]complex128, 0, n)
	for v := 0; v < n; v++ {
		bits := make([]byte, bps)
		for j := 0; j < bps; j++ {
			bits[j] = byte(v >> (bps - 1 - j) & 1)
		}
		pts = append(pts, AppendModulate(nil, s, bits)[0])
	}
	return pts
}
