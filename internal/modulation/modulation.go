// Package modulation implements the Gray-mapped linear modulations of
// 802.11a/g — BPSK, QPSK, 16-QAM and 64-QAM — together with soft demappers
// that produce per-coded-bit channel log-likelihood ratios.
//
// All constellations are normalized to unit average symbol energy so that
// SNR is E_s/N_0 directly. The demappers emit one LLR per coded bit with
// the convention LLR > 0 ⇔ bit 1. Demap takes one received sample, the
// (complex) channel gain and the total complex noise variance. The
// receiver's demapper, Demapper.DemapSymbol, takes a whole OFDM symbol's
// tones under one gain, estimates the noise from the symbol itself, and
// runs the exact log-sum-exp over all its tones at once through
// vmath.LogAddLanes — the same bits as Demap's exact branch per tone.
package modulation

import (
	"fmt"
	"math"
	"slices"

	"softrate/internal/vmath"
)

// Scheme identifies a modulation.
type Scheme int

// The supported modulation schemes.
const (
	BPSK Scheme = iota
	QPSK
	QAM16
	QAM64
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "QAM16"
	case QAM64:
		return "QAM64"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// BitsPerSymbol returns the number of coded bits carried per constellation
// symbol.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	panic("modulation: unknown scheme")
}

// bitsPerAxis is BitsPerSymbol/2 for QAM schemes; BPSK uses only the real
// axis.
func (s Scheme) bitsPerAxis() int {
	if s == BPSK {
		return 1
	}
	return s.BitsPerSymbol() / 2
}

// levelTables holds the per-scheme axis amplitude tables, built once at
// init so that the per-tone hot path (Demap, DemapSymbol) never
// allocates. levelTables[s][g] is the amplitude transmitted for per-axis
// Gray bits g (MSB first), normalized to unit average symbol energy.
var levelTables = [4][]float64{
	BPSK:  buildAxisLevels(BPSK),
	QPSK:  buildAxisLevels(QPSK),
	QAM16: buildAxisLevels(QAM16),
	QAM64: buildAxisLevels(QAM64),
}

// buildAxisLevels computes the per-axis amplitude for each Gray-coded bit
// group of one scheme.
func buildAxisLevels(s Scheme) []float64 {
	switch s {
	case BPSK:
		return []float64{-1, 1} // 0 -> -1, 1 -> +1
	case QPSK:
		a := 1 / math.Sqrt2
		return []float64{-a, a}
	case QAM16:
		// Gray per axis: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.
		a := 1 / math.Sqrt(10)
		return []float64{-3 * a, -1 * a, 3 * a, 1 * a}
	case QAM64:
		// Gray per axis: 000→-7 001→-5 011→-3 010→-1 110→+1 111→+3
		// 101→+5 100→+7.
		a := 1 / math.Sqrt(42)
		lv := make([]float64, 8)
		lv[0b000] = -7 * a
		lv[0b001] = -5 * a
		lv[0b011] = -3 * a
		lv[0b010] = -1 * a
		lv[0b110] = 1 * a
		lv[0b111] = 3 * a
		lv[0b101] = 5 * a
		lv[0b100] = 7 * a
		return lv
	}
	panic("modulation: unknown scheme")
}

// axisLevels returns the shared amplitude table for s. Callers must treat
// the slice as read-only.
func (s Scheme) axisLevels() []float64 {
	if s < BPSK || s > QAM64 {
		panic("modulation: unknown scheme")
	}
	return levelTables[s]
}

// AppendModulate maps coded bits onto constellation symbols, appends them
// to dst and returns the extended slice, allocating nothing when dst has
// sufficient capacity. If len(bits) is not a multiple of BitsPerSymbol
// the tail is zero-padded (the PHY pads frames to whole OFDM symbols
// first).
func AppendModulate(dst []complex128, s Scheme, bits []byte) []complex128 {
	bps := s.BitsPerSymbol()
	nSym := (len(bits) + bps - 1) / bps
	levels := s.axisLevels()
	bpa := s.bitsPerAxis()
	bit := func(i int) int {
		if i < len(bits) && bits[i] != 0 {
			return 1
		}
		return 0
	}
	for k := 0; k < nSym; k++ {
		base := k * bps
		gi := 0
		for j := 0; j < bpa; j++ {
			gi = gi<<1 | bit(base+j)
		}
		if s == BPSK {
			dst = append(dst, complex(levels[gi], 0))
			continue
		}
		gq := 0
		for j := 0; j < bpa; j++ {
			gq = gq<<1 | bit(base+bpa+j)
		}
		dst = append(dst, complex(levels[gi], levels[gq]))
	}
	return dst
}

// Demap computes soft LLRs for the coded bits carried by received sample y
// given channel gain h and total complex noise variance noiseVar. LLRs are
// appended to out and the extended slice returned. If exact is true the
// full log-sum-exp marginalization over the constellation is used;
// otherwise the max-log approximation.
//
// The demapper equalizes z = y/h and scales the noise accordingly, which is
// exact for a flat per-symbol gain; the I and Q axes then demap
// independently.
func Demap(s Scheme, y, h complex128, noiseVar float64, exact bool, out []float64) []float64 {
	hm2 := real(h)*real(h) + imag(h)*imag(h)
	if hm2 < 1e-18 {
		// Channel gain effectively zero: no information in this sample.
		for i := 0; i < s.BitsPerSymbol(); i++ {
			out = append(out, 0)
		}
		return out
	}
	z := y / h
	sigma2 := noiseVar / hm2
	levels := s.axisLevels()
	bpa := s.bitsPerAxis()
	out = demapAxis(real(z), levels, bpa, sigma2, exact, out)
	if s != BPSK {
		out = demapAxis(imag(z), levels, bpa, sigma2, exact, out)
	}
	return out
}

// demapAxis computes LLRs for the bpa Gray bits of one constellation axis.
// For a complex Gaussian with total variance sigma2 the per-axis exponent
// is -(v - level)^2 / sigma2.
func demapAxis(v float64, levels []float64, bpa int, sigma2 float64, exact bool, out []float64) []float64 {
	inv := 1 / sigma2
	for j := 0; j < bpa; j++ {
		mask := 1 << (bpa - 1 - j)
		var m1, m0 float64 // log-domain accumulators
		first1, first0 := true, true
		for g, lv := range levels {
			d := v - lv
			metric := -d * d * inv
			if g&mask != 0 {
				if first1 {
					m1, first1 = metric, false
				} else if exact {
					m1 = vmath.LogAdd(m1, metric)
				} else if metric > m1 {
					m1 = metric
				}
			} else {
				if first0 {
					m0, first0 = metric, false
				} else if exact {
					m0 = vmath.LogAdd(m0, metric)
				} else if metric > m0 {
					m0 = metric
				}
			}
		}
		out = append(out, m1-m0)
	}
	return out
}

// Demapper is the lane scratch of the per-symbol exact demapper. Its zero
// value is ready; it grows to the widest symbol it has demapped and then
// allocates nothing. One goroutine uses a Demapper at a time.
type Demapper struct {
	v   []float64 // the equalized tones' axis values: real parts, then imaginary parts
	m   []float64 // [level][lane] metrics
	acc []float64 // [2][lane] the bit-1 and bit-0 folds, and the estimate's scratch
}

// noiseFloor is the least noise variance DemapSymbol's estimate returns.
const noiseFloor = 0.1

// DemapSymbol appends the exact LLRs of one OFDM symbol to out and returns
// the extended slice: y holds the symbol's received tones, all under the
// flat channel gain h. It equalizes each tone once, z = y/h, estimates the
// noise variance from those z, and demaps every tone with it exactly as
// Demap(s, y, h, noise, true, out) would, bit for bit. A gain with |h|² <
// 1e-18 carries no information: every LLR is 0.
//
// The estimate is the symbol's decision-directed error vector magnitude
// (EVM) — the mean squared distance from each z to its nearest point,
// rescaled by |h|² to the received plane, and at least noiseFloor — which
// is what a real OFDM receiver obtains from pilots. It is what makes
// SoftPHY hints collapse under interference: an unmodeled interferer
// inflates the measured EVM, the LLRs deflate accordingly, and the
// per-symbol BER estimate spikes (Figure 3). With a fixed assumed noise
// floor the LLRs would instead stay (wrongly) confident and the collision
// would be invisible to the hints. At low SINR decision errors bias the
// estimate low; the floor keeps the LLR scale sane, and the bias only
// makes the receiver slightly optimistic in a regime where the BER
// estimate is enormous anyway.
func (d *Demapper) DemapSymbol(s Scheme, y []complex128, h complex128, out []float64) []float64 {
	bps := s.BitsPerSymbol()
	n := len(y)
	hm2 := real(h)*real(h) + imag(h)*imag(h)
	if hm2 < 1e-18 {
		for range n * bps {
			out = append(out, 0)
		}
		return out
	}
	if n == 0 {
		return out
	}
	levels := s.axisLevels()
	lanes := n
	if s != BPSK {
		lanes = 2 * n
	}
	d.v = growF(d.v, 2*n)
	v := d.v
	for k, yk := range y {
		z := yk / h
		v[k], v[n+k] = real(z), imag(z)
	}
	d.acc = growF(d.acc, 2*lanes)
	noise := d.noiseEVM(s, v, n, lanes, hm2)

	// Demap's arithmetic, a lane per axis value: each level's metric
	// -(v-level)²/σ² once, then per bit the two sets of levels folded in
	// ascending Gray order.
	inv := 1 / (noise / hm2)
	d.m = growF(d.m, len(levels)*lanes)
	for g, lv := range levels {
		m := d.m[g*lanes : (g+1)*lanes]
		for i, x := range v[:lanes] {
			dv := x - lv
			m[i] = -dv * dv * inv
		}
	}
	bpa := s.bitsPerAxis()
	base := len(out)
	out = slices.Grow(out, n*bps)[:base+n*bps]
	o := out[base:]
	for j := 0; j < bpa; j++ {
		mask := 1 << (bpa - 1 - j)
		m1 := d.fold(levels, lanes, mask, mask, d.acc[:lanes])
		m0 := d.fold(levels, lanes, mask, 0, d.acc[lanes:])
		for k := 0; k < n; k++ {
			o[k*bps+j] = m1[k] - m0[k]
		}
		if s != BPSK {
			for k := 0; k < n; k++ {
				o[k*bps+bpa+j] = m1[n+k] - m0[n+k]
			}
		}
	}
	return out
}

// fold log-sum-exps the metric lanes of the levels g with g&mask == bit,
// in ascending g, and returns the result: the one level's own metric lanes
// when the set has one level, acc otherwise.
func (d *Demapper) fold(levels []float64, lanes, mask, bit int, acc []float64) []float64 {
	var first []float64
	for g := range levels {
		if g&mask != bit {
			continue
		}
		m := d.m[g*lanes : (g+1)*lanes]
		if first == nil {
			first = m
			continue
		}
		vmath.LogAddLanes(acc, first, m)
		first = acc
	}
	return first
}

// noiseEVM is DemapSymbol's noise estimate over the axis values v of n
// equalized tones: each lane's squared distance to its nearest level
// (ties to the lowest level), so each tone's to its nearest constellation
// point, summed tone by tone. BPSK's nearest point is on the real axis.
func (d *Demapper) noiseEVM(s Scheme, v []float64, n, lanes int, hm2 float64) float64 {
	levels := s.axisLevels()
	bd, sq := d.acc[:lanes], d.acc[lanes:2*lanes]
	for i, x := range v[:lanes] {
		e := x - levels[0]
		bd[i], sq[i] = math.Abs(e), e*e
	}
	for _, lv := range levels[1:] {
		for i, x := range v[:lanes] {
			if e := x - lv; math.Abs(e) < bd[i] {
				bd[i], sq[i] = math.Abs(e), e*e
			}
		}
	}
	var sum float64
	for k := 0; k < n; k++ {
		if s == BPSK {
			sum += sq[k] + v[n+k]*v[n+k]
		} else {
			sum += sq[k] + sq[n+k]
		}
	}
	// EVM is measured post-equalization (variance scaled by 1/|h|^2);
	// rescale back to the received plane.
	est := sum / float64(n) * hm2
	if est < noiseFloor {
		est = noiseFloor
	}
	return est
}

// growF returns buf resized to n entries, reallocating only when its
// capacity is short. Contents are unspecified.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
