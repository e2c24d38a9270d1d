// Package ofdm models the OFDM framing layer of the prototype: the three
// modes of operation of the paper's Table 3 (long range, short range,
// simulation) plus standard 802.11a, the per-symbol block interleaver that
// spreads adjacent coded bits onto non-adjacent subcarriers (the property
// the collision detector of §4 relies on), and frame geometry / airtime
// computation.
//
// The simulation operates at subcarrier granularity in the frequency
// domain: an OFDM symbol is represented by its DataTones constellation
// points, and the channel applies a flat complex gain per symbol. The
// IFFT/FFT and cyclic prefix are accounted for only in the time budget
// (symbol duration = 1.25 × Tones / Bandwidth, i.e. a CP of one quarter of
// the subcarrier count, as Table 3 specifies).
package ofdm

import (
	"fmt"
	"math"

	"softrate/internal/modulation"
	"softrate/internal/rate"
)

// Mode describes one OFDM operating mode (a row of Table 3).
type Mode struct {
	// Name identifies the mode, e.g. "short-range".
	Name string
	// Bandwidth is the sampled RF bandwidth in Hz.
	Bandwidth float64
	// Tones is the total number of OFDM subcarriers.
	Tones int
	// DataTones is the number of subcarriers carrying data (the rest are
	// pilots/guards; we follow 802.11's 48-of-64 = 3/4 proportion).
	DataTones int
}

// The modes of Table 3 plus the standard 802.11a/g configuration. The
// paper's evaluation ran live experiments in long/short range modes and
// channel-simulator experiments over the 20 MHz "simulation" mode.
var (
	LongRange  = Mode{Name: "long-range", Bandwidth: 500e3, Tones: 1024, DataTones: 768}
	ShortRange = Mode{Name: "short-range", Bandwidth: 4e6, Tones: 512, DataTones: 384}
	Simulation = Mode{Name: "simulation", Bandwidth: 20e6, Tones: 128, DataTones: 96}
	Standard   = Mode{Name: "802.11a", Bandwidth: 20e6, Tones: 64, DataTones: 48}
)

// SymbolTime returns the duration of one OFDM symbol including its cyclic
// prefix (one quarter of the useful part): T = 1.25 × Tones / Bandwidth.
func (m Mode) SymbolTime() float64 {
	return 1.25 * float64(m.Tones) / m.Bandwidth
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	return fmt.Sprintf("%s (%.0f kHz, %d tones, T=%s)", m.Name, m.Bandwidth/1e3, m.Tones, fmtDuration(m.SymbolTime()))
}

func fmtDuration(sec float64) string {
	switch {
	case sec >= 1e-3:
		return fmt.Sprintf("%.2g ms", sec*1e3)
	default:
		return fmt.Sprintf("%.3g us", sec*1e6)
	}
}

// CodedBitsPerSymbol returns N_CBPS: the coded bits carried by one OFDM
// symbol at the given modulation.
func (m Mode) CodedBitsPerSymbol(s modulation.Scheme) int {
	return m.DataTones * s.BitsPerSymbol()
}

// InfoBitsPerSymbol returns N_BPS of the paper's Equation 4 context: the
// information (pre-FEC) bits per OFDM symbol at rate r.
func (m Mode) InfoBitsPerSymbol(r rate.Rate) int {
	num, den := r.Code.Fraction()
	return m.CodedBitsPerSymbol(r.Scheme) * num / den
}

// DataSymbols returns the number of OFDM symbols needed to carry nCoded
// coded bits at the given modulation.
func (m Mode) DataSymbols(nCoded int, s modulation.Scheme) int {
	per := m.CodedBitsPerSymbol(s)
	return (nCoded + per - 1) / per
}

// Frame overhead in OFDM symbols. The preamble carries the Schmidl-Cox
// synchronization pattern; the postamble (§3.2, [12]) is an optional
// trailing pattern allowing detection of a frame whose preamble was lost
// to interference. The PLCP-like header travels at the lowest rate.
const (
	PreambleSymbols  = 2
	PostambleSymbols = 2
)

// HeaderSymbols returns the OFDM symbols consumed by a link-layer header of
// hdrBits information bits sent at the most robust rate (BPSK 1/2).
func (m Mode) HeaderSymbols(hdrBits int) int {
	per := m.InfoBitsPerSymbol(rate.ByIndex(0))
	return (hdrBits + per - 1) / per
}

// Airtime returns the on-air duration of a frame carrying nCoded coded
// payload bits at rate r, with hdrBits of header and an optional postamble.
func (m Mode) Airtime(nCoded, hdrBits int, r rate.Rate, postamble bool) float64 {
	syms := PreambleSymbols + m.HeaderSymbols(hdrBits) + m.DataSymbols(nCoded, r.Scheme)
	if postamble {
		syms += PostambleSymbols
	}
	return float64(syms) * m.SymbolTime()
}

// PayloadAirtime is a convenience: the airtime of a payload of n bytes
// (plus 32-bit FCS) at rate r with a 64-bit header, ignoring tail/padding
// detail — used by rate adaptation algorithms to estimate transmission
// cost.
func (m Mode) PayloadAirtime(nBytes int, r rate.Rate, postamble bool) float64 {
	infoBits := (nBytes + 4) * 8
	nCoded := codedLenAtRate(infoBits, r)
	return m.Airtime(nCoded, 64, r, postamble)
}

// codedLenAtRate computes the punctured coded length of infoBits
// information bits at rate r's code rate, including the 6 tail bits:
// transmitted coded bits = (info + tail) / codeRate.
func codedLenAtRate(infoBits int, r rate.Rate) int {
	num, den := r.Code.Fraction()
	return int(math.Ceil(float64((infoBits+6)*den) / float64(num)))
}
