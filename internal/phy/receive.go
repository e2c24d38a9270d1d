package phy

import (
	"math"
	"math/rand"

	"softrate/internal/bitutil"
	"softrate/internal/channel"
	"softrate/internal/coding"
	"softrate/internal/modulation"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
)

// Reception is the receiver's view of one frame: detection and CRC
// verdicts, the decoded payload, the per-bit SoftPHY hints exported through
// the SoftPHY interface, and ground-truth error counts available only to
// the experiment harness.
type Reception struct {
	// Detected reports whether the preamble was found (receiver
	// synchronized with the frame). When false every other field except
	// PostambleDetected is meaningless — a silent loss.
	Detected bool
	// HeaderOK reports the header CRC-16 verdict; feedback can be sent
	// only when the header decoded correctly (§3).
	HeaderOK bool
	// Header is the decoded header (valid when HeaderOK).
	Header []byte
	// PayloadOK reports the frame FCS (CRC-32) verdict.
	PayloadOK bool
	// Payload is the decoded frame body (stripped of FCS); only
	// meaningful when PayloadOK.
	Payload []byte
	// Hints are the SoftPHY hints s_k = |LLR(k)| for every payload
	// information bit (including FCS and padding), in decoder order.
	Hints []float64
	// InfoBitsPerSymbol is the number of entries of Hints contributed by
	// each OFDM symbol, the grouping the interference detector uses.
	InfoBitsPerSymbol int
	// SNREstDB is the preamble-based SNR estimate in dB (Schmidl-Cox
	// substitute). It reflects conditions during the preamble only.
	SNREstDB float64
	// PostambleDetected reports whether the trailing sync pattern was
	// found (only when the frame carried one).
	PostambleDetected bool

	// BitErrors is the ground-truth number of errored payload info bits
	// (experiment-only knowledge).
	BitErrors int
	// TrueBER is BitErrors over the payload info bit count.
	TrueBER float64
}

// NormSource supplies standard normal variates for the receiver noise.
// *rand.Rand implements it; the calibration pipeline substitutes a replay
// buffer so that pre-drawn noise can be decoded on any worker with
// byte-identical results.
type NormSource interface {
	NormFloat64() float64
}

// Burst describes an interval of co-channel interference at the receiver:
// linear power (relative to the unit noise floor) active during
// [Start, End) seconds, relative to the same clock as the frame start time.
type Burst struct {
	Start, End float64
	Power      float64
}

// Link binds a channel model and a noise source to a PHY configuration; it
// delivers transmissions through time-varying gains.
type Link struct {
	// Cfg is the PHY configuration (must match the transmitter's).
	Cfg Config
	// Model supplies the composite channel gain over time.
	Model *channel.Model
	// Rng drives the noise; deliveries consume from it.
	Rng *rand.Rand
	// WS optionally holds per-worker scratch; when set, Deliver reuses its
	// buffers and the returned Reception aliases them (valid until the
	// next delivery). When nil every delivery allocates, as before.
	WS *Workspace
}

// Deliver passes a transmission through the channel starting at time start
// (seconds) with optional interference bursts, and runs the full receive
// chain. Gains are sampled once per OFDM symbol.
func (l *Link) Deliver(tx *Transmission, start float64, bursts []Burst) *Reception {
	T := l.Cfg.Mode.SymbolTime()
	n := tx.NumSymbols()
	var gains []complex128
	var ivar []float64
	if l.WS != nil {
		l.WS.gains = growC(l.WS.gains, n)
		l.WS.ivar = growF(l.WS.ivar, n)
		gains, ivar = l.WS.gains, l.WS.ivar
	} else {
		gains = make([]complex128, n)
		ivar = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		t0 := start + float64(j)*T
		gains[j] = l.Model.Gain(t0 + T/2)
		ivar[j] = burstPower(bursts, t0, t0+T)
	}
	return ReceiveWS(l.WS, l.Cfg, tx, gains, ivar, l.Rng)
}

// burstPower sums the interference power active during [t0, t1), weighting
// partially overlapping bursts by their overlap fraction.
func burstPower(bursts []Burst, t0, t1 float64) float64 {
	var p float64
	for _, b := range bursts {
		lo, hi := math.Max(t0, b.Start), math.Min(t1, b.End)
		if hi > lo {
			p += b.Power * (hi - lo) / (t1 - t0)
		}
	}
	return p
}

// ReceiveWS runs the receiver chain over per-symbol channel gains and
// interference variances (gains[j], ivar[j] for OFDM symbol j of the whole
// transmission, preamble first). The receiver knows the channel gain
// (genie CSI, standing in for pilot-based estimation) and the thermal
// noise floor, but — crucially — not the interference power: that is what
// makes interference manifest as a spike in the SoftPHY-estimated BER.
//
// It runs on per-worker scratch: the returned Reception and the
// slices it references live inside ws and are valid until the next
// ReceiveWS call on it. A nil ws falls back to a fresh throwaway workspace.
func ReceiveWS(ws *Workspace, cfg Config, tx *Transmission, gains []complex128, ivar []float64, ns NormSource) *Reception {
	if ws == nil {
		ws = NewWorkspace()
	}
	rx := &ws.rec
	*rx = Reception{}
	T := cfg.Mode
	dataOff := tx.dataSymbolOffset()

	// --- Preamble: SNR estimation and detection. ---
	// The preamble is a known unit-power pattern on every data tone. The
	// receiver measures received power and infers SNR; detection requires
	// the true SINR to clear the sync threshold. Additionally, a colliding
	// transmission whose power approaches the signal's corrupts the
	// synchronization correlation (or captures the receiver outright) —
	// the paper's footnote 1: "if the interferer's signal is much stronger
	// than the sender's, some PHYs will resynchronize with the interferer
	// and abort the sender's frame". The noisy power measurement consumes
	// its variates first; the detection decision itself is pure, which is
	// what lets the calibration pipeline pre-draw noise streams.
	preSNREst := preambleSNREst(cfg, gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols], ns)
	rx.SNREstDB = channel.LinearToDB(preSNREst)
	rx.Detected = PreambleDetects(cfg, gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols])

	// --- Postamble detection (independent of preamble). ---
	if tx.Frame.Postamble {
		off := tx.NumSymbols() - ofdm.PostambleSymbols
		// The power measurement consumes the same variates it always has,
		// even though only the pure SINR decides postamble sync.
		preambleSNREst(cfg, gains[off:], ivar[off:], ns)
		rx.PostambleDetected = meanSINR(gains[off:], ivar[off:]) >= cfg.DetectSINR
	}

	if !rx.Detected {
		return rx
	}

	// --- Header: lowest rate, CRC-16. ---
	hr := headerRate()
	hdrBits, _ := ws.decodeSegment(cfg, tx.hdrSyms, tx.hdrInfoBits, hr,
		gains[ofdm.PreambleSymbols:dataOff], ivar[ofdm.PreambleSymbols:dataOff], ns)
	ws.hdrBytes = bitutil.AppendBitsToBytes(ws.hdrBytes[:0], hdrBits)
	hdrBytes := ws.hdrBytes
	// Strip to the original header + CRC16 length.
	want := len(tx.Frame.Header) + 2
	if len(hdrBytes) >= want {
		hdrBytes = hdrBytes[:want]
		crc := uint16(hdrBytes[want-2])<<8 | uint16(hdrBytes[want-1])
		if bitutil.CRC16CCITT(hdrBytes[:want-2]) == crc {
			rx.HeaderOK = true
			rx.Header = hdrBytes[:want-2]
		}
	}

	// --- Payload: frame rate, SoftPHY hints, CRC-32. ---
	r := tx.Frame.Rate
	info, llrs := ws.decodeSegment(cfg, tx.dataSyms, tx.infoBits, r,
		gains[dataOff:dataOff+len(tx.dataSyms)], ivar[dataOff:dataOff+len(tx.dataSyms)], ns)
	ws.hints = growF(ws.hints, len(llrs))
	rx.Hints = ws.hints
	for i, l := range llrs {
		rx.Hints[i] = math.Abs(l)
	}
	rx.InfoBitsPerSymbol = T.InfoBitsPerSymbol(r)
	rx.BitErrors = bitutil.CountBitErrors(info, tx.infoBits)
	rx.TrueBER = float64(rx.BitErrors) / float64(len(tx.infoBits))
	ws.body = bitutil.AppendBitsToBytes(ws.body[:0], info)
	bodyLen := len(tx.Frame.Payload) + 4
	if len(ws.body) >= bodyLen {
		if payload, ok := bitutil.CheckCRC32(ws.body[:bodyLen]); ok {
			rx.PayloadOK = true
			rx.Payload = payload
		}
	}
	return rx
}

// meanPower averages |h|^2 over a gain slice.
func meanPower(gains []complex128) float64 {
	var s float64
	for _, h := range gains {
		s += real(h)*real(h) + imag(h)*imag(h)
	}
	return s / float64(len(gains))
}

// meanVar averages interference variances.
func meanVar(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// meanSINR returns the true average per-symbol SINR over a sync pattern:
// |h|^2 signal power against the unit noise floor plus interference.
func meanSINR(gains []complex128, ivar []float64) float64 {
	var sinrSum float64
	for j := range gains {
		h := gains[j]
		hp := real(h)*real(h) + imag(h)*imag(h)
		sinrSum += hp / (1 + ivar[j])
	}
	return sinrSum / float64(len(gains))
}

// PreambleDetects reports whether the receiver synchronizes with a frame
// whose preamble experienced the given per-symbol gains and interference
// variances. It is pure — the detection decision consumes no randomness —
// so the calibration pipeline can predict a frame's noise consumption
// before decoding it.
func PreambleDetects(cfg Config, gains []complex128, ivar []float64) bool {
	det := meanSINR(gains, ivar) >= cfg.DetectSINR
	if sig, inter := meanPower(gains), meanVar(ivar); inter > sig/2 {
		det = false
	}
	return det
}

// preambleSNREst models the receiver's measurement of the known sync
// pattern: a noisy preamble-power SNR estimate à la Schmidl-Cox. The
// estimate includes any interference power present during the preamble and
// finite-sample measurement noise, but no knowledge of what happens later
// in the frame. It consumes 2·DataTones variates per preamble symbol.
func preambleSNREst(cfg Config, gains []complex128, ivar []float64, ns NormSource) float64 {
	nTones := cfg.Mode.DataTones
	var powerSum float64
	for j := range gains {
		h := gains[j]
		// Measured per-tone received power: |h*x + n + i|^2 with x unit
		// power. Sample mean over the tones.
		sd := math.Sqrt((1 + ivar[j]) / 2)
		var meas float64
		for k := 0; k < nTones; k++ {
			re := real(h) + sd*ns.NormFloat64()
			im := imag(h) + sd*ns.NormFloat64()
			meas += re*re + im*im
		}
		powerSum += meas / float64(nTones)
	}
	// Subtract the known unit noise floor; clamp to a small positive SNR.
	snrEst := powerSum/float64(len(gains)) - 1
	if snrEst < 1e-3 {
		snrEst = 1e-3
	}
	return snrEst
}

// decodeSegment passes one encoded segment (header or payload) through the
// channel symbols and the soft receive pipeline, returning decoded info
// bits and their a-posteriori LLRs (both aliasing the workspace).
//
// The receiver estimates the noise variance of each OFDM symbol from the
// decision-directed error vector magnitude (EVM) of its tones — what a
// real OFDM receiver obtains from pilots. This per-symbol estimate is what
// makes SoftPHY hints collapse under interference: an unmodeled interferer
// inflates the measured EVM, the LLRs deflate accordingly, and the
// per-symbol BER estimate spikes (Figure 3). With a fixed assumed noise
// floor the LLRs would instead stay (wrongly) confident and the collision
// would be invisible to the hints.
func (ws *Workspace) decodeSegment(cfg Config, syms [][]complex128, infoRef []byte, r rate.Rate, gains []complex128, ivar []float64, ns NormSource) (info []byte, llrs []float64) {
	depunct := ws.segmentLLRs(cfg, syms, len(infoRef), r, gains, ivar, ns)
	return ws.Coding.DecodeBCJR(depunct, len(infoRef), cfg.Decoder)
}

// segmentLLRs is decodeSegment's front end: everything up to (and
// including) depuncturing, i.e. every stage that consumes noise variates.
// The returned rate-1/2 LLR lattice aliases the workspace and is valid
// until the next segmentLLRs call; the batched receive path copies it out
// and defers the decode itself, which consumes no randomness, to a later
// whole-batch BCJR pass.
func (ws *Workspace) segmentLLRs(cfg Config, syms [][]complex128, nInfo int, r rate.Rate, gains []complex128, ivar []float64, ns NormSource) []float64 {
	ncbps := cfg.Mode.CodedBitsPerSymbol(r.Scheme)
	perm := ofdm.CachedPermutation(ncbps, r.Scheme.BitsPerSymbol())
	if cap(ws.chanLLRs) < len(syms)*ncbps {
		ws.chanLLRs = make([]float64, 0, len(syms)*ncbps)
	}
	chanLLRs := ws.chanLLRs[:0]
	ws.tones = growC(ws.tones, cfg.Mode.DataTones)
	rx := ws.tones
	for j, sym := range syms {
		h := gains[j]
		// Actual noise variance includes the interference the receiver
		// does not know about.
		sd := math.Sqrt((1 + ivar[j]) / 2)
		for k, x := range sym {
			rx[k] = h*x + complex(sd*ns.NormFloat64(), sd*ns.NormFloat64())
		}
		noiseEst := estimateNoiseEVM(r.Scheme, rx[:len(sym)], h)
		for _, y := range rx[:len(sym)] {
			chanLLRs = modulation.Demap(r.Scheme, y, h, noiseEst, cfg.ExactDemap, chanLLRs)
		}
	}
	ws.chanLLRs = chanLLRs
	ws.deint = growF(ws.deint, len(chanLLRs))
	deint := ofdm.DeinterleaveLLRsInto(ws.deint, chanLLRs, perm)
	return ws.Coding.DepunctureLLR(deint, r.Code, coding.CodedLen(nInfo))
}

// estimateNoiseEVM measures the decision-directed EVM of one OFDM symbol:
// the mean squared distance between each received tone and its nearest
// constellation point, rescaled to the receiver's reference plane. At low
// SINR decision errors bias the estimate low; the floor keeps the LLR
// scale sane, and the bias only makes the receiver slightly optimistic in
// a regime where the BER estimate is enormous anyway.
func estimateNoiseEVM(s modulation.Scheme, rx []complex128, h complex128) float64 {
	hm2 := real(h)*real(h) + imag(h)*imag(h)
	if hm2 < 1e-18 || len(rx) == 0 {
		return 1
	}
	var sum float64
	for _, y := range rx {
		z := y / h
		d := z - modulation.HardDecision(s, z)
		sum += real(d)*real(d) + imag(d)*imag(d)
	}
	// EVM is measured post-equalization (variance scaled by 1/|h|^2);
	// rescale back to the received plane.
	est := sum / float64(len(rx)) * hm2
	if est < 0.1 {
		est = 0.1
	}
	return est
}
