package phy

import (
	"math"
	"math/rand"

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
	// WS optionally holds per-worker scratch; when set, deliveries reuse
	// its buffers and the returned Receptions alias them (valid until the
	// next delivery or flush). When nil, Deliver runs on a throwaway
	// workspace and QueueDeliver panics.
	WS *Workspace
}

// Deliver passes a transmission through the channel starting at time start
// (seconds) with optional interference bursts, and runs the full receive
// chain: a one-frame QueueDeliver and flush (see ReceiveWS).
func (l *Link) Deliver(tx *Transmission, start float64, bursts []Burst) *Reception {
	ws := l.WS
	if ws == nil {
		ws = NewWorkspace()
	}
	gains, ivar := l.sample(ws, tx, start, bursts)
	return ReceiveWS(ws, l.Cfg, tx, gains, ivar, l.Rng)
}

// QueueDeliver is Deliver's queued form: it samples the channel and runs
// the receiver front end now (consuming the link's noise stream exactly as
// Deliver would) and defers the rest to the next FlushReceptions on the
// link's workspace. Requires l.WS.
func (l *Link) QueueDeliver(tx *Transmission, start float64, bursts []Burst) {
	if l.WS == nil {
		panic("phy: Link.QueueDeliver requires a Workspace")
	}
	gains, ivar := l.sample(l.WS, tx, start, bursts)
	l.WS.QueueReceive(l.Cfg, tx, gains, ivar, l.Rng)
}

// sample fills ws's gain and interference scratch for tx's OFDM symbols
// from time start: the channel gain at each symbol's midpoint and the
// burst power over the symbol.
func (l *Link) sample(ws *Workspace, tx *Transmission, start float64, bursts []Burst) ([]complex128, []float64) {
	T := l.Cfg.Mode.SymbolTime()
	n := tx.NumSymbols()
	ws.gains = growC(ws.gains, n)
	ws.ivar = growF(ws.ivar, n)
	for j := 0; j < n; j++ {
		t0 := start + float64(j)*T
		ws.gains[j] = l.Model.Gain(t0 + T/2)
		ws.ivar[j] = burstPower(bursts, t0, t0+T)
	}
	return ws.gains, ws.ivar
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
// It is a one-frame QueueReceive and FlushReceptions on ws: the returned
// Reception and the slices it references live inside ws and are valid
// until the next ReceiveWS or FlushReceptions call on it. A nil ws falls
// back to a fresh throwaway workspace; a ws holding queued receptions
// panics, untouched.
func ReceiveWS(ws *Workspace, cfg Config, tx *Transmission, gains []complex128, ivar []float64, ns NormSource) *Reception {
	if ws == nil {
		ws = NewWorkspace()
	} else if ws.PendingReceives() > 0 {
		panic("phy: ReceiveWS on a workspace with queued receptions")
	}
	ws.QueueReceive(cfg, tx, gains, ivar, ns)
	return ws.FlushReceptions()[0]
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
// variances: the true SINR must clear the sync threshold, and an
// interferer above half the signal's power corrupts the synchronization
// correlation or captures the receiver outright — the paper's footnote 1:
// "if the interferer's signal is much stronger than the sender's, some
// PHYs will resynchronize with the interferer and abort the sender's
// frame". It is pure — the detection decision consumes no randomness —
// so the calibration pipeline can predict a frame's noise consumption
// before decoding it.
func PreambleDetects(gains []complex128, ivar []float64) bool {
	det := meanSINR(gains, ivar) >= DetectSINR
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

// appendTones is the first half of a segment's receive front end: it
// appends the segment's received data tones to dst — OFDM symbol j's
// transmitted tones through its gain gains[j], plus complex Gaussian noise
// of the actual variance 1+ivar[j], which includes the interference the
// receiver does not know about. It is the only stage after the preamble
// that consumes noise variates: two per tone, in tone order.
func appendTones(dst []complex128, syms [][]complex128, gains []complex128, ivar []float64, ns NormSource) []complex128 {
	for j, sym := range syms {
		h := gains[j]
		sd := math.Sqrt((1 + ivar[j]) / 2)
		for _, x := range sym {
			dst = append(dst, h*x+complex(sd*ns.NormFloat64(), sd*ns.NormFloat64()))
		}
	}
	return dst
}

// rxTail is the scratch of the receive front end's pure tail, one per
// goroutine that runs tails.
type rxTail struct {
	dm    modulation.Demapper
	sym   []float64 // one OFDM symbol's channel LLRs
	deint []float64 // the segment's deinterleaved coded stream
}

// segmentLLRs is the second half of a segment's receive front end, a pure
// function of its received tones and gains: symbol j's tones (an equal
// share of tones) under gains[j]. Per OFDM symbol it equalizes each tone
// once, estimates the symbol's noise variance from the decision-directed
// EVM of those tones, demaps them exactly
// (modulation.Demapper.DemapSymbol) and deinterleaves them; then it
// depunctures the stream into out, the segment's rate-1/2 LLR lattice of
// coding.CodedLen(information bits) entries. It consumes no randomness, so
// the batched receive path defers it to the flush, where two goroutines
// share the queued tails, each with its own rxTail.
func (t *rxTail) segmentLLRs(r rate.Rate, ncbps int, tones, gains []complex128, out []float64) {
	perm := ofdm.CachedPermutation(ncbps, r.Scheme.BitsPerSymbol())
	t.deint = growF(t.deint, len(gains)*ncbps)
	for j, h := range gains {
		w := len(tones) / len(gains)
		t.sym = t.dm.DemapSymbol(r.Scheme, tones[j*w:(j+1)*w], h, t.sym[:0])
		ofdm.DeinterleaveLLRsInto(t.deint[j*ncbps:(j+1)*ncbps], t.sym, perm)
	}
	coding.DepunctureInto(out, t.deint, r.Code)
}
