// Package phy implements the 802.11a/g-like OFDM physical layer of the
// paper's prototype (§4) in simulation: a transmitter that convolutionally
// encodes, punctures, interleaves and modulates frames onto OFDM symbols,
// and a receiver that demaps soft LLRs, deinterleaves, runs the soft-output
// BCJR decoder and exports per-bit SoftPHY hints, a preamble-based SNR
// estimate (the Schmidl-Cox substitute) and CRC verdicts.
//
// The chain operates at subcarrier granularity in the frequency domain; the
// channel applies a flat complex gain per OFDM symbol (plus unit-variance
// receiver noise and optional interference power), which is the regime the
// paper's per-symbol interference detector (§4) is designed for.
package phy

import (
	"softrate/internal/bitutil"
	"softrate/internal/coding"
	"softrate/internal/modulation"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
)

// Config collects the PHY parameters shared by transmitter and receiver.
type Config struct {
	// Mode is the OFDM operating mode (Table 3).
	Mode ofdm.Mode
	// Decoder selects exact log-MAP (reference) or max-log BCJR.
	Decoder coding.BCJRMode
}

// DetectSINR is the linear preamble/postamble SINR above which a receiver
// synchronizes with a frame: roughly -1 dB, below which even BPSK 1/2 is
// hopeless (a model choice; trace generation applies the same threshold).
const DetectSINR float64 = 0.8

// DefaultConfig returns the configuration used by the experiments:
// simulation mode (20 MHz, 128 tones), exact log-MAP decoding.
func DefaultConfig() Config {
	return Config{
		Mode:    ofdm.Simulation,
		Decoder: coding.LogMAP,
	}
}

// Frame is a link-layer frame handed to the PHY for transmission.
type Frame struct {
	// Header carries link-layer addressing and control; it is protected
	// by its own CRC-16 and always travels at the lowest rate so that
	// feedback can identify sender and receiver even when the body is
	// errored (§3).
	Header []byte
	// Payload is the frame body; a CRC-32 FCS is appended by the PHY.
	Payload []byte
	// Rate is the modulation/coding combination for the body.
	Rate rate.Rate
	// Postamble appends a trailing sync pattern enabling detection of
	// frames whose preamble was destroyed by interference (§3.2).
	Postamble bool
}

// Transmission is a frame encoded onto OFDM symbols, ready to traverse a
// channel. It also retains the ground-truth coded/info bits so experiments
// can measure true BER — information a real receiver does not have.
type Transmission struct {
	Cfg   Config
	Frame Frame

	// hdrInfoBits are the padded header information bits (incl. CRC-16).
	hdrInfoBits []byte
	// infoBits are the padded payload information bits (incl. CRC-32).
	infoBits []byte
	// hdrSyms and dataSyms are the modulated OFDM data-tone vectors.
	hdrSyms  [][]complex128
	dataSyms [][]complex128
}

// headerRate returns the rate used for the header: the most robust one.
func headerRate() rate.Rate { return rate.Lowest() }

// appendPaddedBits appends the info bits of frameBytes to dst, zero-padded
// so that, after the 6 tail bits and puncturing at r's code rate, the
// coded stream fills a whole number of OFDM symbols exactly (the 802.11
// padding rule).
func appendPaddedBits(dst []byte, frameBytes []byte, m ofdm.Mode, r rate.Rate) []byte {
	dst = bitutil.AppendBytesToBits(dst, frameBytes)
	ndbps := m.InfoBitsPerSymbol(r)
	n := len(dst) + coding.TailBits
	nSym := (n + ndbps - 1) / ndbps
	for len(dst) < nSym*ndbps-coding.TailBits {
		dst = append(dst, 0)
	}
	return dst
}

// encodeSegment runs info bits through the full TX pipeline at rate r —
// convolutional encoding, puncturing, per-symbol interleaving, modulation —
// reusing the workspace scratch. The modulated tones land in *flat and the
// returned per-symbol views are carved from it into *syms.
func (ws *Workspace) encodeSegment(cfg Config, info []byte, r rate.Rate, flat *[]complex128, syms *[][]complex128) [][]complex128 {
	ws.coded = coding.AppendEncode(ws.coded[:0], info)
	ws.punct = coding.AppendPuncture(ws.punct[:0], ws.coded, r.Code)
	ncbps := cfg.Mode.CodedBitsPerSymbol(r.Scheme)
	perm := ofdm.CachedPermutation(ncbps, r.Scheme.BitsPerSymbol())
	if cap(ws.inter) < len(ws.punct) {
		ws.inter = make([]byte, len(ws.punct))
	}
	inter := ofdm.InterleaveBitsInto(ws.inter[:len(ws.punct)], ws.punct, perm)
	nSym := len(inter) / ncbps
	*flat = (*flat)[:0]
	for j := 0; j < nSym; j++ {
		*flat = modulation.AppendModulate(*flat, r.Scheme, inter[j*ncbps:(j+1)*ncbps])
	}
	// Carve the per-symbol views only after the flat plane has finished
	// growing, so they all point at the final backing array.
	tones := len(*flat) / nSym
	out := (*syms)[:0]
	for j := 0; j < nSym; j++ {
		out = append(out, (*flat)[j*tones:(j+1)*tones])
	}
	*syms = out
	return out
}

// Transmit encodes a frame for the air. The header is sent at the lowest
// rate with a CRC-16; the payload at f.Rate with a CRC-32. This entry
// point allocates a fresh Transmission per call; the simulation hot path
// uses TransmitWS.
func Transmit(cfg Config, f Frame) *Transmission {
	return TransmitWS(nil, cfg, f)
}

// TransmitWS is Transmit backed by per-worker scratch: the returned
// Transmission and everything it references live inside ws and are valid
// until the next TransmitWS call on it. A nil ws falls back to a fresh
// throwaway workspace (equivalent to Transmit).
func TransmitWS(ws *Workspace, cfg Config, f Frame) *Transmission {
	if ws == nil {
		ws = NewWorkspace()
	}
	hr := headerRate()
	hdrCRC := bitutil.CRC16CCITT(f.Header)
	ws.hdrFrame = append(append(ws.hdrFrame[:0], f.Header...), byte(hdrCRC>>8), byte(hdrCRC))
	ws.hdrInfo = appendPaddedBits(ws.hdrInfo[:0], ws.hdrFrame, cfg.Mode, hr)

	ws.bodyFrame = bitutil.AppendCRC32To(ws.bodyFrame[:0], f.Payload)
	ws.info = appendPaddedBits(ws.info[:0], ws.bodyFrame, cfg.Mode, f.Rate)

	ws.tx = Transmission{
		Cfg:         cfg,
		Frame:       f,
		hdrInfoBits: ws.hdrInfo,
		infoBits:    ws.info,
		hdrSyms:     ws.encodeSegment(cfg, ws.hdrInfo, hr, &ws.hdrSymFlat, &ws.hdrSyms),
		dataSyms:    ws.encodeSegment(cfg, ws.info, f.Rate, &ws.dataSymFlat, &ws.dataSyms),
	}
	return &ws.tx
}

// NumSymbols returns the total OFDM symbols on the air, including preamble,
// header, data and optional postamble.
func (t *Transmission) NumSymbols() int {
	n := ofdm.PreambleSymbols + len(t.hdrSyms) + len(t.dataSyms)
	if t.Frame.Postamble {
		n += ofdm.PostambleSymbols
	}
	return n
}

// Airtime returns the on-air duration of the transmission.
func (t *Transmission) Airtime() float64 {
	return float64(t.NumSymbols()) * t.Cfg.Mode.SymbolTime()
}

// InfoBits exposes the ground-truth padded payload information bits
// (including FCS and padding) for true-BER measurement in experiments.
func (t *Transmission) InfoBits() []byte { return t.infoBits }

// dataSymbolOffset returns the index of the first payload symbol within the
// whole transmission.
func (t *Transmission) dataSymbolOffset() int {
	return ofdm.PreambleSymbols + len(t.hdrSyms)
}

// NoiseDraws returns the number of NormFloat64 variates the receiver
// (QueueReceive, and so ReceiveWS and Link.Deliver) consumes for this
// transmission given the preamble-detection outcome (itself pure — see
// PreambleDetects). The calibration pipeline uses this to pre-draw each
// frame's noise from the sequential master stream and decode frames in
// parallel with byte-identical results.
func (t *Transmission) NoiseDraws(detected bool) int {
	perSym := 2 * t.Cfg.Mode.DataTones
	draws := ofdm.PreambleSymbols * perSym
	if t.Frame.Postamble {
		draws += ofdm.PostambleSymbols * perSym
	}
	if detected {
		draws += (len(t.hdrSyms) + len(t.dataSyms)) * perSym
	}
	return draws
}
