// Package ratectl provides the rate adaptation algorithms SoftRate is
// evaluated against (§6.1): the frame-level protocols SampleRate [4] and
// RRAA [24], two SNR-based protocols (a per-frame RBAR-like scheme and a
// CHARM-like averaged-SNR scheme), an omniscient oracle, and a fixed-rate
// control — plus the Adapter wrapper for SoftRate itself so every
// algorithm drives the same MAC through one interface.
package ratectl

import (
	"math"
	"sync"

	"softrate/internal/core"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
)

// Result reports the outcome of one frame transmission to the adaptation
// algorithm. Fields not applicable to a given protocol are simply ignored
// by it; this mirrors reality, where the information *exists* at the
// receiver and each protocol chooses which part of it to feed back.
type Result struct {
	// Time is when the transmission completed (seconds).
	Time float64
	// RateIndex is the rate the frame was sent at.
	RateIndex int
	// Airtime is the time spent on this transmission attempt, including
	// MAC overheads (used by SampleRate's transmission-time metric).
	Airtime float64
	// Delivered reports whether the frame was ACKed (body intact).
	Delivered bool
	// FeedbackReceived reports whether *any* link-layer feedback arrived
	// (SoftRate receivers ACK errored frames too, carrying BER).
	FeedbackReceived bool
	// PostambleOnly reports a postamble-only ACK: the receiver caught
	// only the tail of a collided frame (§3.2).
	PostambleOnly bool
	// BER is the interference-free BER estimate from SoftPHY feedback.
	BER float64
	// Collision is the SoftRate receiver's interference verdict.
	Collision bool
	// SNRdB is the receiver's SNR estimate echoed in the ACK (NaN when
	// no feedback arrived).
	SNRdB float64
	// UsedRTS reports whether this transmission was preceded by RTS/CTS.
	UsedRTS bool
}

// Adapter is a sender-side rate adaptation algorithm.
type Adapter interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// NextRate returns the rate index to use for the next frame.
	NextRate(now float64) int
	// WantRTS reports whether the next frame should use RTS/CTS
	// (RRAA's adaptive RTS filter; other algorithms return false).
	WantRTS() bool
	// OnResult feeds back the outcome of a transmission.
	OnResult(res Result)
}

// Fixed always transmits at one rate.
type Fixed struct {
	// Index is the rate index to use.
	Index int
	// Label optionally overrides the name.
	Label string
}

// Name implements Adapter.
func (f *Fixed) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "Fixed"
}

// NextRate implements Adapter.
func (f *Fixed) NextRate(float64) int { return f.Index }

// WantRTS implements Adapter.
func (f *Fixed) WantRTS() bool { return false }

// OnResult implements Adapter.
func (f *Fixed) OnResult(Result) {}

// Omniscient consults an oracle that knows the channel's future: it
// returns, for any instant, the highest rate index guaranteed to deliver a
// frame started then ("always picks the highest rate guaranteed to
// succeed", §6.1). The oracle function is supplied by the trace harness.
type Omniscient struct {
	// Oracle maps a transmission start time to the optimal rate index.
	Oracle func(now float64) int
}

// Name implements Adapter.
func (o *Omniscient) Name() string { return "Omniscient" }

// NextRate implements Adapter.
func (o *Omniscient) NextRate(now float64) int { return o.Oracle(now) }

// WantRTS implements Adapter.
func (o *Omniscient) WantRTS() bool { return false }

// OnResult implements Adapter.
func (o *Omniscient) OnResult(Result) {}

// SoftRateAdapter drives the core SoftRate algorithm through the Adapter
// interface.
type SoftRateAdapter struct {
	// SR is the underlying algorithm state.
	SR *core.SoftRate
}

// NewSoftRate builds a SoftRate adapter with the given core configuration.
func NewSoftRate(cfg core.Config) *SoftRateAdapter {
	return &SoftRateAdapter{SR: core.New(cfg)}
}

// Name implements Adapter.
func (s *SoftRateAdapter) Name() string { return "SoftRate" }

// NextRate implements Adapter.
func (s *SoftRateAdapter) NextRate(float64) int { return s.SR.CurrentIndex() }

// WantRTS implements Adapter.
func (s *SoftRateAdapter) WantRTS() bool { return false }

// OnResult implements Adapter.
func (s *SoftRateAdapter) OnResult(res Result) {
	switch {
	case res.FeedbackReceived && !res.PostambleOnly:
		s.SR.OnFeedback(core.Feedback{
			RateIndex: res.RateIndex,
			BER:       res.BER,
			Collision: res.Collision,
		})
	case res.PostambleOnly:
		s.SR.OnPostambleFeedback()
	default:
		s.SR.OnSilentLoss()
	}
}

// SNRBased is a per-frame SNR feedback protocol in the spirit of RBAR
// [10]: the receiver echoes its SNR estimate in the link-layer ACK (no
// RTS/CTS overhead, as in the paper's §6.1 variant) and the sender picks
// the highest rate whose trained SNR threshold the estimate clears.
//
// Thresholds[i] is the minimum SNR (dB) at which rate i is usable. The
// quality of these thresholds is the protocol's Achilles heel: trained on
// the wrong environment they are simply wrong (§6.3) — construct them
// with TrainThresholds against the target environment for the "trained"
// variant, or against a different one for "untrained".
type SNRBased struct {
	// Thresholds[i] is the minimum usable SNR in dB for rate index i;
	// must be non-decreasing.
	Thresholds []float64
	// Averaged, when true, smooths the SNR with an EWMA across frames —
	// the CHARM-like variant [13]. CHARM gains robustness against
	// outliers but loses responsiveness to short-term variation (§6.2).
	Averaged bool
	// AveragingGain is the EWMA weight of a new sample (default 0.1).
	AveragingGain float64
	// SilentLossRun steps the rate down after this many consecutive
	// frames with no feedback (default 3, same rule as SoftRate so the
	// comparison does not penalize SNR protocols on silent losses).
	SilentLossRun int

	label     string
	haveSNR   bool
	snrDB     float64
	silent    int
	downBias  int
	lastIndex int
}

// NewSNRBased builds a per-frame SNR protocol with the given thresholds.
func NewSNRBased(thresholds []float64, label string) *SNRBased {
	return &SNRBased{Thresholds: thresholds, label: label, SilentLossRun: 3}
}

// NewCHARM builds the averaged-SNR variant.
func NewCHARM(thresholds []float64) *SNRBased {
	return &SNRBased{
		Thresholds:    thresholds,
		Averaged:      true,
		AveragingGain: 0.1,
		label:         "CHARM",
		SilentLossRun: 3,
	}
}

// Name implements Adapter.
func (s *SNRBased) Name() string {
	if s.label != "" {
		return s.label
	}
	if s.Averaged {
		return "CHARM"
	}
	return "SNR"
}

// WantRTS implements Adapter.
func (s *SNRBased) WantRTS() bool { return false }

// NextRate implements Adapter.
func (s *SNRBased) NextRate(float64) int {
	if !s.haveSNR {
		s.lastIndex = 0
		return 0
	}
	idx := 0
	for i, th := range s.Thresholds {
		if s.snrDB >= th {
			idx = i
		}
	}
	idx -= s.downBias
	if idx < 0 {
		idx = 0
	}
	s.lastIndex = idx
	return idx
}

// OnResult implements Adapter.
func (s *SNRBased) OnResult(res Result) {
	if !res.FeedbackReceived || math.IsNaN(res.SNRdB) {
		s.silent++
		run := s.SilentLossRun
		if run <= 0 {
			run = 3
		}
		if s.silent >= run {
			s.silent = 0
			// Bias the mapping downward until fresh SNR arrives.
			s.downBias++
			if s.downBias > len(s.Thresholds) {
				s.downBias = len(s.Thresholds)
			}
		}
		return
	}
	s.silent = 0
	s.downBias = 0
	if s.Averaged && s.haveSNR {
		g := s.AveragingGain
		if g <= 0 {
			g = 0.1
		}
		s.snrDB = (1-g)*s.snrDB + g*res.SNRdB
	} else {
		s.snrDB = res.SNRdB
	}
	s.haveSNR = true
}

// TrainThresholds derives per-rate SNR thresholds from labelled samples:
// for each rate it finds the lowest SNR bin (0.5 dB granularity) at and
// above which the average frame delivery rate is at least target (e.g.
// 0.9). Samples below any usable SNR leave the rate's threshold at +Inf,
// which NextRate treats as unusable. The rate-0 threshold is forced
// finite (there must always be a usable rate).
//
// This mimics the in-situ training the paper performs when it computes
// "SNR-BER relationships ... from the traces used for evaluation" (§6.1).
type TrainingSample struct {
	// RateIndex is the rate the probe frame used.
	RateIndex int
	// SNRdB is the receiver's SNR estimate for that frame.
	SNRdB float64
	// Delivered reports whether the frame was intact.
	Delivered bool
}

// TrainThresholds computes SNR thresholds from samples for nRates rates.
func TrainThresholds(samples []TrainingSample, nRates int, target float64) []float64 {
	const binW = 0.5
	binOf := func(s TrainingSample) int { return int(math.Floor(s.SNRdB / binW)) }
	// Rate i's bins lo[i]..hi[i] are bins[off[i]:], found in a first pass.
	lo, hi, off := make([]int, nRates), make([]int, nRates), make([]int, nRates+1)
	for i := range lo {
		lo[i], hi[i] = math.MaxInt32, math.MinInt32
	}
	for _, s := range samples {
		if s.RateIndex >= 0 && s.RateIndex < nRates {
			k := binOf(s)
			lo[s.RateIndex] = min(lo[s.RateIndex], k)
			hi[s.RateIndex] = max(hi[s.RateIndex], k)
		}
	}
	for i := range lo {
		off[i+1] = off[i] + max(hi[i]-lo[i]+1, 0)
	}
	type bin struct{ ok, n int }
	bins := make([]bin, off[nRates])
	for _, s := range samples {
		if s.RateIndex >= 0 && s.RateIndex < nRates {
			b := &bins[off[s.RateIndex]+binOf(s)-lo[s.RateIndex]]
			b.n++
			if s.Delivered {
				b.ok++
			}
		}
	}
	th := make([]float64, nRates)
	for i := range th {
		th[i] = math.Inf(1)
		// Scan bins from high SNR downwards, tracking cumulative delivery
		// above each candidate threshold.
		cumOK, cumN := 0, 0
		for k := hi[i]; k >= lo[i]; k-- {
			b := bins[off[i]+k-lo[i]]
			cumOK += b.ok
			cumN += b.n
			if cumN >= 10 && float64(cumOK)/float64(cumN) >= target {
				th[i] = float64(k) * binW
			}
		}
	}
	if math.IsInf(th[0], 1) {
		th[0] = -30
	}
	// Enforce monotonicity: a faster rate can never need less SNR.
	for i := 1; i < nRates; i++ {
		if th[i] < th[i-1] {
			th[i] = th[i-1]
		}
	}
	return th
}

// nominalFrameBytes is the paper's 1400-byte evaluation frame.
const nominalFrameBytes = 1400

var (
	nominalOnce    sync.Once
	nominalAirtime []float64
)

// NominalAirtimes returns the lossless airtime of a 1400-byte frame at
// each evaluation rate in simulation mode: the vector SampleRate and RRAA
// derive their thresholds from, and the airtime the served controllers
// assume for feedback that carries none. Each call returns a fresh copy.
func NominalAirtimes() []float64 {
	nominalOnce.Do(func() {
		rates := rate.Evaluation()
		nominalAirtime = make([]float64, len(rates))
		for i, r := range rates {
			nominalAirtime[i] = ofdm.Simulation.PayloadAirtime(nominalFrameBytes, r, false)
		}
	})
	out := make([]float64, len(nominalAirtime))
	copy(out, nominalAirtime)
	return out
}
