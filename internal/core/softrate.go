// Package core implements the SoftRate bit rate adaptation algorithm of
// §3.3 — the paper's primary contribution. A SoftRate sender receives one
// interference-free BER measurement per transmitted frame (computed by the
// receiver from SoftPHY hints and echoed in the link-layer feedback) and
// steers the transmit bit rate toward the one that minimizes air time.
//
// The algorithm rests on three mechanisms:
//
//  1. A BER prediction heuristic: at a fixed SNR the BER is monotonically
//     increasing in bit rate, and within the usable range (< 1e-2) each
//     step up in rate costs at least a factor of 10 in BER.
//  2. Per-rate optimal threshold ranges (α_i, β_i): when the BER at rate
//     R_i lies inside (α_i, β_i), R_i is the throughput-optimal rate. The
//     thresholds depend on the link layer's error recovery scheme, which
//     is abstracted behind the ErrorRecovery interface — this is the
//     modularity argument of §3.3 (rate adaptation decoupled from error
//     recovery).
//  3. A selection rule that moves the rate in the direction of optimum,
//     jumping up to MaxJump levels at a time when the BER is orders of
//     magnitude outside the optimal band.
//
// Silent losses (no feedback at all) are handled per §3.2: a run of
// SilentLossRun consecutive silent losses is taken as evidence of a weak
// signal (collisions essentially never produce runs of 3+, Figure 4) and
// the sender steps the rate down.
package core

import (
	"math"

	"softrate/internal/rate"
)

// ErrorRecovery abstracts the link layer's error recovery scheme for
// threshold computation. UpperBER returns β_i: the channel BER at rate r
// above which dropping to the next lower rate wins, for frames of
// frameBits > 0 bits (New always passes Config.FrameBits, which it fills
// with NominalFrameBytes*8 when unset).
type ErrorRecovery interface {
	UpperBER(r rate.Rate, frameBits int) float64
}

// FrameARQ models 802.11-style whole-frame retransmission. With
// frame-level ARQ the throughput at rate R_i beats R_{i-1} until the frame
// loss rate reaches roughly the rate step ratio; following the paper's
// worked example (§3.3), the break-even frame loss rate is 1/3 (an 18→12
// Mbps step), giving β = -ln(1 - 1/3)/L for L-bit frames — order 1e-5 for
// 10^4-bit frames, exactly the paper's number.
type FrameARQ struct{}

// frameLossTolerance is FrameARQ's break-even frame loss rate, §3.3's 1/3.
const frameLossTolerance = 1.0 / 3

// UpperBER implements ErrorRecovery.
func (FrameARQ) UpperBER(_ rate.Rate, frameBits int) float64 {
	tol := float64(frameLossTolerance) // 1 - tol rounds in float64, not as an exact constant
	return -math.Log(1-tol) / float64(frameBits)
}

// HybridARQ models a smarter recovery scheme that retransmits only a small
// number of parity bits on error (incremental redundancy / PPR-style). A
// few bit errors are cheap to repair, so a rate stays profitable up to a
// much higher BER; the paper's example sets β at 1e-3 for 10^4-bit frames,
// i.e. about bit-errors-per-frame ≈ 10 being the break-even point.
type HybridARQ struct{}

// tolerableErrorsPerFrame is the number of bit errors per frame at which
// HybridARQ's retransmission overhead cancels the rate gain: §3.3's 10.
const tolerableErrorsPerFrame = 10

// UpperBER implements ErrorRecovery.
func (HybridARQ) UpperBER(_ rate.Rate, frameBits int) float64 {
	return tolerableErrorsPerFrame / float64(frameBits)
}

// NominalFrameBytes is the paper's 1400-byte evaluation frame (§6.1): the
// frame size the default thresholds, and the serving controllers' SNR
// thresholds and lossless airtimes, are computed for.
const NominalFrameBytes = 1400

// The threshold margins of §3.3's worked example.
const (
	// upMargin is the per-level safety factor between β_i and the
	// increase threshold: α_i = β_i / upMargin. 100 encodes the paper's
	// worked example (β=1e-5 ⇒ α=1e-7) and covers rate steps that cost
	// up to two orders of magnitude in BER.
	upMargin float64 = 100
	// downMargin is the per-extra-level factor for multi-level down
	// jumps: jump n levels down when BER > β_i · downMargin^(n-1). 1000
	// encodes the example "BER above 1e-2 ⇒ jump two rates below an 1e-5
	// threshold".
	downMargin float64 = 1000
)

// Config parameterizes the SoftRate algorithm.
type Config struct {
	// Rates is the available rate set in increasing order (default: the
	// six-rate evaluation subset).
	Rates []rate.Rate
	// FrameBits is the nominal frame size used for threshold computation.
	FrameBits int
	// Recovery selects the error recovery model (default FrameARQ).
	Recovery ErrorRecovery
	// MaxJump bounds the levels moved per decision (the implementation in
	// the paper does up to two).
	MaxJump int
	// SilentLossRun is the number of consecutive silent losses taken to
	// mean a weak signal (Figure 4 analysis ⇒ 3).
	SilentLossRun int
}

// DefaultConfig returns the configuration matching the paper's
// implementation: six evaluation rates, 1400-byte frames, frame-level ARQ,
// two-level jumps, three-silent-loss rule.
func DefaultConfig() Config {
	return Config{
		Rates:         rate.Evaluation(),
		FrameBits:     NominalFrameBytes * 8,
		Recovery:      FrameARQ{},
		MaxJump:       2,
		SilentLossRun: 3,
	}
}

// Feedback is the per-frame information echoed by a SoftRate receiver: the
// interference-free BER estimate for the frame, the rate it was sent at,
// and whether the receiver's heuristic attributed damage to a collision.
type Feedback struct {
	// RateIndex is the index (into Config.Rates) the frame was sent at.
	RateIndex int
	// BER is the receiver's interference-free BER estimate.
	BER float64
	// Collision reports the receiver's interference verdict. The BER is
	// already interference-free, so the threshold rule treats the frame
	// like any other — but a collision-tagged feedback does not clear the
	// silent-loss run (see OnFeedback), so the flag does influence the
	// §3.2 weak-signal rule.
	Collision bool
}

// FeedbackKind enumerates the four sender-side outcomes of a transmission
// (§3.2–§3.3): a clean BER feedback, a collision-tagged BER feedback, no
// feedback at all, and a postamble-only reception. The values are part of
// the softrated wire protocol — do not reorder.
type FeedbackKind uint8

const (
	// KindBER is an ordinary per-frame BER feedback.
	KindBER FeedbackKind = iota
	// KindCollision is a BER feedback the receiver tagged as
	// interference-damaged (the BER is the excised, interference-free
	// estimate).
	KindCollision
	// KindSilentLoss is a transmission with no feedback of any kind.
	KindSilentLoss
	// KindPostamble is a postamble-only reception: the body was lost to a
	// collision but the receiver proved it can hear the sender.
	KindPostamble

	// NumKinds is the number of feedback kinds (for validation).
	NumKinds
)

// String names the kind for logs and stats tables.
func (k FeedbackKind) String() string {
	switch k {
	case KindBER:
		return "ber"
	case KindCollision:
		return "collision"
	case KindSilentLoss:
		return "silent"
	case KindPostamble:
		return "postamble"
	default:
		return "invalid"
	}
}

// State is the relocatable dynamic state of a controller: everything that
// distinguishes one link's SoftRate instance from a freshly built one with
// the same Config. It is deliberately tiny (8 bytes) so a store can hold
// millions of link states and rebuild the full controller on demand via
// Restore.
type State struct {
	// RateIndex is the current rate index.
	RateIndex int32
	// SilentRun is the current consecutive-silent-loss count.
	SilentRun int32
}

// band holds one rate's optimal-BER threshold range (α_i, β_i). The two
// thresholds are read together on every feedback, so they share a struct
// (and almost always a cache line) rather than living in parallel slices
// — the decision service cycles through many cold controllers per batch
// and pays for every line a decision touches.
type band struct {
	alpha, beta float64
}

// SoftRate is the sender-side algorithm state.
type SoftRate struct {
	cfg Config
	st  State

	bands []band // per-rate (α_i, β_i)

	// Precomputed multi-level jump thresholds, flattened with stride
	// MaxJump-1: downJump[i*stride+n-1] = β_i·downMargin^n and
	// upJump[i*stride+n-1] = β_i/upMargin^(n+1) for n in 1..MaxJump-1.
	// Precomputing keeps math.Pow out of the per-feedback hot path, which
	// must stay allocation-free and branch-cheap for the decision service.
	downJump []float64
	upJump   []float64
}

// New builds a SoftRate instance starting at the lowest rate.
func New(cfg Config) *SoftRate {
	if len(cfg.Rates) == 0 {
		cfg.Rates = rate.Evaluation()
	}
	if cfg.FrameBits <= 0 {
		cfg.FrameBits = NominalFrameBytes * 8
	}
	if cfg.Recovery == nil {
		cfg.Recovery = FrameARQ{}
	}
	if cfg.MaxJump <= 0 {
		cfg.MaxJump = 2
	}
	if cfg.SilentLossRun <= 0 {
		cfg.SilentLossRun = 3
	}
	s := &SoftRate{cfg: cfg}
	stride := cfg.MaxJump - 1
	s.bands = make([]band, len(cfg.Rates))
	s.downJump = make([]float64, len(cfg.Rates)*stride)
	s.upJump = make([]float64, len(cfg.Rates)*stride)
	for i, r := range cfg.Rates {
		beta := cfg.Recovery.UpperBER(r, cfg.FrameBits)
		s.bands[i] = band{alpha: beta / upMargin, beta: beta}
		for n := 1; n < cfg.MaxJump; n++ {
			s.downJump[i*stride+n-1] = beta * math.Pow(downMargin, float64(n))
			s.upJump[i*stride+n-1] = beta / math.Pow(upMargin, float64(n+1))
		}
	}
	return s
}

// CurrentIndex returns the index of the current rate in the configured set.
func (s *SoftRate) CurrentIndex() int { return int(s.st.RateIndex) }

// Thresholds exposes (α_i, β_i) for rate index i, mainly for tests,
// documentation and the threshold-ablation bench.
func (s *SoftRate) Thresholds(i int) (alpha, beta float64) {
	return s.bands[i].alpha, s.bands[i].beta
}

// Step is the §3.3 rule as a pure function: the link's state after one
// feedback event of the given kind; the next frame's rate is the result's
// RateIndex. It only reads s, so one SoftRate serves any number of links
// and goroutines, and it clamps st as Restore does. rateIndex and ber are
// ignored for the kinds that carry no BER (silent loss, postamble);
// unknown kinds are treated as silent losses — the conservative reading
// of garbage feedback. Allocation-free and without math.Pow (thresholds
// are precomputed in New): it is the inner loop of the softrated decision
// service.
func (s *SoftRate) Step(st State, kind FeedbackKind, rateIndex int, ber float64) State {
	top := len(s.cfg.Rates) - 1
	cur := clamp(int(st.RateIndex), 0, top)
	run := clamp(int(st.SilentRun), 0, s.cfg.SilentLossRun-1)
	switch kind {
	case KindBER, KindCollision:
		// Only a clean (non-collision) feedback clears the silent-loss run:
		// the run counter exists to detect signal loss, and feedback for a
		// frame damaged by interference carries no fresh evidence that the
		// *signal* is strong — its excised BER already drives the threshold
		// rule. If collisions reset the counter, sporadic interference could
		// mask a genuinely weakening link indefinitely (§3.3; postamble
		// disambiguation in §3.2 is the mechanism that positively rules out
		// attenuation).
		if kind == KindBER {
			run = 0
		}
		i := rateIndex
		if i < 0 || i > top {
			i = cur
		}
		th := s.bands[i]
		stride := s.cfg.MaxJump - 1
		switch {
		case ber > th.beta:
			// Jump n levels down while the BER exceeds β_i by downMargin per
			// extra level.
			n := 1
			for n < s.cfg.MaxJump && ber > s.downJump[i*stride+n-1] {
				n++
			}
			cur = max(i-n, 0)
		case ber < th.alpha:
			// Jump n levels up while the BER clears α_i by upMargin per
			// extra level.
			n := 1
			for n < s.cfg.MaxJump && ber < s.upJump[i*stride+n-1] {
				n++
			}
			cur = min(i+n, top)
		default:
			cur = i
		}
	case KindPostamble:
		// The receiver saw the postamble (so it ACKed) but the preamble —
		// and with it the body — was lost to a collision: interference, not
		// attenuation, so the rate stays (§3.2). Unlike a collision-tagged
		// BER feedback, the postamble positively proves the receiver still
		// hears the sender, so it clears the silent-loss run.
		run = 0
	default:
		// No feedback of any kind. After SilentLossRun consecutive silent
		// losses the sender concludes the signal is too weak for the
		// receiver to even detect frames and steps down one rate (§3.2).
		run++
		if run >= s.cfg.SilentLossRun {
			run = 0
			cur = max(cur-1, 0)
		}
	}
	return State{RateIndex: int32(cur), SilentRun: int32(run)}
}

// Apply runs Step on the controller's own state and returns the rate
// index chosen for the next frame.
func (s *SoftRate) Apply(kind FeedbackKind, rateIndex int, ber float64) int {
	s.st = s.Step(s.st, kind, rateIndex, ber)
	return int(s.st.RateIndex)
}

// OnFeedback processes one per-frame BER feedback: a KindBER step, or a
// KindCollision one when the receiver tagged the frame.
func (s *SoftRate) OnFeedback(fb Feedback) {
	kind := KindBER
	if fb.Collision {
		kind = KindCollision
	}
	s.st = s.Step(s.st, kind, fb.RateIndex, fb.BER)
}

// OnSilentLoss records a transmission for which no feedback of any kind
// arrived.
func (s *SoftRate) OnSilentLoss() { s.st = s.Step(s.st, KindSilentLoss, 0, 0) }

// OnPostambleFeedback handles the postamble-only reception case.
func (s *SoftRate) OnPostambleFeedback() { s.st = s.Step(s.st, KindPostamble, 0, 0) }

// Snapshot captures the controller's dynamic state. Together with Restore
// it makes controllers relocatable: a store can evict an idle link to an
// 8-byte State and later rebuild an equivalent controller from any
// instance built with the same Config.
func (s *SoftRate) Snapshot() State {
	return s.st
}

// Restore overwrites the controller's dynamic state with a snapshot,
// clamping out-of-range values (a snapshot may have been taken under a
// different rate-set size).
func (s *SoftRate) Restore(st State) {
	s.st.RateIndex = int32(clamp(int(st.RateIndex), 0, len(s.cfg.Rates)-1))
	s.st.SilentRun = int32(clamp(int(st.SilentRun), 0, s.cfg.SilentLossRun-1))
}

// PredictBER applies the §3.3 prediction heuristic: each rate step changes
// BER by at least a factor of 10 within the usable range. It returns the
// (conservative) predicted BER at rate index 'to' given a measured BER at
// index 'from' — a tool for tests and the omniscient comparisons, not used
// in the decision rule itself (the thresholds already encode the margins).
func PredictBER(ber float64, from, to int) float64 {
	// Clamp the input to the meaningful probability range: no estimator
	// can report above 0.5 (random guessing), and negatives are noise.
	if ber <= 0 {
		return 0
	}
	if ber > 0.5 {
		ber = 0.5
	}
	steps := float64(to - from)
	p := ber * math.Pow(10, steps)
	if p > 0.5 {
		p = 0.5
	}
	return p
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
