package trace

import (
	"math/rand"

	"softrate/internal/core"
)

// This file implements frame-by-frame trace replay: the bridge between a
// captured LinkTrace and anything that consumes sender-side feedback
// events — the benchmark's load generator (bench/), determinism tests, and any
// future experiment that walks a trace one transmission at a time. It
// centralizes the slot-walking and outcome-derivation logic that would
// otherwise be re-implemented per consumer.

// FrameEvent is what the sender learns about one replayed transmission: the
// feedback kind (§3.2's four outcomes), and — for the kinds that carry a
// BER — the interference-free estimate from the trace snapshot.
type FrameEvent struct {
	// Slot is the trace slot the frame occupied.
	Slot int
	// RateIndex is the rate the frame was (hypothetically) sent at — the
	// value the caller passed to Next.
	RateIndex int
	// Kind is the sender-side outcome.
	Kind core.FeedbackKind
	// BER is the receiver's interference-free BER estimate; meaningful
	// only for KindBER and KindCollision.
	BER float64
	// SNRdB is the preamble SNR estimate, for SNR-based consumers;
	// meaningful only when the preamble was received (KindBER,
	// KindCollision).
	SNRdB float64
	// Delivered reports whether the frame body arrived intact (always
	// false under collision kinds: both colliding frames are lost, §6.1).
	Delivered bool
}

// Mix overlays a synthetic hidden-terminal interference process on a
// replay, mirroring the collision-outcome geometry of the MAC simulator
// (preamble-clean → collision-tagged feedback; preamble lost but postamble
// caught → postamble-only feedback; both lost → silent loss). A zero Mix
// replays the trace without interference.
type Mix struct {
	// CollisionProb is the per-frame probability that an interferer
	// overlaps the transmission.
	CollisionProb float64
	// PreambleLossProb is, given a collision, the probability the overlap
	// covers the preamble (Table 1 puts preamble loss around 10–15% under
	// hidden terminals).
	PreambleLossProb float64
	// PostambleProb is, given a lost preamble, the probability the
	// postamble survives and the receiver sends a postamble-only ACK.
	// Zero models a sender without the postamble extension.
	PostambleProb float64
}

// FrameIter replays a LinkTrace one frame per snapshot slot. The caller
// drives it with the rate it would transmit at (the closed adaptation
// loop: decide → transmit → observe), and the iterator answers with the
// frame's fate. Iteration wraps past the end of the trace indefinitely —
// use Len to bound a single pass.
type FrameIter struct {
	lt   *LinkTrace
	mix  Mix
	rng  *rand.Rand
	pos  int // next slot, 0..Len()-1
	wrap int
}

// Frames returns a replay iterator over the trace, one frame per snapshot
// slot. The seed drives the iterator's private randomness: the starting
// slot offset (so concurrent replays of one shared trace don't walk in
// lockstep) and nothing else — a zero-Mix replay visits every snapshot
// deterministically.
func (lt *LinkTrace) Frames(seed int64) *FrameIter {
	return lt.FramesMix(seed, Mix{})
}

// FramesMix is Frames with a synthetic interference overlay; the same seed
// always yields the same event sequence for the same rate decisions.
func (lt *LinkTrace) FramesMix(seed int64, mix Mix) *FrameIter {
	rng := rand.New(rand.NewSource(seed))
	it := &FrameIter{lt: lt, mix: mix, rng: rng}
	if n := it.Len(); n > 0 {
		it.pos = rng.Intn(n)
	}
	return it
}

// Len returns the number of slots in one pass over the trace.
func (it *FrameIter) Len() int {
	if len(it.lt.Snapshots) == 0 {
		return 0
	}
	return len(it.lt.Snapshots[0])
}

// Epoch returns how many times the iterator has wrapped past the end of
// the trace.
func (it *FrameIter) Epoch() int { return it.wrap }

// Next replays one frame sent at rateIndex (clamped into the traced rate
// range) and advances. ok is false only for an empty trace.
func (it *FrameIter) Next(rateIndex int) (ev FrameEvent, ok bool) {
	n := it.Len()
	if n == 0 {
		return FrameEvent{}, false
	}
	if rateIndex < 0 {
		rateIndex = 0
	}
	if max := it.lt.NumRates() - 1; rateIndex > max {
		rateIndex = max
	}
	slot := it.pos
	it.pos++
	if it.pos == n {
		it.pos = 0
		it.wrap++
	}
	snap := it.lt.Snapshots[rateIndex][slot]
	ev = FrameEvent{Slot: slot, RateIndex: rateIndex, SNRdB: snap.SNRdB}

	if it.mix.CollisionProb > 0 && it.rng.Float64() < it.mix.CollisionProb {
		// Collision: the body is lost regardless of the channel. What the
		// sender hears depends on which frame edges survived the overlap.
		preambleLost := !snap.Detected || it.rng.Float64() < it.mix.PreambleLossProb
		switch {
		case !preambleLost:
			ev.Kind = core.KindCollision
			ev.BER = snap.BER
		case it.rng.Float64() < it.mix.PostambleProb:
			ev.Kind = core.KindPostamble
		default:
			ev.Kind = core.KindSilentLoss
		}
		return ev, true
	}

	if !snap.Detected {
		ev.Kind = core.KindSilentLoss
		return ev, true
	}
	ev.Kind = core.KindBER
	ev.BER = snap.BER
	ev.Delivered = snap.Delivered
	return ev, true
}
