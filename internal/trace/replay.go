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
	rng  *rand.Rand // nil unless mix.CollisionProb > 0
	pos  int        // next slot, 0..Len()-1
	wrap int
}

// Frames returns a replay iterator over the trace, one frame per snapshot
// slot. The seed picks only the starting slot offset (so concurrent replays
// of one shared trace don't walk in lockstep): it is
// rand.New(rand.NewSource(seed)).Intn(Len()) bit for bit, computed in O(1),
// and the iterator holds no generator. A zero-Mix replay visits every
// snapshot deterministically.
func (lt *LinkTrace) Frames(seed int64) *FrameIter {
	return lt.FramesMix(seed, Mix{})
}

// FramesMix is Frames with a synthetic interference overlay; the same seed
// always yields the same event sequence for the same rate decisions. The
// start slot is math/rand's first draw for the seed, as in Frames; only a
// Mix with a positive CollisionProb keeps that math/rand source, whose
// later draws decide the collisions.
func (lt *LinkTrace) FramesMix(seed int64, mix Mix) *FrameIter {
	it := &FrameIter{lt: lt, mix: mix}
	n := it.Len()
	switch {
	case mix.CollisionProb > 0:
		it.rng = rand.New(rand.NewSource(seed))
		if n > 0 {
			it.pos = it.rng.Intn(n)
		}
	case n > 0:
		it.pos = firstIntn(seed, n)
	}
	return it
}

const int32max = 1<<31 - 1 // math/rand's Lehmer modulus

// lehmerPow holds 48271^k mod (2^31−1) for k = 1020–1022 and 1839–1841.
var lehmerPow = func() (p [6]uint64) {
	x := uint64(1)
	for k := 1; k <= 1841; k++ {
		x = x * 48271 % int32max
		if k >= 1020 && k <= 1022 {
			p[k-1020] = x
		} else if k >= 1839 {
			p[k-1836] = x
		}
	}
	return p
}()

// firstIntn returns rand.New(rand.NewSource(seed)).Intn(n) in O(1). Seeding
// reduces the seed mod 2^31−1 and runs Lehmer's x_{k+1} = 48271·x_k
// mod (2^31−1) from it; feedback word i is
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i], and the first
// Uint64 is word 333 + word 606 (Go 1 compatibility freezes this stream).
// A first draw that Int31n would reject, or n ≥ 2^31, takes the generator.
func firstIntn(seed int64, n int) int {
	if int64(n) <= int32max {
		s := seed % int32max
		if s < 0 {
			s += int32max
		}
		if s == 0 {
			s = 89482311
		}
		var x [6]int64 // x_k for the k of lehmerPow
		for i, p := range lehmerPow {
			x[i] = int64(uint64(s) * p % int32max)
		}
		// rngCooked[333] and rngCooked[606].
		u := uint64((x[0]<<40 ^ x[1]<<20 ^ x[2] ^ -4633371852008891965) + (x[3]<<40 ^ x[4]<<20 ^ x[5] ^ 4152330101494654406))
		v, n32 := int32(u&(1<<63-1)>>32), int32(n)
		if n32&(n32-1) == 0 {
			return int(v & (n32 - 1))
		}
		if v <= int32(int32max-(1<<31)%uint32(n32)) {
			return int(v % n32)
		}
	}
	return rand.New(rand.NewSource(seed)).Intn(n)
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
