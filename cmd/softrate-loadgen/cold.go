// Cold-churn workload: -cold-links adds a large per-algorithm population
// that is walked round-robin behind the hot trace-driven set. Each cold
// link is touched once per lap and then left idle; with a lap far longer
// than the server's TTL every touch finds the link evicted — and, when
// the server has a -cold-dir tier, spilled to disk — so the workload
// drives continuous evict → spill → restore traffic through a hot set of
// bounded size. This is the idle-skew shape of a real fleet: millions of
// known links, a small working set actually transmitting.
package main

import (
	"fmt"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

// coldPop is one client's exclusive slice of the cold population: a
// contiguous link-ID range nobody else touches, so the -verify mirror
// needs no locking. The mirror is a flat slab of encoded states (one
// StateLen-wide slot per link) advanced through the same
// DecodeState → Apply → EncodeState path the store itself uses — the
// cheapest honest checker for a population too large for live
// controllers each.
type coldPop struct {
	algo   ctl.Algo
	base   uint64 // link ID of index 0
	n      int
	cursor int
	pass   int // completed laps over the population

	// A lap over the population is paced to take at least minLap
	// (2×TTL): every link is then idle for more than the TTL between
	// touches, so each touch finds it evicted. Without the gate a fast
	// server laps the population before anything idles out and the
	// "cold" links never leave the hot map.
	minLap    time.Duration
	nextLapAt time.Time

	rates []int8

	// -verify mirror (nil fields when verification is off).
	w       int
	states  []byte
	seen    []bool
	scratch ctl.Controller
	fresh   []byte
}

func newColdPop(spec ctl.Spec, base uint64, n int, minLap time.Duration, verify bool) *coldPop {
	p := &coldPop{algo: spec.ID, base: base, n: n, minLap: minLap, rates: make([]int8, n)}
	if verify {
		p.w = spec.StateLen
		p.states = make([]byte, n*p.w)
		p.seen = make([]bool, n)
		p.scratch = spec.New()
		p.fresh = make([]byte, p.w)
		p.scratch.EncodeState(p.fresh)
	}
	return p
}

// next emits the next churn op, or reports false while the lap gate is
// holding the cursor at the start of a too-fast lap. Laps alternate
// between a loss pass (silent losses push rates down) and a clean pass
// (low-BER delivered frames pull them back up), so cold state keeps
// moving through real transitions instead of pinning at the floor; the
// per-link SNR spread keeps the SNR-driven algorithms exercised too.
// Everything is a pure function of (link index, lap parity), so the
// mirror sees identical feedback.
func (p *coldPop) next(now time.Time) (linkstore.Op, bool) {
	if p.cursor == 0 {
		if now.Before(p.nextLapAt) {
			return linkstore.Op{}, false
		}
		p.nextLapAt = now.Add(p.minLap)
	}
	k := p.cursor
	p.cursor++
	if p.cursor == p.n {
		p.cursor = 0
		p.pass++
	}
	op := linkstore.Op{
		LinkID:    p.base + uint64(k),
		Algo:      p.algo,
		RateIndex: int32(p.rates[k]),
		SNRdB:     float32(5 + k%25),
	}
	if p.pass&1 == 0 {
		op.Kind = core.KindSilentLoss
	} else {
		op.Kind = core.KindBER
		op.BER = 1e-5
		op.Delivered = true
	}
	return op, true
}

// mirror advances cold link k's encoded-state checker through op and
// returns the rate a bare controller decides.
func (p *coldPop) mirror(k int, op linkstore.Op) int {
	st := p.states[k*p.w : (k+1)*p.w]
	if !p.seen[k] {
		copy(st, p.fresh)
		p.seen[k] = true
	}
	if err := p.scratch.DecodeState(st); err != nil {
		// The slab only ever holds our own EncodeState output.
		panic(fmt.Sprintf("loadgen: cold mirror state corrupt for link %d: %v", p.base+uint64(k), err))
	}
	want := p.scratch.Apply(ctl.Feedback{
		Kind:      op.Kind,
		RateIndex: int(op.RateIndex),
		BER:       op.BER,
		SNRdB:     float64(op.SNRdB),
		Delivered: op.Delivered,
	})
	p.scratch.EncodeState(st)
	return want
}

// makeColdPops carves the -cold-links population into one exclusive
// slice per client, namespaced above the hot IDs (hot links use the low
// 32 bits of the per-algorithm space; cold links start at 1<<32).
func makeColdPops(algos []ctl.Spec, opt options) []*coldPop {
	minLap := 2 * opt.ttl
	pops := make([]*coldPop, len(algos)*opt.clients)
	for ai, spec := range algos {
		per, rem := opt.coldLinks/opt.clients, opt.coldLinks%opt.clients
		start := 0
		for i := 0; i < opt.clients; i++ {
			n := per
			if i < rem {
				n++
			}
			if n == 0 {
				continue
			}
			base := uint64(spec.ID)<<40 | uint64(1)<<32 | uint64(start)
			pops[ai*opt.clients+i] = newColdPop(spec, base, n, minLap, opt.verify)
			start += n
		}
	}
	return pops
}
