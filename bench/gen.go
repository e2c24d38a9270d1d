package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"softrate/internal/bitutil"
	"softrate/internal/channel"
	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/server"
	"softrate/internal/trace"
)

// The generator is the benchmark's own layer ("gen"): it turns a seed into
// the feedback-op stream a service workload submits, and it is the only
// place the seed is used — the server sees generated ops and nothing else.
// Each hot link replays a channel trace in a closed adaptation loop (the
// rate the server answered is the rate the link's next frame is sent at),
// so the stream is a function of the seed and of the server's answers,
// which are themselves checked against a reference.

// refEvery is the reference-check sampling stride: one link in refEvery
// carries a bare ctl controller fed the identical op sequence.
const refEvery = 16

// traceSeconds is the length of each generated channel trace: 250 one-
// millisecond snapshots per rate. Replay wraps, so a short trace costs
// variety, not correctness, and generation dominates set-up time.
const traceSeconds = 0.25

// mobileTraces builds the "mobile" mix's trace pool: one walking link
// and one static Rayleigh link, the shapes of Table 4. Links share the
// pool, each with a private seeded start offset.
func mobileTraces(seed int64) []*trace.LinkTrace {
	gen := func(model *channel.Model, s int64) *trace.LinkTrace {
		return trace.Generate(trace.GenConfig{Model: model, Duration: traceSeconds, Seed: s})
	}
	rng := rand.New(rand.NewSource(seed))
	return []*trace.LinkTrace{
		gen(channel.NewWalkingModel(rng,
			channel.LinearTrajectory{StartDist: 2, Speed: 1.2},
			channel.PathLoss{RefSNRdB: 26, RefDist: 1, Exponent: 2.2}), seed+1),
		gen(channel.NewStaticModel(18, channel.NewRayleigh(rng, 40, 0)), seed+2),
	}
}

// hotLink is one replayed sender.
type hotLink struct {
	id   uint64
	iter *trace.FrameIter
	rate int32
	// ref is the bare reference controller of a sampled link, nil
	// otherwise. tainted marks a link whose reference can no longer be
	// trusted: a lost datagram leaves it unknown whether the server
	// applied the op.
	ref     ctl.Controller
	tainted bool
}

// coldPop is the cold population of cold-churn: n links walked
// round-robin, each touched once per lap and then left idle past the
// TTL. Laps alternate a loss pass (silent losses push rates down) and a
// clean pass (low-BER frames pull them back up), so cold state keeps
// moving through real transitions. Every op is a pure function of (link
// index, lap parity, last answered rate).
type coldPop struct {
	base   uint64
	n      int
	cursor int
	lap    int
	rates  []int8
	refs   []ctl.Controller // refs[k/refEvery] for sampled k
}

func newColdPop(base uint64, n int) *coldPop {
	p := &coldPop{base: base, n: n, rates: make([]int8, n)}
	p.refs = make([]ctl.Controller, (n+refEvery-1)/refEvery)
	for i := range p.refs {
		p.refs[i] = ctl.New(ctl.AlgoSoftRate)
	}
	return p
}

func (p *coldPop) next() (linkstore.Op, int) {
	k := p.cursor
	p.cursor++
	if p.cursor == p.n {
		p.cursor = 0
		p.lap++
	}
	op := linkstore.Op{
		LinkID:    p.base + uint64(k),
		Algo:      ctl.AlgoSoftRate,
		RateIndex: int32(p.rates[k]),
		SNRdB:     float32(5 + k%25),
	}
	if p.lap&1 == 0 {
		op.Kind = core.KindSilentLoss
	} else {
		op.Kind = core.KindBER
		op.BER = 1e-5
		op.Delivered = true
	}
	return op, k
}

// generator is one caller's op source. Not safe for concurrent use.
type generator struct {
	links  []hotLink
	cursor int
	cold   *coldPop
	// hotPerBatch is how many ops of each batch come from the hot links
	// when a cold population is attached (the rest walk the cold cursor).
	hotPerBatch int

	digest hash.Hash // non-nil while the op stream is being digested
	encBuf []byte

	attempted, failed uint64
	firstMismatch     string
}

// genConfig sizes a generator set.
type genConfig struct {
	seed      int64
	callers   int
	hotLinks  int // across all callers
	coldLinks int // caller 0 only
	// hotPerBatch is how many ops of each of caller 0's batches replay
	// hot links when there is a cold population.
	hotPerBatch int
}

// idBase spreads link IDs (and with them shard placement) by seed. Hot
// links take the low 22 bits, cold links sit above bit 23.
func idBase(seed int64) uint64 { return bitutil.Mix64(uint64(seed)) &^ (1<<24 - 1) }

// newGenerators builds one generator per caller over a shared trace pool.
func newGenerators(gc genConfig, traces []*trace.LinkTrace) []*generator {
	base := idBase(gc.seed)
	gens := make([]*generator, gc.callers)
	for c := range gens {
		gens[c] = &generator{}
	}
	for i := 0; i < gc.hotLinks; i++ {
		l := hotLink{
			id:   base | uint64(i),
			iter: traces[i%len(traces)].FramesMix(gc.seed+int64(i)*7919, trace.Mix{}),
		}
		if i%refEvery == 0 {
			l.ref = ctl.New(ctl.AlgoSoftRate)
		}
		g := gens[i%gc.callers]
		g.links = append(g.links, l)
	}
	if gc.coldLinks > 0 {
		g := gens[0]
		g.cold = newColdPop(base|1<<23, gc.coldLinks)
		g.hotPerBatch = gc.hotPerBatch
	}
	return gens
}

// fill resets ops/idx and appends one batch of n ops. idx[i] names the
// link behind ops[i]: a hot link index when >= 0, cold link -1-idx[i]
// otherwise.
func (g *generator) fill(n int, ops []linkstore.Op, idx []int32) ([]linkstore.Op, []int32) {
	ops, idx = ops[:0], idx[:0]
	hot := n
	if g.cold != nil {
		hot = g.hotPerBatch
	}
	for len(ops) < hot {
		l := &g.links[g.cursor]
		ev, _ := l.iter.Next(int(l.rate))
		ops = append(ops, linkstore.Op{
			LinkID:    l.id,
			Algo:      ctl.AlgoSoftRate,
			Kind:      ev.Kind,
			RateIndex: int32(ev.RateIndex),
			BER:       ev.BER,
			SNRdB:     float32(ev.SNRdB),
			Delivered: ev.Delivered,
		})
		idx = append(idx, int32(g.cursor))
		g.cursor++
		if g.cursor == len(g.links) {
			g.cursor = 0
		}
	}
	for len(ops) < n {
		op, k := g.cold.next()
		ops = append(ops, op)
		idx = append(idx, int32(-1-k))
	}
	if g.digest != nil {
		g.encBuf = server.AppendOpsV2(g.encBuf[:0], ops)
		g.digest.Write(g.encBuf)
	}
	return ops, idx
}

func feedbackOf(op *linkstore.Op) ctl.Feedback {
	return ctl.Feedback{
		Kind:      op.Kind,
		RateIndex: int(op.RateIndex),
		BER:       op.BER,
		SNRdB:     float64(op.SNRdB),
		Airtime:   float64(op.Airtime),
		Delivered: op.Delivered,
	}
}

// absorb closes the loop on one answered batch: the answers become the
// links' next rates, and every sampled link's answer is compared with its
// reference controller's. A mismatch counts as one failed op.
func (g *generator) absorb(ops []linkstore.Op, idx []int32, out []int32) {
	g.attempted += uint64(len(ops))
	for i, li := range idx {
		var ref ctl.Controller
		if li >= 0 {
			l := &g.links[li]
			l.rate = out[i]
			if !l.tainted {
				ref = l.ref
			}
		} else {
			k := int(-1 - li)
			g.cold.rates[k] = int8(out[i])
			if k%refEvery == 0 {
				ref = g.cold.refs[k/refEvery]
			}
		}
		if ref == nil {
			continue
		}
		if want := ref.Apply(feedbackOf(&ops[i])); int32(want) != out[i] {
			g.failed++
			if g.firstMismatch == "" {
				g.firstMismatch = fmt.Sprintf("link %#x: server decided %d, reference controller %d (op %+v)",
					ops[i].LinkID, out[i], want, ops[i])
			}
		}
	}
}

// lose accounts one batch that was never answered (a datagram timeout):
// every op failed, the links keep their rates, and sampled links drop out
// of the reference check because the server may or may not have applied
// the ops.
func (g *generator) lose(ops []linkstore.Op, idx []int32) {
	g.attempted += uint64(len(ops))
	g.failed += uint64(len(ops))
	for _, li := range idx {
		if li >= 0 {
			g.links[li].tainted = true
		}
	}
}

// startDigest begins hashing every op fill produces.
func (g *generator) startDigest() { g.digest = sha256.New() }

// stopDigest ends hashing and returns the hex digest so far.
func (g *generator) stopDigest() string {
	d := hex.EncodeToString(g.digest.Sum(nil))
	g.digest = nil
	return d
}
