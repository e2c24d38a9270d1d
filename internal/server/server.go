// Package server is the softrated decision service: it answers "what rate
// should this link transmit at next?" for batches of per-frame feedback.
// Per-link SoftRate controllers live in a sharded linkstore; the server
// adds the request/response surface — an in-process API for embedding
// (the benchmark, simulators, a future MAC offload path) and three
// wire transports (TCP, UDP datagrams, shared-memory rings) that are thin
// carriers under one serving loop (serve.go) and one wire framing
// (codec.go) — plus service-level counters.
//
// The paper's controller (§3.3) is inherently an online per-link service:
// every ACK carries a SoftPHY BER estimate and the sender needs the next
// rate before the next frame. The decision itself is a handful of
// comparisons, so the service's job is routing and state residency, not
// computation — hence batches, shards and compact relocatable state.
package server

import (
	"sync/atomic"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Store configures the underlying link store. Zero values give a
	// 64-shard store of default controllers with no eviction.
	Store linkstore.Config
	// MaxInflight, when > 0, bounds the Decide batches in flight across
	// every transport and in-process caller. Lossless transports (TCP,
	// shm) block at the gate — bounded admission, backpressure through
	// the connection — while the lossy one (UDP) sheds whole bursts when
	// the gate is saturated (the datagram loss contract: the client
	// times out and keeps its rate). 0 means unbounded.
	MaxInflight int
	// WriteTimeout, when > 0, is the TCP per-connection write deadline: a
	// peer that stops reading long enough for the server's 64 KB write
	// buffer and both socket buffers to fill is evicted after this long
	// blocked, instead of pinning its handler (and the drain path)
	// forever. 0 means no deadline.
	WriteTimeout time.Duration
}

// Stats are the service-level counters (cumulative, atomically updated).
type Stats struct {
	// Batches is the number of Decide calls (local or remote).
	Batches uint64
	// Frames is the total feedback records processed.
	Frames uint64
	// Kinds counts records per feedback kind.
	Kinds [core.NumKinds]uint64
	// Store is the link store's aggregate view.
	Store linkstore.Stats
}

// maxAlgoSlots bounds the per-algorithm metric arrays: slot 0 collects
// mixed batches (ops naming more than one algorithm in one Decide) plus
// any algorithm ID at or past the bound; slots 1.. are the registered
// ctl.Algo IDs (currently 1-5).
const maxAlgoSlots = 8

// algoLatency is one slot's pair of latency histograms, 74 KB of stripes.
// A server sees one or two algorithms, so a slot's pair is allocated the
// first time a batch lands there rather than all eight inline.
type algoLatency struct {
	batch, op obs.Latency
}

// algoSlot maps an algorithm ID to its metric slot.
func algoSlot(a ctl.Algo) int {
	if int(a) < maxAlgoSlots {
		return int(a)
	}
	return 0
}

// Server is the decision service.
type Server struct {
	store *linkstore.Store
	ttl   time.Duration
	start time.Time

	batches uint64
	frames  uint64
	kinds   [core.NumKinds]uint64

	// Per-algorithm hot-path metrics, attributed by the batch's uniform
	// resolved algorithm (slot 0 = mixed batches). Recording is
	// allocation-free once a slot's histograms exist: counters are single
	// atomics and the latency histograms are stripe-locked (obs.Latency).
	algoBatches [maxAlgoSlots]obs.Counter
	algoFrames  [maxAlgoSlots]obs.Counter
	algoLat     [maxAlgoSlots]atomic.Pointer[algoLatency]

	// group is the lifecycle every serving member shares (serve.go); the
	// accounting is per transport.
	group         serveGroup
	tcp, udp, shm counters

	// gate is the Decide admission semaphore (nil = unbounded): a
	// buffered channel of MaxInflight tokens, so acquire/release are
	// allocation-free and len/cap double as the inflight/limit gauges.
	gate         chan struct{}
	writeTimeout time.Duration
}

// New builds a Server.
func New(cfg Config) *Server {
	s := &Server{store: linkstore.New(cfg.Store), ttl: cfg.Store.TTL, start: time.Now(),
		writeTimeout: cfg.WriteTimeout}
	if cfg.MaxInflight > 0 {
		s.gate = make(chan struct{}, cfg.MaxInflight)
	}
	return s
}

// gateSaturated reports that the admission gate exists and every token is
// taken — a lossy transport's shed signal. It is a racy read by design:
// admission is decided per burst without taking the gate, so a burst that
// squeaks past a momentarily full gate just blocks briefly in Decide.
func (s *Server) gateSaturated() bool {
	return s.gate != nil && len(s.gate) == cap(s.gate)
}

// Store exposes the underlying link store (for embedding scenarios that
// want Peek/EvictIdle).
func (s *Server) Store() *linkstore.Store { return s.store }

// Decide processes one batch of feedback ops in-process and writes the
// chosen rate index for ops[i] to out[i] (which must be at least len(ops)
// long). It is safe for concurrent use. Returns out[:len(ops)].
func (s *Server) Decide(ops []linkstore.Op, out []int32) []int32 {
	// Kind tallies ride along in the store's shard-routing pass (which
	// walks every op anyway), so service counters cost zero extra
	// iterations; they are then folded in with one atomic per kind per
	// batch, not one per record — the counters share a cache line and
	// concurrent Decide callers would otherwise bounce it for every frame.
	// Bounded admission: lossless callers queue here (FIFO per channel
	// semantics) rather than oversubscribing the store. Channel send and
	// receive of struct{} never allocate, so the warm path stays 0 allocs
	// with the gate on.
	if s.gate != nil {
		s.gate <- struct{}{}
	}
	var bs linkstore.BatchStats
	t0 := time.Now()
	res := s.store.ApplyBatchStats(ops, out, &bs)
	d := time.Since(t0)
	if s.gate != nil {
		<-s.gate
	}
	atomic.AddUint64(&s.batches, 1)
	atomic.AddUint64(&s.frames, uint64(len(ops)))
	for k, n := range bs.Kinds {
		if n > 0 {
			atomic.AddUint64(&s.kinds[k], n)
		}
	}
	// Latency attribution: a uniform batch lands on its algorithm's slot,
	// a mixed batch on slot 0. The per-op histogram records each op's
	// share of the batch (d/n observed n times) — per-op cost quantiles
	// weighted by batch size, without a per-op clock read.
	slot := 0
	if !bs.Mixed {
		slot = algoSlot(bs.Algo)
	}
	// The histograms exist before the batch is counted, so a Status that
	// sees the count finds them.
	lat := s.latencyFor(slot)
	s.algoBatches[slot].Inc()
	lat.batch.Observe(d)
	if n := uint64(len(ops)); n > 0 {
		s.algoFrames[slot].Add(n)
		lat.op.ObserveN(d/time.Duration(n), n)
	}
	return res
}

// latencyFor returns the slot's histograms, allocating them on the slot's
// first batch; when two batches race to do that, one allocation wins.
func (s *Server) latencyFor(slot int) *algoLatency {
	if l := s.algoLat[slot].Load(); l != nil {
		return l
	}
	s.algoLat[slot].CompareAndSwap(nil, new(algoLatency))
	return s.algoLat[slot].Load()
}

// EvictIdle force-sweeps the store (also run periodically while serving).
func (s *Server) EvictIdle() int { return s.store.EvictIdle() }

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	var out Stats
	out.Batches = atomic.LoadUint64(&s.batches)
	out.Frames = atomic.LoadUint64(&s.frames)
	for k := range out.Kinds {
		out.Kinds[k] = atomic.LoadUint64(&s.kinds[k])
	}
	out.Store = s.store.Stats()
	return out
}

// sweeper periodically evicts idle links until stop is closed. The serve
// group starts one when the store has a TTL; in-process embedders rely on
// the store's own incremental sweeps instead.
func (s *Server) sweeper(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.store.EvictIdle()
		case <-stop:
			return
		}
	}
}
