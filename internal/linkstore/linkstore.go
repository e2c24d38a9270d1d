// Package linkstore is the decision service's state layer: a hash-sharded,
// striped-lock store of per-link rate controllers. It is built to hold
// millions of concurrent links on one host:
//
//   - Per link it stores only the controller's encoded state (8 bytes for
//     SoftRate, a fixed per-algorithm width for the others) plus a
//     last-used stamp, not a full controller. Every controller built from
//     one ctl.Spec is identical except for that state, so each shard keeps
//     one scratch controller per algorithm and services a link by
//     DecodeState → Apply → EncodeState (SoftRate, whose rule is the pure
//     core.Step, shares one read-only controller store-wide). Controllers
//     are thus relocatable between shards, processes, and machines.
//   - Every link a shard holds in RAM, live or archived, sits in one flat
//     open-addressing table (an idtable.Table at the Fast load, the
//     link-ID table coldstore's index uses too) whose 24-byte slots hold
//     key, state, stamp, algorithm and tier tag together: a decision that
//     hits probes once and updates the slot in place.
//   - State wider than a slot's 8 bytes lives in per-shard, per-algorithm
//     slabs (flat byte arrays of fixed-width slots with a free list), so
//     the hot path touches no per-op heap allocation regardless of
//     algorithm.
//   - A link's algorithm is chosen at first touch — from the op's Algo
//     field, or the store's default for AlgoDefault — and sticks for the
//     link's lifetime, including across eviction and restore. One store
//     serves any per-link mix of the registered §6.1 algorithms.
//   - Links are created lazily on first touch and evicted after a
//     configurable idle TTL. Eviction tags the link's slot as archived and
//     leaves its state where it is (in the slot, or in its slab slot), so
//     a link that comes back after an idle period has the tag cleared and
//     resumes exactly where it left off — eviction is invisible to the
//     protocol, it only takes the link out of the live count.
//   - The archive is a small bounded front of two generations, told apart
//     by the tag: recently evicted links restore from RAM, and when the
//     current generation fills, the older one is spilled wholesale to the
//     cold tier in one group-committed batch, in table order
//     (internal/coldstore), and its slots are deleted. The cold tier is
//     Config.Cold, a segment log on disk, or without one the same log over
//     an in-memory file system (faultfs.Mem), lost at exit. A sweep
//     does all of this in one walk of the shard's table (archive.go): the
//     walk evicts and records where every archived link sits, the spill
//     reads the generation from those slots, and the spilled slots are
//     then deleted highest first, so no deletion moves a slot still to
//     come. A returning link is looked up front-first, then restored from
//     the cold tier: a shard visit collects the links only the tier can
//     answer for and restores them in one coldstore.TakeBatch before
//     applying their ops in batch order. Because spill and restore carry
//     the same encoded state bytes the table does, decisions stay
//     byte-identical across evict → spill → restore, and the table holds
//     the hot set and the front, not the total link population.
//   - Locking is striped per shard; batches are routed shard-by-shard so a
//     batch of B feedbacks takes O(shards-touched) lock acquisitions, not
//     O(B). Concurrency comes from concurrent callers: each visits its
//     touched shards one after another.
//   - Within a shard visit, contiguous ops for one link are serviced as a
//     run: one lookup and one state materialization for the run, and
//     wide-state algorithms that implement ctl.InPlace (SampleRate) are
//     applied directly to the slab slot with no decode/encode at all.
package linkstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"softrate/internal/bitutil"
	"softrate/internal/coldstore"
	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/faultfs"
	"softrate/internal/idtable"
)

// Config parameterizes a Store.
type Config struct {
	// Shards is the number of lock stripes, rounded up to a power of two
	// (default 64).
	Shards int
	// DefaultAlgo is the algorithm used for ops carrying ctl.AlgoDefault
	// (as zero-valued Ops and wire records with algorithm byte 0 do). Zero
	// means ctl.AlgoSoftRate.
	DefaultAlgo ctl.Algo
	// newController overrides how per-algorithm controllers are built
	// (default ctl.New); tests set it to hide a controller's in-place
	// path. Controllers it returns must keep the registered Spec's
	// StateLen — the store slab-allocates at that width — and all
	// controllers of one algorithm must be interchangeable up to state.
	newController func(ctl.Algo) ctl.Controller
	// TTL is the idle time after which a link is evicted from the hot table
	// (0 disables eviction).
	TTL time.Duration
	// Clock returns the current time in nanoseconds (default
	// time.Now().UnixNano; injectable for deterministic tests).
	Clock func() int64
	// ExpectedLinks is about how many links the store touches within one
	// TTL (with no TTL, how many it holds). It pre-sizes each shard's hot
	// table — adding the sweep lag itself: a link stays live for up to
	// TTL/4 past its TTL — and (lazily, on first use per algorithm) its
	// state slabs. Without it, growing a store to millions of links goes
	// through O(log n) table and slab regrowths, each a full copy under
	// the shard lock — the batch_max_ns cold spikes. 0 starts small.
	ExpectedLinks int
	// Cold is the tier idle links overflow to past a RAM front of about
	// ColdFront links, one group-committed batch per filled generation.
	// Nil opens it over a fresh faultfs.Mem: idle links then stay in this
	// process's memory, at about a record and an index entry each.
	Cold *coldstore.Store
	// ColdFront is the store-wide RAM-archive budget (links): links
	// evicted more recently than roughly this many evictions ago restore
	// without a cold-tier read. 0 means DefaultColdFront.
	ColdFront int
}

// Op is one feedback event addressed to one link. It is deliberately 32
// bytes — a server decodes millions per second and batches of them must
// stay cache-resident — so the physical quantities that don't need 52
// mantissa bits (SNR in dB, airtime in seconds) travel as float32.
type Op struct {
	// LinkID identifies the link (sender, receiver, direction — however
	// the caller names it).
	LinkID uint64
	// BER is the interference-free BER estimate (KindBER/KindCollision).
	BER float64
	// SNRdB is the receiver's SNR estimate, NaN when unknown (consumed by
	// the SNR-based algorithms; a wire record says unknown with NaN).
	SNRdB float32
	// Airtime is the frame's airtime in seconds, 0 when unknown (consumed
	// by SampleRate's transmission-time metric).
	Airtime float32
	// RateIndex is the rate the frame was sent at (KindBER/KindCollision).
	RateIndex int32
	// Algo selects the link's algorithm at first touch; existing links
	// keep theirs. ctl.AlgoDefault (the zero value) means the store
	// default.
	Algo ctl.Algo
	// Kind is the feedback kind.
	Kind core.FeedbackKind
	// Delivered reports whether the frame body arrived intact (consumed
	// by SampleRate and RRAA).
	Delivered bool
}

// feedback converts the op to the controller-facing form.
func (op *Op) feedback() ctl.Feedback {
	return ctl.Feedback{
		Kind:      op.Kind,
		RateIndex: int(op.RateIndex),
		BER:       op.BER,
		SNRdB:     float64(op.SNRdB),
		Airtime:   float64(op.Airtime),
		Delivered: op.Delivered,
	}
}

// ShardStats counts one shard's activity. Counters are cumulative.
type ShardStats struct {
	// Hits is the number of operations that found the link in the hot table.
	Hits uint64
	// Creates is the number of links created fresh.
	Creates uint64
	// Restores is the number of links revived from the archive.
	Restores uint64
	// Evictions is the number of links moved out of the hot table by TTL.
	Evictions uint64
	// Live is the number of links in service.
	Live int
	// Archived is the number of links the table holds evicted, both front
	// generations together.
	Archived int
	// ArchivedBytes is the encoded state held by the RAM archive, in
	// bytes — the real memory picture, since a SampleRate link archives
	// ~1.7 KB where a SoftRate link archives 8 bytes.
	ArchivedBytes int64
}

// AlgoStats is the per-algorithm slice of a store's churn counters.
type AlgoStats struct {
	// Algo is the algorithm these counters cover.
	Algo ctl.Algo
	// Creates, Restores and Evictions mirror ShardStats, per algorithm.
	Creates, Restores, Evictions uint64
	// Live and Archived are current populations, per algorithm.
	Live, Archived int
	// ArchivedBytes is the RAM-archived encoded state, per algorithm.
	ArchivedBytes int64
}

// Stats is the store-wide aggregate of ShardStats.
type Stats struct {
	ShardStats
	// Shards is the number of shards aggregated.
	Shards int
	// Algos holds per-algorithm churn for every registered algorithm that
	// saw traffic, in ID order.
	Algos []AlgoStats
	// Cold is the cold tier's snapshot.
	Cold *coldstore.Stats
	// ColdErrors counts cold-tier operations that failed (the store falls
	// back to a fresh controller on a failed restore and keeps spill
	// generations in RAM on a failed spill — never loses state silently).
	// It is the sum of ColdSpillErrors and ColdRestoreErrors.
	ColdErrors uint64
	// ColdSpillErrors counts failed generation spills (PutBatch errors);
	// each left its generation resident in RAM. ColdRestoreErrors counts
	// failed Take restores; each fell through to a fresh controller.
	ColdSpillErrors   uint64
	ColdRestoreErrors uint64
	// ColdDegraded reports the cold-tier breaker is open: persistent spill
	// failures have switched the store to the unbounded RAM archive until
	// a backoff-paced probe spill succeeds.
	ColdDegraded bool
	// BreakerTrips counts closed→open breaker transitions; SpillRetries
	// counts half-open probe spills attempted while the breaker was open.
	BreakerTrips uint64
	SpillRetries uint64
}

// memSegmentBytes is the in-memory tier's segment size: only a sealed segment
// is compacted, so it bounds the dead records a churning store holds.
const memSegmentBytes = 1 << 20

// tickShift converts clock nanoseconds to the entry timestamp unit:
// 2^20 ns ≈ 1.05 ms per tick, 2^32 ticks ≈ 52 days of store uptime
// before the stamp wraps. Ages are computed in wrapping uint32
// arithmetic, so a wrap can at worst delay one eviction by a sweep
// period — it cannot corrupt state.
const tickShift = 20

// slab is one shard's state storage for one algorithm: fixed-width slots
// in a flat byte array with a free list.
type slab struct {
	data []byte
	free []uint32
}

// alloc returns a free slot, growing the backing array as needed. reserve
// is a capacity hint in slots: the first growth of an empty slab jumps
// straight to it, so a store sized with Config.ExpectedLinks never pays
// the doubling-copy cascade for algorithms that actually see traffic
// (and algorithms that don't never allocate at all).
func (s *slab) alloc(w, reserve int) uint32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	if w <= 0 {
		return 0
	}
	slot := uint32(len(s.data) / w)
	need := len(s.data) + w
	if cap(s.data) < need {
		newCap := 2 * cap(s.data)
		if newCap < need {
			newCap = need
		}
		if r := reserve * w; cap(s.data) == 0 && newCap < r {
			newCap = r
		}
		nd := make([]byte, len(s.data), newCap)
		copy(nd, s.data)
		s.data = nd
	}
	s.data = s.data[:need] // contents overwritten by the caller's copy
	return slot
}

func (s *slab) at(slot uint32, w int) []byte {
	off := int(slot) * w
	return s.data[off : off+w]
}

type algoCounters struct {
	creates, restores, evictions uint64
	live, archived               int
	archivedBytes                int64
}

// inlineState is the largest encoded state kept inline in the entry.
const inlineState = 8

// tierLive is the tier tag of a link in service. Any other tag is one of
// the RAM archive's two generations (1 and 2): the link idled out and is
// waiting, where it was, to come back or be spilled.
const tierLive = 0

// entry is a link in RAM, deliberately 16 bytes: with its key, a 24-byte
// table slot, so a hit touches one cache line (two for the slot in four
// that straddles). A state that fits inlineState bytes (SoftRate's 8)
// lives in the entry; a wider one in the per-algorithm slab, its slot
// overlaid on the state bytes. Eviction and revival change tier and
// nothing else. algo comes first: the table's test for an empty (zero)
// slot then stops at a filled slot's first byte.
type entry struct {
	algo     ctl.Algo          // never ctl.AlgoDefault for a stored link
	tier     uint8             // tierLive or an archive generation
	lastUsed uint32            // ticks since the store epoch
	state    [inlineState]byte // encoded state (w <= 8) or LE slab slot in [0:4)
}

func (e *entry) slot() uint32     { return binary.LittleEndian.Uint32(e.state[0:4]) }
func (e *entry) setSlot(v uint32) { binary.LittleEndian.PutUint32(e.state[0:4], v) }

// shard is one lock stripe: its fields, padded to a whole number of cache
// lines on every GOARCH, so a visit never writes a line another shard's
// lock is on.
type shard struct {
	shardFields
	_ [(cacheLine - unsafe.Sizeof(shardFields{})%cacheLine) % cacheLine]byte
}

const cacheLine = 64

// shardFields is what a shard holds. What every visit touches — lock,
// table header, hit counter, sweep stamp — fills the first cache line.
type shardFields struct {
	mu        sync.Mutex
	links     idtable.Table[entry] // every link in RAM: live, or tagged archived
	hits      uint64               // ops that found their link live
	lastSweep int64
	// genLen counts the table's archived links by tier tag (1 or 2; index
	// tierLive is unused), and curTier is the tag evictions stamp. A filled
	// current generation rotates: the other one is spilled to the cold tier
	// in one batch and, emptied, becomes current.
	genLen  [3]int32
	curTier uint8
	// coldIDs/coldRuns are the visit's deferred work: the links only the
	// disk tier can answer for and, for each, its run's bounds in the
	// visit's index slice. coldBuf/coldOut receive the TakeBatch that
	// resolves them. All reused.
	coldIDs  []uint64
	coldRuns [][2]int32
	coldBuf  []byte
	coldOut  []coldstore.Taken
	slabs    []slab           // indexed by algo ID
	scratch  []ctl.Controller // indexed by algo ID, built lazily
	// inplace caches scratch controllers that run directly against their
	// slab slot (ctl.InPlace): wide-state ops then skip the DecodeState /
	// EncodeState round trip entirely — for SampleRate that round trip is
	// ~3.4 KB of serialization per op and dominates the algorithm's
	// serving cost.
	inplace []ctl.InPlace  // indexed by algo ID; nil when unsupported
	perAlgo []algoCounters // indexed by algo ID; ShardStats sums them
}

// Store is the sharded link-state store.
type Store struct {
	cfg         Config
	mask        uint64
	ttl         int64  // nanoseconds, for sweep scheduling
	ttlTicks    uint32 // entry-timestamp units, for age checks
	epoch       int64  // clock value ticks are measured from
	defaultAlgo ctl.Algo
	widths      []int    // indexed by algo ID; -1 = unregistered
	fresh       [][]byte // indexed by algo ID: a new controller's state
	// soft holds the core controller of every algorithm built as a
	// *ctl.SoftRate: the overwhelmingly common algorithm skips the interface
	// round trip (DecodeState/Apply/EncodeState collapse to two uint32
	// loads, core.Step, and two stores). Step only reads it.
	soft        []*core.SoftRate // indexed by algo ID; nil for other types
	build       func(ctl.Algo) ctl.Controller
	slabReserve int // per-shard slab capacity hint, in slots
	cold        *coldstore.Store
	genCap      int // per-shard archive-generation cap (links)
	shards      []shard

	// Cold-tier failure accounting, and the breaker every spill outcome
	// feeds (breaker.go).
	coldSpillErrors   atomic.Uint64
	coldRestoreErrors atomic.Uint64
	breaker           breaker

	scratchPool sync.Pool // *batchScratch, for ApplyBatch routing
}

type batchScratch struct {
	perShard [][]int32
	shards   []int32 // shards touched by the current batch, in visit order
}

// New builds a Store.
func New(cfg Config) *Store {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	st := &Store{cfg: cfg, mask: uint64(n - 1), ttl: cfg.TTL.Nanoseconds()}
	st.epoch = cfg.Clock()
	if st.ttl > 0 {
		st.ttlTicks = uint32(st.ttl >> tickShift)
		if st.ttlTicks == 0 {
			st.ttlTicks = 1
		}
	}
	st.defaultAlgo = cfg.DefaultAlgo
	if st.defaultAlgo == ctl.AlgoDefault {
		st.defaultAlgo = ctl.AlgoSoftRate
	}
	st.build = cfg.newController
	if st.build == nil {
		st.build = ctl.New
	}
	nAlgos := int(ctl.MaxID()) + 1
	st.widths = make([]int, nAlgos)
	st.fresh = make([][]byte, nAlgos)
	st.soft = make([]*core.SoftRate, nAlgos)
	for i := range st.widths {
		st.widths[i] = -1
	}
	for _, spec := range ctl.Specs() {
		c := st.build(spec.ID)
		w := c.StateLen()
		st.widths[spec.ID] = w
		st.fresh[spec.ID] = make([]byte, w)
		c.EncodeState(st.fresh[spec.ID])
		if s, ok := c.(*ctl.SoftRate); ok && w == 8 {
			st.soft[spec.ID] = s.SR
		}
	}
	if st.widths[st.defaultAlgo] < 0 {
		panic("linkstore: default algorithm is not registered")
	}
	perShard := 0
	if cfg.ExpectedLinks > 0 {
		perShard = cfg.ExpectedLinks/n + 1
	}
	st.slabReserve = perShard
	if st.cold = cfg.Cold; st.cold == nil {
		var err error
		if st.cold, err = coldstore.Open(coldstore.Config{FS: new(faultfs.Mem), SegmentBytes: memSegmentBytes}); err != nil {
			panic("linkstore: in-memory cold tier: " + err.Error()) // Mem never fails
		}
	}
	// Each shard's archive holds two generations of genCap links, so the
	// store-wide RAM budget is ColdFront regardless of population.
	front := cfg.ColdFront
	if front <= 0 {
		front = DefaultColdFront
	}
	st.genCap = max(1, front/(2*n))
	st.shards = make([]shard, n)
	seed := bitutil.HashSeed() // one table key per store, for its life
	// A shard sweeps every TTL/4, so a link stays live for up to TTL/4
	// past its TTL: the live links are those touched within 5/4 of one.
	// A shard's share of them is Poisson around its mean: three standard
	// deviations of room and a shard in a thousand grows. The front sits
	// in the same table, and only a store that evicts reserves it.
	live, archive := perShard, 0
	if st.ttl > 0 {
		live += live / 4
		archive = 2 * st.genCap
	}
	tableLinks := live + 3*int(math.Sqrt(float64(live))) + archive
	for i := range st.shards {
		st.shards[i].links = idtable.New[entry](seed, tableLinks, idtable.Fast)
		st.shards[i].curTier = 1
		st.shards[i].slabs = make([]slab, nAlgos)
		st.shards[i].scratch = make([]ctl.Controller, nAlgos)
		st.shards[i].inplace = make([]ctl.InPlace, nAlgos)
		st.shards[i].perAlgo = make([]algoCounters, nAlgos)
	}
	st.scratchPool.New = func() any {
		return &batchScratch{perShard: make([][]int32, n), shards: make([]int32, 0, n)}
	}
	return st
}

// NumShards returns the (power-of-two) shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// resolveAlgo maps an op's Algo to a registered algorithm: AlgoDefault
// (and any unregistered ID — the wire codec rejects those, so in-process
// callers get the conservative reading) becomes the store default.
func (st *Store) resolveAlgo(a ctl.Algo) ctl.Algo {
	if int(a) < len(st.widths) && st.widths[a] >= 0 {
		return a
	}
	return st.defaultAlgo
}

// shardIndex mixes the link ID through the SplitMix64 finalizer so that
// sequential IDs spread evenly across shards. This mix is unkeyed (a link's
// shard is the same in every process); the tables inside the shards are not.
func (st *Store) shardIndex(id uint64) int {
	return int(bitutil.Mix64(id) & st.mask)
}

func (st *Store) shardFor(id uint64) *shard {
	return &st.shards[st.shardIndex(id)]
}

// tickOf converts a clock reading to the entry timestamp unit.
func (st *Store) tickOf(now int64) uint32 {
	d := now - st.epoch
	if d < 0 {
		d = 0
	}
	return uint32(d >> tickShift)
}

// scratchFor returns the shard's scratch controller for an algorithm,
// building it on first use. Caller holds sh.mu.
func (sh *shard) scratchFor(st *Store, a ctl.Algo) ctl.Controller {
	c := sh.scratch[a]
	if c == nil {
		c = st.build(a)
		sh.scratch[a] = c
		if ip, ok := c.(ctl.InPlace); ok && ip.InPlaceOK() && st.widths[a] > inlineState {
			sh.inplace[a] = ip
		}
	}
	return c
}

// freshLocked creates a link that has no state anywhere. Caller holds
// sh.mu.
func (sh *shard) freshLocked(st *Store, algo ctl.Algo) entry {
	e := sh.entryWithLocked(st, algo, st.fresh[algo])
	sh.perAlgo[algo].creates++
	sh.perAlgo[algo].live++
	return e
}

// entryWithLocked builds a hot entry holding state: inline when it fits,
// in a freshly allocated slab slot otherwise. Caller holds sh.mu.
func (sh *shard) entryWithLocked(st *Store, algo ctl.Algo, state []byte) entry {
	w := st.widths[algo]
	e := entry{algo: algo}
	if w <= inlineState {
		copy(e.state[:w], state)
	} else {
		slot := sh.slabs[algo].alloc(w, st.slabReserve)
		e.setSlot(slot)
		copy(sh.slabs[algo].at(slot, w), state)
	}
	return e
}

// fromColdLocked turns the disk tier's answer for one link into its hot
// entry. A restored state carries the exact CRC-checked bytes the link
// spilled with, so the controller is byte-identical to the evicted one.
// A link the tier does not hold is created fresh with the op's
// algorithm; so is one whose restore failed or came back unparseable,
// after counting a cold error — never a half-decoded controller. Caller
// holds sh.mu.
func (sh *shard) fromColdLocked(st *Store, t *coldstore.Taken, algo ctl.Algo) entry {
	if t.OK {
		a := ctl.Algo(t.Algo)
		if int(a) < len(st.widths) && st.widths[a] == len(t.State) {
			e := sh.entryWithLocked(st, a, t.State)
			sh.perAlgo[a].restores++
			sh.perAlgo[a].live++
			return e
		}
		// A record from an unregistered algorithm or the wrong width —
		// possible only across an incompatible binary change. Refuse it.
		st.coldRestoreErrors.Add(1)
	} else if t.Err != nil {
		st.coldRestoreErrors.Add(1)
	}
	return sh.freshLocked(st, st.resolveAlgo(algo))
}

// applyShardLocked services a shard's slice of one batch: idxs index into
// ops/out in batch order. Contiguous ops for the same link — the natural
// shape when a sender batches several frames' feedback per station — are
// serviced as one run: one table probe, one TTL stamp, and one state
// decode/encode for the whole run instead of one per op. Runs whose link
// only the disk tier can answer for are set aside and resolved together
// once the rest of the visit is served. Caller holds sh.mu.
func (sh *shard) applyShardLocked(st *Store, ops []Op, idxs []int32, out []int32, nowTick uint32) {
	for k, j := 0, 0; k < len(idxs); k = j {
		id := ops[idxs[k]].LinkID
		for j = k + 1; j < len(idxs) && ops[idxs[j]].LinkID == id; j++ {
		}
		run := idxs[k:j]
		// Hot path: the link exists and its algorithm is already bound, so
		// the op's Algo field doesn't even need resolving.
		m := sh.links.Mix(id)
		e := sh.links.Get(id, m)
		if e != nil && e.tier == tierLive {
			sh.hits += uint64(len(run))
		} else if e != nil {
			// Later ops of a reviving or creating run find the link hot,
			// exactly as the op-at-a-time accounting would report.
			sh.reviveLocked(st, e)
			sh.hits += uint64(len(run) - 1)
		} else if st.cold.Len() == 0 {
			// Not in RAM, and nothing to ask an empty tier for (only this
			// shard spills this link, under sh.mu): a new link.
			e, _ = sh.links.Put(id, m, sh.freshLocked(st, st.resolveAlgo(ops[run[0]].Algo)))
			sh.hits += uint64(len(run) - 1)
		} else {
			sh.coldIDs = append(sh.coldIDs, id)
			sh.coldRuns = append(sh.coldRuns, [2]int32{int32(k), int32(j)})
			continue
		}
		sh.applyRunLocked(st, e, ops, run, out, nowTick)
	}
	if len(sh.coldIDs) != 0 {
		sh.applyColdRunsLocked(st, ops, idxs, out, nowTick)
	}
}

// applyColdRunsLocked restores the visit's deferred links from the cold
// tier in one TakeBatch and applies their runs in batch order. Deferring
// a run reorders it only against other links' runs, which share no
// state with it; a link's own runs were all deferred together and keep
// their order. Caller holds sh.mu.
func (sh *shard) applyColdRunsLocked(st *Store, ops []Op, idxs []int32, out []int32, nowTick uint32) {
	sh.coldBuf, sh.coldOut = st.cold.TakeBatch(sh.coldIDs, sh.coldBuf[:0], sh.coldOut[:0])
	for i, r := range sh.coldRuns {
		id := sh.coldIDs[i]
		run := idxs[r[0]:r[1]]
		// A link deferred twice in one visit was restored by its first run
		// and is hot for the second, whose own (absent) answer goes unused.
		m := sh.links.Mix(id)
		e := sh.links.Get(id, m)
		if e != nil {
			sh.hits += uint64(len(run))
		} else {
			e, _ = sh.links.Put(id, m, sh.fromColdLocked(st, &sh.coldOut[i], ops[run[0]].Algo))
			sh.hits += uint64(len(run) - 1)
		}
		sh.applyRunLocked(st, e, ops, run, out, nowTick)
	}
	sh.coldIDs, sh.coldRuns = sh.coldIDs[:0], sh.coldRuns[:0]
}

// applyRunLocked runs one link's consecutive ops against its entry e, a
// slot of the hot table (found, or just put there revived or fresh, by
// the caller), and leaves the result in it. The link's state is
// materialized once, every op of the run applied, and the result written
// back once — for in-place-capable wide-state algorithms (ctl.InPlace) it
// is never materialized at all and each op mutates the slab slot
// directly. Caller holds sh.mu.
func (sh *shard) applyRunLocked(st *Store, e *entry, ops []Op, run []int32, out []int32, nowTick uint32) {
	e.lastUsed = nowTick
	if sr := st.soft[e.algo]; sr != nil {
		// SoftRate fast path: the 8-byte inline state is decoded, stepped
		// and re-encoded with no interface dispatch and no slab touch. Byte
		// layout matches ctl.SoftRate's EncodeState/DecodeState exactly.
		s := core.State{
			RateIndex: int32(binary.LittleEndian.Uint32(e.state[0:4])),
			SilentRun: int32(binary.LittleEndian.Uint32(e.state[4:8])),
		}
		for _, i := range run {
			s = sr.Step(s, ops[i].Kind, int(ops[i].RateIndex), ops[i].BER)
			out[i] = s.RateIndex
		}
		binary.LittleEndian.PutUint32(e.state[0:4], uint32(s.RateIndex))
		binary.LittleEndian.PutUint32(e.state[4:8], uint32(s.SilentRun))
		return
	}
	// Every other algorithm runs the shard's scratch controller on the
	// state's own bytes, in the table slot or the slab. A decode failure is
	// unreachable through the public API (they only ever hold what
	// EncodeState wrote); recover to a fresh controller, don't poison the
	// shard.
	c := sh.scratchFor(st, e.algo)
	buf := sh.stateOf(st, e)
	if ip := sh.inplace[e.algo]; ip != nil {
		for _, i := range run {
			ri, ok := ip.ApplyInPlace(buf, ops[i].feedback())
			if !ok {
				copy(buf, st.fresh[e.algo])
				c.DecodeState(buf)
				ri = c.Apply(ops[i].feedback())
				c.EncodeState(buf)
			}
			out[i] = int32(ri)
		}
		return
	}
	if err := c.DecodeState(buf); err != nil {
		copy(buf, st.fresh[e.algo])
		c.DecodeState(buf)
	}
	for _, i := range run {
		out[i] = int32(c.Apply(ops[i].feedback()))
	}
	c.EncodeState(buf)
}

// stateOf returns the link's encoded state where it lives, in service or
// archived: in the entry, or in its slab slot. Caller holds sh.mu.
func (sh *shard) stateOf(st *Store, e *entry) []byte {
	w := st.widths[e.algo]
	if w <= inlineState {
		return e.state[:w]
	}
	return sh.slabs[e.algo].at(e.slot(), w)
}

// Apply routes one feedback event to its link's controller and returns the
// chosen next-rate index. The link is created (or revived from the
// archive) if absent.
func (st *Store) Apply(op Op) int {
	now := st.cfg.Clock()
	nowTick := st.tickOf(now)
	sh := st.shardFor(op.LinkID)
	ops := [1]Op{op}
	idx := [1]int32{0}
	var out [1]int32
	sh.mu.Lock()
	sh.applyShardLocked(st, ops[:], idx[:], out[:], nowTick)
	sh.maybeSweepLocked(st, now)
	sh.mu.Unlock()
	return int(out[0])
}

// BatchStats receives per-batch tallies collected during ApplyBatchStats'
// routing pass — the pass that touches every op anyway — so service-level
// accounting costs no extra iteration over the batch.
type BatchStats struct {
	// Kinds counts the batch's ops per feedback kind (out-of-range kinds
	// are not counted).
	Kinds [core.NumKinds]uint64
	// Algo is the batch's resolved algorithm when every op resolves to the
	// same one — the common shape, since a sender batches one station's
	// feedback and a station runs one algorithm. When ops
	// resolve to more than one algorithm, Mixed is set and Algo holds the
	// first. Resolution follows each op's Algo field against the store
	// default; a pre-existing link bound to a different algorithm still
	// tallies under the op's requested algorithm (the binding lives behind
	// the shard lock, which the routing pass deliberately never takes).
	Algo ctl.Algo
	// Mixed reports that the batch's ops named more than one algorithm.
	Mixed bool
}

// ApplyBatch processes ops and writes the chosen rate index of ops[i] to
// out[i], which must be at least len(ops) long. Ops are routed shard by
// shard — each touched shard's lock is taken exactly once — while per-link
// ordering is preserved (a link's ops live in one shard and are applied in
// batch order). Returns out[:len(ops)].
func (st *Store) ApplyBatch(ops []Op, out []int32) []int32 {
	return st.ApplyBatchStats(ops, out, nil)
}

// ApplyBatchStats is ApplyBatch with per-batch tallies: when bs is
// non-nil it is filled during the routing pass. bs is not written
// atomically — it must not be shared with other goroutines mid-call.
func (st *Store) ApplyBatchStats(ops []Op, out []int32, bs *BatchStats) []int32 {
	now := st.cfg.Clock()
	nowTick := st.tickOf(now)
	scratch := st.scratchPool.Get().(*batchScratch)
	touched := scratch.shards[:0]
	for i := range ops {
		si := st.shardIndex(ops[i].LinkID)
		if len(scratch.perShard[si]) == 0 {
			touched = append(touched, int32(si))
		}
		scratch.perShard[si] = append(scratch.perShard[si], int32(i))
		if bs != nil {
			if k := ops[i].Kind; k < core.NumKinds {
				bs.Kinds[k]++
			}
			if a := st.resolveAlgo(ops[i].Algo); i == 0 {
				bs.Algo = a
			} else if a != bs.Algo {
				bs.Mixed = true
			}
		}
	}
	scratch.shards = touched
	for _, si := range touched {
		st.applyOneShard(ops, out, scratch, si, nowTick, now)
	}
	st.scratchPool.Put(scratch)
	return out[:len(ops)]
}

// applyOneShard visits one routed shard of a batch and releases its slice
// of the routing scratch.
func (st *Store) applyOneShard(ops []Op, out []int32, scratch *batchScratch, si int32, nowTick uint32, now int64) {
	sh := &st.shards[si]
	sh.mu.Lock()
	sh.applyShardLocked(st, ops, scratch.perShard[si], out, nowTick)
	sh.maybeSweepLocked(st, now)
	sh.mu.Unlock()
	scratch.perShard[si] = scratch.perShard[si][:0]
}

// Peek returns the link's algorithm and a copy of its encoded controller
// state without touching its TTL stamp or creating it. The last result
// reports whether the link exists (hot or archived).
func (st *Store) Peek(id uint64) (ctl.Algo, []byte, bool) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.links.Get(id, sh.links.Mix(id)); e != nil { // in service or archived alike
		return e.algo, bytes.Clone(sh.stateOf(st, e)), true
	}
	if algoB, state, ok, err := st.cold.Peek(id, nil); err == nil && ok {
		return ctl.Algo(algoB), state, true
	}
	return ctl.AlgoDefault, nil, false
}

// Len returns the number of links in service.
func (st *Store) Len() int { return st.Stats().Live }

// Stats aggregates all shards' counters.
func (st *Store) Stats() Stats {
	var out Stats
	out.Shards = len(st.shards)
	perAlgo := make([]algoCounters, len(st.widths))
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		s := sh.statsLocked()
		for a := range sh.perAlgo {
			c := &sh.perAlgo[a]
			perAlgo[a].creates += c.creates
			perAlgo[a].restores += c.restores
			perAlgo[a].evictions += c.evictions
			perAlgo[a].archived += c.archived
			perAlgo[a].archivedBytes += c.archivedBytes
			perAlgo[a].live += c.live
		}
		sh.mu.Unlock()
		out.Hits += s.Hits
		out.Creates += s.Creates
		out.Restores += s.Restores
		out.Evictions += s.Evictions
		out.Live += s.Live
		out.Archived += s.Archived
		out.ArchivedBytes += s.ArchivedBytes
	}
	for a := range perAlgo {
		c := perAlgo[a]
		if c.creates == 0 && c.restores == 0 && c.evictions == 0 && c.live == 0 && c.archived == 0 {
			continue
		}
		out.Algos = append(out.Algos, AlgoStats{
			Algo: ctl.Algo(a), Creates: c.creates, Restores: c.restores,
			Evictions: c.evictions, Live: c.live, Archived: c.archived,
			ArchivedBytes: c.archivedBytes,
		})
	}
	cs := st.cold.Stats()
	out.Cold = &cs
	out.ColdSpillErrors = st.coldSpillErrors.Load()
	out.ColdRestoreErrors = st.coldRestoreErrors.Load()
	out.ColdErrors = out.ColdSpillErrors + out.ColdRestoreErrors
	out.ColdDegraded, out.BreakerTrips, out.SpillRetries = st.breaker.snapshot()
	return out
}

// statsLocked snapshots the shard's counters. Caller holds sh.mu.
func (sh *shard) statsLocked() ShardStats {
	archived := sh.archivedLen()
	s := ShardStats{Hits: sh.hits, Live: sh.links.Len() - archived, Archived: archived}
	for a := range sh.perAlgo {
		c := &sh.perAlgo[a]
		s.Creates += c.creates
		s.Restores += c.restores
		s.Evictions += c.evictions
		s.ArchivedBytes += c.archivedBytes
	}
	return s
}

// PerShard returns a snapshot of each shard's stats (for balance checks
// and the softrated stats endpoint).
func (st *Store) PerShard() []ShardStats {
	out := make([]ShardStats, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		out[i] = sh.statsLocked()
		sh.mu.Unlock()
	}
	return out
}
