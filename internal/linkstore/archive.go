package linkstore

import (
	"errors"
	"fmt"
	"sync"

	"softrate/internal/coldstore"
)

// The archive front. A TTL sweep takes idle links out of service where
// they sit: their table slots are tagged with the current archive
// generation and their state stays put. A link that comes back has the
// tag cleared. A filled generation rotates out to the cold tier in one
// group-committed batch and its slots are deleted.
//
// A sweep does all of its table work in one walk: it evicts idle links
// and records the slot of every archived link, by tier. A rotation builds
// its spill from those positions, in slot order, and once every spill the
// sweep needs has committed, the spilled slots are deleted highest first.

// DefaultColdFront is the store-wide RAM-archive link budget when
// Config.ColdFront is zero.
const DefaultColdFront = 65536

// oldTier is the tier tag of the archive generation that is not current.
func (sh *shard) oldTier() uint8 { return 3 - sh.curTier }

// archivedLen is how many of the table's links are archived, both
// generations together.
func (sh *shard) archivedLen() int { return int(sh.genLen[1] + sh.genLen[2]) }

// reviveLocked puts an archived link back in service where it sits: the
// tag goes, the state (and a wide state's slab slot) never moved. Caller
// holds sh.mu.
func (sh *shard) reviveLocked(st *Store, e *entry) {
	sh.genLen[e.tier]--
	e.tier = tierLive
	c := &sh.perAlgo[e.algo]
	c.restores++
	c.archived--
	c.archivedBytes -= int64(st.widths[e.algo])
	c.live++
}

// evictLocked takes one live link out of service. Its state stays where
// it is and the entry is tagged with the current archive generation.
// Caller holds sh.mu.
func (sh *shard) evictLocked(st *Store, e *entry) {
	c := &sh.perAlgo[e.algo]
	c.evictions++
	c.live--
	e.tier = sh.curTier
	sh.genLen[e.tier]++
	c.archived++
	c.archivedBytes += int64(st.widths[e.algo])
}

// freeStateLocked returns a wide state's slab slot, ahead of the entry's
// deletion. Caller holds sh.mu.
func (sh *shard) freeStateLocked(st *Store, e *entry) {
	if st.widths[e.algo] > inlineState {
		sh.slabs[e.algo].free = append(sh.slabs[e.algo].free, e.slot())
	}
}

// walkScratch is what one shard walk leaves for the spills after it.
type walkScratch struct {
	// at holds the slots of the table's archived links in ascending order,
	// by tier tag (index tierLive is unused).
	at [3][]int32
	// spilled marks the tiers a committed spill wrote to disk; their slots
	// are deleted when the walk's sweep ends.
	spilled [3]bool
	recs    []coldstore.Record
}

// walkPool holds walk scratch. It is pooled, not kept per shard: a shard
// sweeps for microseconds at a time, and a generation's worth of positions
// and record headers held by each of 64 shards is resident memory the
// tier exists to give back.
var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// walkLocked is a sweep's one pass over the shard's table. It evicts
// every live link idle for at least minAge ticks (0 evicts them all) and
// returns how many that was. It records the slot of every archived link in
// sc, the ones it just evicted included, by tier. Caller holds sh.mu.
func (sh *shard) walkLocked(st *Store, nowTick, minAge uint32, sc *walkScratch) int {
	evicted := 0
	sh.links.Walk(func(i int, _ uint64, e *entry) bool {
		if e.tier == tierLive {
			if nowTick-e.lastUsed < minAge { // wrapping age in ticks
				return false
			}
			evicted++
			sh.evictLocked(st, e)
		}
		sc.at[e.tier] = append(sc.at[e.tier], int32(i))
		return false
	})
	return evicted
}

// sweepLocked evicts idle links and rotates the archive until it fits its
// budget. Caller holds sh.mu.
func (sh *shard) sweepLocked(st *Store, now int64) int {
	sc := walkPool.Get().(*walkScratch)
	evicted := sh.walkLocked(st, st.tickOf(now), st.ttlTicks, sc)
	sh.lastSweep = now
	// Rotate until the RAM front fits its budget again. One sweep can
	// idle out far more than genCap links at once (a synchronized
	// population — everything created in one burst — ages out in one
	// pass), and a single rotation would park that burst in the old
	// generation without ever reaching disk: the next sweep would see an
	// empty current generation and stand down, leaving the budget violated
	// indefinitely. The loop runs at most twice per sweep in practice
	// (spill old, make the burst old, spill it too).
	for int(sh.genLen[sh.curTier]) >= st.genCap || sh.archivedLen() > 2*st.genCap {
		if !sh.rotateLocked(st, now, sc) {
			break // spill error or open breaker: keep both generations in RAM
		}
	}
	sh.dropSpilledLocked(st, sc)
	return evicted
}

// rotateLocked ages the archive one generation: the old generation is
// spilled to the cold tier and, emptied, becomes the current one. On a
// spill error both generations stay in RAM — nothing is lost, the
// rotation retries at the next sweep — and the rotation reports failure.
// While the breaker is open the spill isn't even attempted (beyond one
// backoff-paced probe): the store has formally degraded to the unbounded
// RAM archive. Caller holds sh.mu.
func (sh *shard) rotateLocked(st *Store, now int64, sc *walkScratch) bool {
	if old := sh.oldTier(); sh.genLen[old] > 0 {
		if !st.breaker.allow(now) {
			return false
		}
		if _, err := sh.spillTierLocked(st, old, now, sc); err != nil {
			return false
		}
	}
	sh.curTier = sh.oldTier()
	return true
}

// spillTierLocked writes every link of one archive generation to the cold
// tier in a single group-committed batch, in slot order, from the slots
// the walk recorded in sc, and returns how many that was. The records
// point at the states where they lie, in the table and the slabs, which
// hold still under sh.mu and which PutBatch does not retain. The slots
// stay in the table until dropSpilledLocked; on an error nothing was
// committed and the generation stays in RAM as it was. The outcome feeds
// the breaker. Caller holds sh.mu.
func (sh *shard) spillTierLocked(st *Store, tier uint8, now int64, sc *walkScratch) (int, error) {
	if sh.genLen[tier] == 0 {
		return 0, nil
	}
	recs := sc.recs[:0]
	for _, i := range sc.at[tier] {
		id, e := sh.links.At(int(i))
		recs = append(recs, coldstore.Record{LinkID: id, Algo: uint8(e.algo), State: sh.stateOf(st, e)})
	}
	err := st.cold.PutBatch(recs)
	clear(recs) // the pool must not pin the table the records point into
	sc.recs = recs[:0]
	st.breaker.result(now, err)
	if err != nil {
		st.coldSpillErrors.Add(1)
		return 0, err
	}
	sh.genLen[tier] = 0
	sc.spilled[tier] = true
	return len(recs), nil
}

// dropSpilledLocked deletes the slots of every generation a spill of this
// walk committed, highest slot first, so each recorded slot still holds
// its link when its turn comes; it frees their slab slots and settles
// their counters. Then it returns sc to the pool. Caller holds sh.mu.
func (sh *shard) dropSpilledLocked(st *Store, sc *walkScratch) {
	var a, b []int32 // each ascending; merged from the top
	if sc.spilled[1] {
		a = sc.at[1]
	}
	if sc.spilled[2] {
		b = sc.at[2]
	}
	for len(a)+len(b) > 0 {
		var i int32
		if len(b) == 0 || len(a) > 0 && a[len(a)-1] > b[len(b)-1] {
			i, a = a[len(a)-1], a[:len(a)-1]
		} else {
			i, b = b[len(b)-1], b[:len(b)-1]
		}
		_, e := sh.links.At(int(i))
		c := &sh.perAlgo[e.algo]
		c.archived--
		c.archivedBytes -= int64(st.widths[e.algo])
		sh.freeStateLocked(st, e)
		sh.links.DelAt(int(i))
	}
	for t := range sc.at {
		sc.at[t] = sc.at[t][:0]
	}
	sc.spilled = [3]bool{}
	walkPool.Put(sc)
}

// maybeSweepLocked runs a TTL sweep if one is due. A shard sweeps at most
// every TTL/4, so the amortized per-op eviction cost stays constant while
// no link outlives its TTL by more than 25%. Caller holds sh.mu.
func (sh *shard) maybeSweepLocked(st *Store, now int64) {
	if st.ttl <= 0 || now-sh.lastSweep < st.ttl/4 {
		return
	}
	sh.sweepLocked(st, now)
}

// SpillAll moves every link — live, and both RAM-archive generations —
// into the cold tier and empties the store. It is the graceful-shutdown
// half of the crash-restart contract: after SpillAll, a process that
// reopens the same cold directory restores every link byte-identically,
// including links that had been taken back from disk since their last
// spill (an in-memory tier ends with the process). Returns the number of
// links spilled, counting every batch that was committed. Every shard is
// attempted regardless of earlier failures (and regardless of the breaker
// — this is the last chance to persist); a failing shard keeps its state
// in RAM, and the returned error joins every shard's failure (errors.Join,
// each wrapped with its shard index) so a partial drain spill is
// diagnosable from the exit dump. The per-failure counts also land in
// Stats.ColdSpillErrors.
func (st *Store) SpillAll() (int, error) {
	now := st.cfg.Clock()
	total := 0
	var errs []error
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		sc := walkPool.Get().(*walkScratch)
		sh.walkLocked(st, 0, 0, sc)
		// Older generation first, as a rotation would; a failed batch
		// committed nothing, and the younger one is then not attempted.
		for _, tier := range [2]uint8{sh.oldTier(), sh.curTier} {
			n, err := sh.spillTierLocked(st, tier, now, sc)
			total += n
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
				break
			}
		}
		sh.dropSpilledLocked(st, sc)
		sh.lastSweep = now
		sh.mu.Unlock()
	}
	return total, errors.Join(errs...)
}

// ColdDegraded reports whether the cold-tier breaker is open (the store
// is running on the unbounded RAM archive until a probe spill succeeds).
func (st *Store) ColdDegraded() bool {
	open, _, _ := st.breaker.snapshot()
	return open
}

// EvictIdle sweeps every shard now, evicting links idle for at least the
// TTL, and returns the number evicted. A no-op when TTL is zero.
func (st *Store) EvictIdle() int {
	if st.ttl <= 0 {
		return 0
	}
	now := st.cfg.Clock()
	total := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		total += sh.sweepLocked(st, now)
		sh.mu.Unlock()
	}
	return total
}
