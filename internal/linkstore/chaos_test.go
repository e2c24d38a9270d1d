package linkstore

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"softrate/internal/coldstore"
	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/faultfs"
)

// openColdFS opens a cold tier on an injected filesystem.
func openColdFS(t *testing.T, dir string, fs faultfs.FS) *coldstore.Store {
	t.Helper()
	c, err := coldstore.Open(coldstore.Config{Dir: dir, SegmentBytes: 64 << 10, FS: fs})
	if err != nil {
		t.Fatalf("coldstore.Open: %v", err)
	}
	return c
}

// TestColdSpillBreakerKeepsStateAndRecovers walks the whole degradation
// cycle on a fake clock: every spill fails → breaker trips after
// breakerTripAfter consecutive failures and the store degrades to the
// unbounded RAM archive (no link lost, decisions still exact) → a
// backoff-paced probe fails and doubles the backoff → the disk heals,
// the next probe succeeds, the breaker closes and the backlog drains to
// disk — after which decisions are still byte-identical to bare
// controllers that never saw any of it.
func TestColdSpillBreakerKeepsStateAndRecovers(t *testing.T) {
	clk := &fakeClock{}
	inj := faultfs.Wrap(faultfs.OS{}, 11, faultfs.Rates{WriteErr: 1})
	inj.Arm(false) // open cleanly; faults start under load
	cold := openColdFS(t, t.TempDir(), inj)
	defer cold.Close()
	st := New(Config{
		Shards: 4, TTL: 10 * time.Millisecond, Clock: clk.Now,
		Cold: cold, ColdFront: 16,
	})
	spec := ctl.Specs()[0]
	const nLinks = 120
	bare := make([]ctl.Controller, nLinks)
	rates := make([]int32, nLinks)
	for i := range bare {
		bare[i] = spec.New()
	}
	apply := func(id int, ber float64) {
		t.Helper()
		op := Op{
			LinkID: uint64(id) + 1, Algo: spec.ID, Kind: core.KindBER,
			RateIndex: rates[id], BER: ber, Delivered: true,
		}
		got := st.Apply(op)
		want := bare[id].Apply(ctl.Feedback{
			Kind: op.Kind, RateIndex: int(op.RateIndex), BER: op.BER, Delivered: op.Delivered,
		})
		if got != want {
			t.Fatalf("link %d: store %d != bare %d", id, got, want)
		}
		rates[id] = int32(got)
	}
	for i := 0; i < nLinks; i++ {
		apply(i, 1e-4)
	}

	// Idle everything out with the disk failing: the whole population
	// must stay resident in RAM, and the breaker must trip after exactly
	// breakerTripAfter consecutive spill failures (later rotations stand
	// down instead of hammering the disk).
	inj.Arm(true)
	clk.Advance(50 * time.Millisecond)
	st.EvictIdle()
	s := st.Stats()
	if s.ColdSpillErrors != breakerTripAfter {
		t.Fatalf("spill errors %d, want exactly breakerTripAfter=%d (breaker should stop further attempts)",
			s.ColdSpillErrors, breakerTripAfter)
	}
	if s.BreakerTrips != 1 || !s.ColdDegraded || !st.ColdDegraded() {
		t.Fatalf("breaker state after failures: trips=%d degraded=%v", s.BreakerTrips, s.ColdDegraded)
	}
	if s.Archived != nLinks || cold.Len() != 0 {
		t.Fatalf("degraded store holds %d in RAM and %d on disk, want all %d in RAM",
			s.Archived, cold.Len(), nLinks)
	}

	// Nothing was lost: every link revives from the retained generations
	// with its exact state.
	for i := 0; i < nLinks; i++ {
		apply(i, 2e-4)
	}

	// Past the backoff the breaker grants exactly one probe; the disk is
	// still broken, so the probe fails and the backoff doubles.
	clk.Advance(150 * time.Millisecond)
	st.EvictIdle()
	s = st.Stats()
	if s.SpillRetries != 1 || s.ColdSpillErrors != breakerTripAfter+1 {
		t.Fatalf("after failed probe: retries=%d spill errors=%d, want 1 and %d",
			s.SpillRetries, s.ColdSpillErrors, breakerTripAfter+1)
	}
	if !st.ColdDegraded() {
		t.Fatal("breaker closed on a failed probe")
	}

	// Heal the disk; the next granted probe succeeds, closes the breaker,
	// and the backlog drains to the cold tier.
	inj.Arm(false)
	clk.Advance(500 * time.Millisecond)
	st.EvictIdle()
	s = st.Stats()
	if st.ColdDegraded() || s.ColdDegraded {
		t.Fatal("breaker still open after a successful probe")
	}
	if s.SpillRetries != 2 {
		t.Fatalf("spill retries %d, want 2 (one failed probe, one successful)", s.SpillRetries)
	}
	if cold.Len() != nLinks {
		t.Fatalf("recovered cold tier holds %d links, want the whole backlog of %d", cold.Len(), nLinks)
	}

	// Post-recovery decisions restore from disk and stay exact.
	for i := 0; i < nLinks; i++ {
		apply(i, 3e-4)
	}
	s = st.Stats()
	if s.ColdRestoreErrors != 0 {
		t.Fatalf("restore errors after recovery: %d", s.ColdRestoreErrors)
	}
	if s.Cold == nil || s.Cold.Restores == 0 {
		t.Fatal("post-recovery churn never restored from disk")
	}
}

// TestColdRestoreFaultFallsThroughFresh pins the read-fault contract: a
// failed restore counts ColdRestoreErrors and serves a FRESH controller
// (never a half-decoded one), the breaker stays closed (read faults say
// nothing about the spill path), and the link continues from the fresh
// state once the disk heals.
func TestColdRestoreFaultFallsThroughFresh(t *testing.T) {
	clk := &fakeClock{}
	inj := faultfs.Wrap(faultfs.OS{}, 5, faultfs.Rates{ReadErr: 1})
	inj.Arm(false)
	cold := openColdFS(t, t.TempDir(), inj)
	defer cold.Close()
	st := New(Config{
		Shards: 1, TTL: 10 * time.Millisecond, Clock: clk.Now,
		Cold: cold, ColdFront: 4,
	})
	spec := ctl.Specs()[0]
	const nLinks = 32
	bare := make([]ctl.Controller, nLinks)
	rates := make([]int32, nLinks)
	for i := range bare {
		bare[i] = spec.New()
	}
	feedback := func(id int, ber float64) (Op, ctl.Feedback) {
		op := Op{
			LinkID: uint64(id) + 1, Algo: spec.ID, Kind: core.KindBER,
			RateIndex: rates[id], BER: ber, Delivered: true,
		}
		return op, ctl.Feedback{Kind: op.Kind, RateIndex: int(op.RateIndex), BER: op.BER, Delivered: op.Delivered}
	}
	for step := 0; step < 5; step++ {
		for i := 0; i < nLinks; i++ {
			op, fb := feedback(i, float64(step+1)*1e-4)
			got := st.Apply(op)
			if want := bare[i].Apply(fb); got != want {
				t.Fatalf("warmup link %d: store %d != bare %d", i, got, want)
			}
			rates[i] = int32(got)
		}
		clk.Advance(time.Millisecond)
	}
	clk.Advance(50 * time.Millisecond)
	st.EvictIdle() // disarmed: spills reach the disk

	// Pick a link whose state actually lives on disk. The search runs
	// armed: a link the tier holds answers with the injected read fault
	// (and a failed read caches nothing), where a disarmed Peek would pull
	// the record's block into the tier's read cache and the restore below
	// would never reach the faulty disk.
	inj.Arm(true)
	victim := -1
	for i := 0; i < nLinks; i++ {
		if _, _, _, err := cold.Peek(uint64(i)+1, nil); faultfs.IsInjected(err) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("eviction churn left no link on disk")
	}

	op, fb := feedback(victim, 9e-4)
	got := st.Apply(op)
	fresh := spec.New()
	if want := fresh.Apply(fb); got != want {
		t.Fatalf("restore-fault decision %d, want fresh controller's %d", got, want)
	}
	rates[victim] = int32(got)
	s := st.Stats()
	if s.ColdRestoreErrors != 1 {
		t.Fatalf("ColdRestoreErrors %d, want 1", s.ColdRestoreErrors)
	}
	if s.ColdErrors != s.ColdSpillErrors+s.ColdRestoreErrors {
		t.Fatalf("ColdErrors %d != spill %d + restore %d", s.ColdErrors, s.ColdSpillErrors, s.ColdRestoreErrors)
	}
	if st.ColdDegraded() || s.BreakerTrips != 0 {
		t.Fatal("a read fault tripped the spill breaker")
	}

	// The link's future is the fresh controller's future.
	inj.Arm(false)
	for step := 0; step < 5; step++ {
		op, fb := feedback(victim, float64(step+2)*1e-4)
		got := st.Apply(op)
		if want := fresh.Apply(fb); got != want {
			t.Fatalf("post-fault step %d: store %d != fresh mirror %d", step, got, want)
		}
		rates[victim] = int32(got)
	}
}

// TestColdChaosChurnExact is the in-process version of the chaos smoke:
// mixed-algorithm churn through a cold tier on a ChaosRates-injected
// disk (write errors, torn writes, stalls — read path clean). Spills
// fail constantly; every decision must still match a bare controller
// byte-for-byte, because a failed spill keeps the generation in RAM.
func TestColdChaosChurnExact(t *testing.T) {
	clk := &fakeClock{}
	r := faultfs.ChaosRates(0.3)
	r.StallDur = 0 // keep the unit test fast; stall scheduling still draws
	inj := faultfs.Wrap(faultfs.OS{}, 1, r)
	inj.Arm(false)
	cold := openColdFS(t, t.TempDir(), inj)
	defer cold.Close()
	st := New(Config{
		Shards: 4, TTL: 10 * time.Millisecond, Clock: clk.Now,
		Cold: cold, ColdFront: 16,
	})
	inj.Arm(true)
	specs := ctl.Specs()
	const nLinks = 120
	bare := make([]ctl.Controller, nLinks)
	algo := make([]ctl.Algo, nLinks)
	for i := range bare {
		spec := specs[i%len(specs)]
		bare[i] = spec.New()
		algo[i] = spec.ID
	}
	rng := rand.New(rand.NewSource(77))
	rates := make([]int32, nLinks)
	for step := 0; step < 6000; step++ {
		id := rng.Intn(nLinks)
		op := Op{
			LinkID:    uint64(id) + 1,
			Algo:      algo[id],
			Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
			RateIndex: rates[id],
			BER:       rng.Float64() * 0.01,
			SNRdB:     float32(rng.Float64()*30 - 2),
			Delivered: rng.Intn(3) > 0,
		}
		got := st.Apply(op)
		want := bare[id].Apply(ctl.Feedback{
			Kind:      op.Kind,
			RateIndex: int(op.RateIndex),
			BER:       op.BER,
			SNRdB:     float64(op.SNRdB),
			Delivered: op.Delivered,
		})
		if got != want {
			t.Fatalf("step %d link %d: store %d != bare %d under chaos", step, id, got, want)
		}
		rates[id] = int32(got)
		clk.Advance(time.Millisecond)
	}
	s := st.Stats()
	if s.ColdRestoreErrors != 0 {
		t.Fatalf("restore errors under a write-only fault mix: %d", s.ColdRestoreErrors)
	}
	if s.ColdSpillErrors == 0 {
		t.Fatal("a 30% write-fault rate never failed a spill; the chaos path was not exercised")
	}
	fstats := inj.Stats()
	if fstats.WriteFaults == 0 && fstats.ShortWrites == 0 {
		t.Fatalf("injector delivered no write faults: %+v", fstats)
	}
}

// TestSpillAllReportsEveryShardFailure pins the errors.Join contract: a
// drain over a broken disk reports each failing shard (not just the
// first) and loses nothing — every link still serves its exact state.
func TestSpillAllReportsEveryShardFailure(t *testing.T) {
	clk := &fakeClock{}
	inj := faultfs.Wrap(faultfs.OS{}, 9, faultfs.Rates{WriteErr: 1})
	inj.Arm(false)
	cold := openColdFS(t, t.TempDir(), inj)
	defer cold.Close()
	st := New(Config{
		Shards: 4, TTL: time.Minute, Clock: clk.Now,
		Cold: cold, ColdFront: 16,
	})
	spec := ctl.Specs()[0]
	const nLinks = 64
	bare := make([]ctl.Controller, nLinks)
	rates := make([]int32, nLinks)
	for i := range bare {
		bare[i] = spec.New()
		op := Op{LinkID: uint64(i) + 1, Algo: spec.ID, Kind: core.KindBER, BER: 1e-4, Delivered: true}
		got := st.Apply(op)
		if want := bare[i].Apply(ctl.Feedback{Kind: op.Kind, BER: op.BER, Delivered: op.Delivered}); got != want {
			t.Fatalf("warmup link %d: store %d != bare %d", i, got, want)
		}
		rates[i] = int32(got)
	}
	inj.Arm(true)
	if _, err := st.SpillAll(); err == nil {
		t.Fatal("SpillAll over a broken disk reported success")
	} else if n := strings.Count(err.Error(), "shard "); n < 2 {
		t.Fatalf("SpillAll error names %d shards, want every failing shard joined:\n%v", n, err)
	}
	inj.Arm(false)
	for i := 0; i < nLinks; i++ {
		op := Op{LinkID: uint64(i) + 1, Algo: spec.ID, Kind: core.KindBER, RateIndex: rates[i], BER: 2e-4, Delivered: true}
		got := st.Apply(op)
		want := bare[i].Apply(ctl.Feedback{Kind: op.Kind, RateIndex: int(op.RateIndex), BER: op.BER, Delivered: op.Delivered})
		if got != want {
			t.Fatalf("link %d after failed drain: store %d != bare %d", i, got, want)
		}
	}
}

// TestSpillAllCountsCommittedBatches: a shard's older generation reaches
// the disk and the write of its younger one then fails. SpillAll must
// count the links the first batch durably wrote, keep the second batch's
// in RAM, and spill exactly those once the disk has room.
func TestSpillAllCountsCommittedBatches(t *testing.T) {
	clk := &fakeClock{}
	// The budget, counted only while armed, holds the older generation's
	// two 8-byte records and not the younger one's twenty.
	inj := faultfs.Wrap(faultfs.OS{}, 3, faultfs.Rates{WriteBudget: 100})
	inj.Arm(false)
	cold := openColdFS(t, t.TempDir(), inj)
	defer cold.Close()
	st := New(Config{Shards: 1, TTL: time.Second, Clock: clk.Now, Cold: cold, ColdFront: 4})
	ref := New(Config{Shards: 1})
	const older, younger = 2, 20
	touch := func(from, to int) {
		t.Helper()
		for id := from; id < to; id++ {
			op := Op{LinkID: uint64(id) + 1, Kind: core.KindBER, BER: 1e-7}
			if got, want := st.Apply(op), ref.Apply(op); got != want {
				t.Fatalf("link %d: decision %d, a never-evicted store decides %d", id, got, want)
			}
		}
	}
	touch(0, older)
	clk.Advance(2 * time.Second)
	st.EvictIdle() // fills the two-link generation, which rotates to old
	touch(older, older+younger)
	if s := st.Stats(); s.Archived != older || s.Live != younger || cold.Len() != 0 {
		t.Fatalf("before the drain: %d archived, %d live, %d on disk", s.Archived, s.Live, cold.Len())
	}

	inj.Arm(true)
	n, err := st.SpillAll()
	if !faultfs.IsInjected(err) {
		t.Fatalf("SpillAll over a full disk: error %v, want the injected one", err)
	}
	if n != older || cold.Len() != older {
		t.Fatalf("SpillAll reports %d links spilled with %d on disk, want %d: the older generation was committed", n, cold.Len(), older)
	}
	if s := st.Stats(); s.Live != 0 || s.Archived != younger {
		t.Fatalf("after the failed drain: %d live, %d archived, want 0 and %d kept in RAM", s.Live, s.Archived, younger)
	}

	inj.Arm(false)
	if n, err := st.SpillAll(); err != nil || n != younger {
		t.Fatalf("second SpillAll = %d, %v; want the %d links the first kept", n, err, younger)
	}
	touch(0, older+younger) // every link resumes from disk
	if s := st.Stats(); s.Creates != older+younger || s.ColdErrors != 1 {
		t.Fatalf("%d creates, %d cold errors; want %d and the one failed batch", s.Creates, s.ColdErrors, older+younger)
	}
}
