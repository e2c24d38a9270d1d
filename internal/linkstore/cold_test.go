package linkstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"softrate/internal/coldstore"
	"softrate/internal/core"
	"softrate/internal/ctl"
)

func openCold(t *testing.T, dir string) *coldstore.Store {
	t.Helper()
	c, err := coldstore.Open(coldstore.Config{Dir: dir, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatalf("coldstore.Open: %v", err)
	}
	return c
}

// forEachTier runs f over a disk tier and again with Config.Cold nil,
// which puts the same segment log in memory.
func forEachTier(t *testing.T, f func(t *testing.T, cold *coldstore.Store)) {
	t.Run("disk", func(t *testing.T) {
		cold := openCold(t, t.TempDir())
		defer cold.Close()
		f(t, cold)
	})
	t.Run("mem", func(t *testing.T) { f(t, nil) })
}

// TestColdTierDeterminismMixedAlgorithms is TestMixedAlgorithmsPerLink
// with a cold tier behind a deliberately tiny RAM front: eviction churn
// pushes links through spill → tier → restore, and every decision must
// still match a bare controller byte-for-byte. This is the -verify
// contract extended over the cold tier, on disk and in memory.
func TestColdTierDeterminismMixedAlgorithms(t *testing.T) {
	forEachTier(t, testColdTierDeterminismMixedAlgorithms)
}

func testColdTierDeterminismMixedAlgorithms(t *testing.T, cold *coldstore.Store) {
	clk := &fakeClock{}
	st := New(Config{
		Shards: 4, TTL: 10 * time.Millisecond, Clock: clk.Now,
		Cold: cold, ColdFront: 16, // ~2 links per generation per shard
	})
	specs := ctl.Specs()
	const nLinks = 120
	bare := make([]ctl.Controller, nLinks)
	algo := make([]ctl.Algo, nLinks)
	for i := range bare {
		spec := specs[i%len(specs)]
		bare[i] = spec.New()
		algo[i] = spec.ID
	}
	rng := rand.New(rand.NewSource(31))
	rates := make([]int32, nLinks)
	for step := 0; step < 8000; step++ {
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
			t.Fatalf("step %d link %d (%s): store %d != bare %d",
				step, id, specs[id%len(specs)].Name, got, want)
		}
		rates[id] = int32(got)
		clk.Advance(time.Millisecond)
	}
	s := st.Stats()
	if s.ColdErrors != 0 {
		t.Fatalf("cold errors: %d", s.ColdErrors)
	}
	if s.Cold == nil || s.Cold.Spills == 0 || s.Cold.Restores == 0 {
		t.Fatalf("churn never reached the disk tier: %+v", s.Cold)
	}
	// The RAM front stays bounded: two generations of the per-shard cap
	// (plus at most one unrotated sweep's overshoot).
	if s.Archived > 64 {
		t.Fatalf("RAM archive grew to %d links despite a 16-link front", s.Archived)
	}
	if s.Cold.RestoreLatency.Count != s.Cold.Restores {
		t.Fatalf("restore latency histogram saw %d of %d restores",
			s.Cold.RestoreLatency.Count, s.Cold.Restores)
	}
}

// TestColdCrashRestartByteIdentical pins the crash-restart half of the
// -verify contract: run mixed-algorithm churn through a cold tier,
// SpillAll (the graceful-drain path), tear the process state down,
// recover a brand-new store from the same directory, and keep going —
// every post-restart decision must match bare mirror controllers that
// never restarted.
func TestColdCrashRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	specs := ctl.Specs()
	const nLinks = 90
	bare := make([]ctl.Controller, nLinks)
	algo := make([]ctl.Algo, nLinks)
	for i := range bare {
		spec := specs[i%len(specs)]
		bare[i] = spec.New()
		algo[i] = spec.ID
	}
	rates := make([]int32, nLinks)
	rng := rand.New(rand.NewSource(47))

	churn := func(st *Store, clk *fakeClock, steps int) {
		t.Helper()
		for step := 0; step < steps; step++ {
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
				t.Fatalf("step %d link %d (%s): store %d != bare %d",
					step, id, specs[id%len(specs)].Name, got, want)
			}
			rates[id] = int32(got)
			clk.Advance(time.Millisecond)
		}
	}

	clk1 := &fakeClock{}
	cold1 := openCold(t, dir)
	st1 := New(Config{Shards: 4, TTL: 10 * time.Millisecond, Clock: clk1.Now, Cold: cold1, ColdFront: 16})
	churn(st1, clk1, 4000)
	spilled, err := st1.SpillAll()
	if err != nil {
		t.Fatalf("SpillAll: %v", err)
	}
	if spilled == 0 {
		t.Fatal("SpillAll spilled nothing")
	}
	if n := st1.Len(); n != 0 {
		t.Fatalf("store still holds %d hot links after SpillAll", n)
	}
	// Close only releases file handles — every batch is already written,
	// so this is the same on-disk image a killed process would leave
	// after its last commit (the torn-tail cases are fuzzed separately).
	if err := cold1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Restart": fresh clock epoch, fresh store, recovered cold tier.
	clk2 := &fakeClock{}
	cold2 := openCold(t, dir)
	defer cold2.Close()
	st2 := New(Config{Shards: 4, TTL: 10 * time.Millisecond, Clock: clk2.Now, Cold: cold2, ColdFront: 16})
	if got := cold2.Len(); got < spilled {
		t.Fatalf("recovered cold tier holds %d links, SpillAll wrote %d", got, spilled)
	}
	churn(st2, clk2, 4000)
	s := st2.Stats()
	if s.ColdErrors != 0 {
		t.Fatalf("cold errors after restart: %d", s.ColdErrors)
	}
	if s.Cold.Restores == 0 {
		t.Fatal("no link was restored from the recovered tier")
	}
	if s.Cold.TornTails != 0 {
		t.Fatalf("clean shutdown produced %d torn tails", s.Cold.TornTails)
	}
}

// TestArchivedBytesAccounting pins the satellite: Stats reports archived
// *bytes*, so one idle SampleRate link (wide state) and one idle
// SoftRate link (8 bytes) stop counting identically.
func TestArchivedBytesAccounting(t *testing.T) {
	clk := &fakeClock{}
	st := New(Config{Shards: 1, TTL: time.Second, Clock: clk.Now})
	wSoft := ctl.New(ctl.AlgoSoftRate).StateLen()
	wSample := ctl.New(ctl.AlgoSampleRate).StateLen()

	st.Apply(Op{LinkID: 1, Algo: ctl.AlgoSoftRate, Kind: core.KindSilentLoss})
	st.Apply(Op{LinkID: 2, Algo: ctl.AlgoSampleRate, Kind: core.KindSilentLoss})
	if s := st.Stats(); s.ArchivedBytes != 0 {
		t.Fatalf("hot links already count archived bytes: %d", s.ArchivedBytes)
	}
	clk.Advance(2 * time.Second)
	st.EvictIdle()
	s := st.Stats()
	if want := int64(wSoft + wSample); s.ArchivedBytes != want {
		t.Fatalf("ArchivedBytes = %d, want %d", s.ArchivedBytes, want)
	}
	var gotSoft, gotSample int64
	for _, as := range s.Algos {
		switch as.Algo {
		case ctl.AlgoSoftRate:
			gotSoft = as.ArchivedBytes
		case ctl.AlgoSampleRate:
			gotSample = as.ArchivedBytes
		}
	}
	if gotSoft != int64(wSoft) || gotSample != int64(wSample) {
		t.Fatalf("per-algo archived bytes: soft=%d sample=%d, want %d/%d", gotSoft, gotSample, wSoft, wSample)
	}
	// Restoring releases the bytes.
	st.Apply(Op{LinkID: 2, Kind: core.KindSilentLoss})
	if s := st.Stats(); s.ArchivedBytes != int64(wSoft) {
		t.Fatalf("ArchivedBytes after restore = %d, want %d", s.ArchivedBytes, wSoft)
	}
	// Per-shard view agrees.
	var perShard int64
	for _, ss := range st.PerShard() {
		perShard += ss.ArchivedBytes
	}
	if perShard != int64(wSoft) {
		t.Fatalf("PerShard archived bytes = %d, want %d", perShard, wSoft)
	}
}

// TestColdFrontBudgetMassIdle pins the front-budget invariant under a
// synchronized mass idle-out: when one sweep ages out a burst far larger
// than the generation cap, the sweep must keep rotating until the burst
// is on disk — a single rotation would park it in the old generation,
// where the next sweep (seeing an empty current generation) would leave
// it violating the ColdFront budget forever.
func TestColdFrontBudgetMassIdle(t *testing.T) {
	forEachTier(t, testColdFrontBudgetMassIdle)
}

func testColdFrontBudgetMassIdle(t *testing.T, cold *coldstore.Store) {
	clk := &fakeClock{}
	const front = 16
	st := New(Config{Shards: 4, TTL: 10 * time.Millisecond, Clock: clk.Now,
		Cold: cold, ColdFront: front})

	// Touch a population 50x the front budget in one burst, then let the
	// whole burst age out together.
	const nLinks = 800
	for i := 0; i < nLinks; i++ {
		st.Apply(Op{LinkID: uint64(i) + 1, Kind: core.KindSilentLoss})
	}
	clk.Advance(time.Second)
	st.EvictIdle()

	s := st.Stats()
	if s.Live != 0 {
		t.Fatalf("burst still live after TTL sweep: %d links", s.Live)
	}
	// Both generations together hold at most the budget (2 x genCap per
	// shard); everything else must be on disk.
	if s.Archived > front {
		t.Fatalf("RAM archive holds %d links after a mass idle-out, budget is %d", s.Archived, front)
	}
	if got := s.Archived + s.Cold.Links; got != nLinks {
		t.Fatalf("front (%d) + cold tier (%d) = %d links, want %d", s.Archived, s.Cold.Links, got, nLinks)
	}

	// The second lap restores every link — almost all from disk — and the
	// states must round-trip exactly.
	for i := 0; i < nLinks; i++ {
		st.Apply(Op{LinkID: uint64(i) + 1, Kind: core.KindSilentLoss})
	}
	s = st.Stats()
	if s.ColdErrors != 0 {
		t.Fatalf("cold errors: %d", s.ColdErrors)
	}
	if s.Cold.Restores < nLinks-front {
		t.Fatalf("only %d disk restores for a %d-link lap over a %d-link front",
			s.Cold.Restores, nLinks, front)
	}
	if s.Live != nLinks {
		t.Fatalf("second lap left %d live links, want %d", s.Live, nLinks)
	}
}

// TestColdPeekReachesDisk checks the read-only surface follows the same
// front-then-disk lookup order as createLocked.
func TestColdPeekReachesDisk(t *testing.T) {
	clk := &fakeClock{}
	cold := openCold(t, t.TempDir())
	defer cold.Close()
	st := New(Config{Shards: 1, TTL: time.Second, Clock: clk.Now, Cold: cold, ColdFront: 2})
	ref := core.New(core.DefaultConfig())
	st.Apply(Op{LinkID: 5, Kind: core.KindBER, RateIndex: 0, BER: berFor(ref, 0, 1)})
	want, _ := softPeek(t, st, 5)

	// Age it out and push enough younger evictions through to force link
	// 5's generation to disk.
	clk.Advance(2 * time.Second)
	st.EvictIdle()
	for i := 0; i < 8; i++ {
		st.Apply(Op{LinkID: uint64(100 + i), Kind: core.KindSilentLoss})
		clk.Advance(2 * time.Second)
		st.EvictIdle()
	}
	if cold.Len() == 0 {
		t.Fatal("nothing spilled to disk")
	}
	if _, _, ok, _ := cold.Peek(5, nil); !ok {
		t.Skip("link 5 still in the RAM front on this sweep schedule")
	}
	got, ok := softPeek(t, st, 5)
	if !ok {
		t.Fatal("Peek lost link 5")
	}
	if got != want {
		t.Fatalf("Peek state %+v != pre-eviction %+v", got, want)
	}
	// Peek must not have restored it.
	if cold.Len() == 0 {
		t.Fatal("Peek drained the cold tier")
	}
}

// TestColdLinkInTwoNonAdjacentRuns: one batch names a disk-resident link
// in two runs with another disk-resident link between them. Both runs are
// set aside and answered by a single batched restore that names the link
// twice; the first run must get the spilled state, the second must find
// the link hot and continue from the first run's result — the decisions
// of a store that never evicted anything.
func TestColdLinkInTwoNonAdjacentRuns(t *testing.T) {
	clk := &fakeClock{}
	cold := openCold(t, t.TempDir())
	defer cold.Close()
	st := New(Config{Shards: 1, TTL: time.Second, Clock: clk.Now, Cold: cold, ColdFront: 2})
	ref := New(Config{Shards: 1, Clock: clk.Now})
	const a, b = 7, 8
	warm := []Op{
		{LinkID: a, Kind: core.KindBER, RateIndex: 0, BER: 1e-7},
		{LinkID: b, Kind: core.KindSilentLoss},
		{LinkID: a, Kind: core.KindBER, RateIndex: 1, BER: 1e-7},
	}
	out, want := make([]int32, 4), make([]int32, 4)
	st.ApplyBatch(warm, out)
	ref.ApplyBatch(warm, want)

	clk.Advance(2 * time.Second)
	st.EvictIdle()
	if n, err := st.SpillAll(); err != nil || n != 2 {
		t.Fatalf("SpillAll = %d, %v; want both links on disk", n, err)
	}
	before := st.Stats()

	batch := []Op{
		{LinkID: a, Kind: core.KindBER, RateIndex: 2, BER: 1e-2},
		{LinkID: b, Kind: core.KindSilentLoss},
		{LinkID: a, Kind: core.KindBER, RateIndex: 1, BER: 1e-7},
		{LinkID: a, Kind: core.KindBER, RateIndex: 2, BER: 1e-7},
	}
	st.ApplyBatch(batch, out)
	ref.ApplyBatch(batch, want)
	for i := range batch {
		if out[i] != want[i] {
			t.Fatalf("op %d: decision %d, a never-evicted store decides %d", i, out[i], want[i])
		}
	}
	for _, id := range []uint64{a, b} {
		got, _ := softPeek(t, st, id)
		exp, _ := softPeek(t, ref, id)
		if got != exp {
			t.Fatalf("link %d ends at %+v, a never-evicted store at %+v", id, got, exp)
		}
	}
	after := st.Stats()
	if d := after.Restores - before.Restores; d != 2 {
		t.Fatalf("%d restores, want one per link", d)
	}
	// The second run of link a (two ops) and nothing else found its link hot.
	if d := after.Hits - before.Hits; d != 2 {
		t.Fatalf("%d hits, want 2", d)
	}
	if after.Creates != before.Creates || after.ColdRestoreErrors != 0 {
		t.Fatalf("creates %d → %d, restore errors %d", before.Creates, after.Creates, after.ColdRestoreErrors)
	}
	if cs := cold.Stats(); cs.Restores != 2 || cs.Links != 0 || cs.RestoreLatency.Count != cs.Restores {
		t.Fatalf("cold tier: %d restores, %d links left, %d latency observations", cs.Restores, cs.Links, cs.RestoreLatency.Count)
	}
}

// TestColdChurnExactCounts is the benchmark's cold-churn at toy size on the
// fake clock: a hot set touched every few batches, and a cold population
// walked round-robin past the TTL and past a front far smaller than it, a
// seventh of it SampleRate so spills also point into slabs. Every count
// below repeats exactly, run to run and across versions of the sweep; the
// pinned values are what the three-walk sweep produced, and a tier in
// memory must give them too.
func TestColdChurnExactCounts(t *testing.T) {
	forEachTier(t, testColdChurnExactCounts)
}

func testColdChurnExactCounts(t *testing.T, cs *coldstore.Store) {
	const hot, hotPer, cold, coldPer, laps = 50, 4, 2016, 28, 5
	clk := &fakeClock{}
	st := New(Config{Shards: 4, TTL: 20 * time.Millisecond, Clock: clk.Now, Cold: cs, ColdFront: 800,
		ExpectedLinks: hot + coldPer*20})
	ops := make([]Op, hotPer+coldPer)
	out := make([]int32, len(ops))
	h, c := 0, 0
	for b := 0; b < laps*cold/coldPer; b++ {
		for i := range ops {
			var id uint64
			if i < hotPer {
				id, h = uint64(h%hot)+1, h+1
			} else {
				id, c = uint64(hot+c%cold)+1, c+1
			}
			algo := ctl.AlgoSoftRate
			if id%7 == 0 {
				algo = ctl.AlgoSampleRate
			}
			ops[i] = Op{LinkID: id, Algo: algo, Kind: core.KindBER, RateIndex: int32(b % 6), BER: 1e-5, Delivered: true}
		}
		st.ApplyBatch(ops, out)
		clk.Advance(time.Millisecond)
	}
	s := st.Stats()
	got := [5]uint64{s.Creates, s.Restores, s.Evictions, s.Cold.Spills, s.Cold.Restores}
	if want := [5]uint64{2066, 8064, 9408, 8780, 8064}; got != want || s.ColdErrors != 0 {
		t.Fatalf("creates, restores, evictions, cold spills, cold restores = %v, want %v (cold errors %d)", got, want, s.ColdErrors)
	}
}

// TestColdSegmentsByteIdentical pins the on-disk layout: with the table
// key fixed (TestMain), two stores fed one op stream on a virtual clock
// leave byte-identical segment files, because a generation spills in
// table order. One default-sized segment holds the run, so no compaction
// pass rewrites anything on its own schedule.
func TestColdSegmentsByteIdentical(t *testing.T) {
	batches := churnBatches(5, 300, 64, 400)
	run := func() map[string][]byte {
		dir := t.TempDir()
		cold, err := coldstore.Open(coldstore.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{}
		st := New(Config{Shards: 4, TTL: 10 * time.Millisecond, Clock: clk.Now, Cold: cold, ColdFront: 64})
		out := make([]int32, 64)
		for _, ops := range batches {
			st.ApplyBatch(ops, out)
			clk.Advance(3 * time.Millisecond)
		}
		if _, err := st.SpillAll(); err != nil {
			t.Fatal(err)
		}
		if s := cold.Stats(); s.Spills < 2000 || s.Restores == 0 {
			t.Fatalf("churn barely reached the disk: %d spills, %d restores", s.Spills, s.Restores)
		}
		if err := cold.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		image := map[string][]byte{}
		for _, f := range files {
			if image[f.Name()], err = os.ReadFile(filepath.Join(dir, f.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return image
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs left %d and %d files", len(a), len(b))
	}
	for name, want := range a {
		if got, ok := b[name]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes in one run, %d (present %v) in the other, or different ones", name, len(want), len(got), ok)
		}
	}
	// Two runs of one binary cannot see a spill order that changed between
	// versions; the image's digest under TestMain's default key can.
	if os.Getenv("LINKSTORE_HASH_SEED") != "" {
		return
	}
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write(a[name])
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "851d711642cd3d2675231839373a08ea61e4a76ca6e2ac96de37527e0d50fba0"; got != want {
		t.Fatalf("segment image SHA-256 %s, want %s: the spill order changed", got, want)
	}
}
