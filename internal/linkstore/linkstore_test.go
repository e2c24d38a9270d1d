package linkstore

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
)

// fakeClock is a manually advanced nanosecond clock.
type fakeClock struct {
	mu  sync.Mutex
	now int64
}

func (c *fakeClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d.Nanoseconds()
	c.mu.Unlock()
}

// softPeek decodes a SoftRate link's 8-byte relocatable state.
func softPeek(t *testing.T, st *Store, id uint64) (core.State, bool) {
	t.Helper()
	algo, b, ok := st.Peek(id)
	if !ok {
		return core.State{}, false
	}
	if algo != ctl.AlgoSoftRate {
		t.Fatalf("link %d runs algorithm %d, want SoftRate", id, algo)
	}
	return core.State{
		RateIndex: int32(binary.LittleEndian.Uint32(b[0:4])),
		SilentRun: int32(binary.LittleEndian.Uint32(b[4:8])),
	}, true
}

// berFor returns a BER that drives a default controller at rate index ri
// up (dir>0), down (dir<0) or holds it (dir==0).
func berFor(s *core.SoftRate, ri, dir int) float64 {
	alpha, beta := s.Thresholds(ri)
	switch {
	case dir > 0:
		return alpha / 2
	case dir < 0:
		return beta * 5
	default:
		return (alpha + beta) / 2
	}
}

func TestLazyCreationAndDecisions(t *testing.T) {
	st := New(Config{Shards: 8})
	ref := core.New(core.DefaultConfig())

	// First touch creates the link at the lowest rate; a climb-worthy BER
	// moves it up exactly like a bare controller.
	got := st.Apply(Op{LinkID: 42, Kind: core.KindBER, RateIndex: 0, BER: berFor(ref, 0, 1)})
	ref.OnFeedback(core.Feedback{RateIndex: 0, BER: berFor(ref, 0, 1)})
	if got != ref.CurrentIndex() {
		t.Fatalf("first decision %d != bare controller %d", got, ref.CurrentIndex())
	}
	s := st.Stats()
	if s.Creates != 1 || s.Live != 1 || s.Hits != 0 {
		t.Fatalf("stats after first touch: %+v", s)
	}
	st.Apply(Op{LinkID: 42, Kind: core.KindSilentLoss})
	if s := st.Stats(); s.Hits != 1 || s.Creates != 1 {
		t.Fatalf("stats after second touch: %+v", s)
	}
}

func TestManyLinksAreIndependent(t *testing.T) {
	st := New(Config{Shards: 16})
	// Walk link A up and link B down; they must not interfere even when
	// they hash anywhere (including the same shard).
	ref := core.New(core.DefaultConfig())
	for i := 0; i < 5; i++ {
		cur := int32(0)
		if s, ok := softPeek(t, st, 1); ok {
			cur = s.RateIndex
		}
		st.Apply(Op{LinkID: 1, Kind: core.KindBER, RateIndex: cur, BER: berFor(ref, int(cur), 1)})
		st.Apply(Op{LinkID: 2, Kind: core.KindSilentLoss})
	}
	a, _ := softPeek(t, st, 1)
	b, _ := softPeek(t, st, 2)
	if a.RateIndex != 5 {
		t.Fatalf("link 1 should have climbed to 5, got %d", a.RateIndex)
	}
	if b.RateIndex != 0 || b.SilentRun != 2 {
		t.Fatalf("link 2 state %+v, want rate 0, silent run 2 (5 silents = 1 drop clamped + run 2)", b)
	}
}

func TestTTLEvictionArchivesAndRestoresTransparently(t *testing.T) {
	clk := &fakeClock{}
	st := New(Config{Shards: 4, TTL: time.Second, Clock: clk.Now})
	ref := core.New(core.DefaultConfig())

	// Build up state: two silent losses at rate 3.
	st.Apply(Op{LinkID: 7, Kind: core.KindBER, RateIndex: 0, BER: berFor(ref, 0, 1)})
	st.Apply(Op{LinkID: 7, Kind: core.KindSilentLoss})
	st.Apply(Op{LinkID: 7, Kind: core.KindSilentLoss})
	before, _ := softPeek(t, st, 7)

	clk.Advance(2 * time.Second)
	if n := st.EvictIdle(); n != 1 {
		t.Fatalf("EvictIdle evicted %d links, want 1", n)
	}
	s := st.Stats()
	if s.Live != 0 || s.Archived != 1 || s.Evictions != 1 {
		t.Fatalf("post-eviction stats %+v", s)
	}
	// Peek still sees the archived state.
	if got, ok := softPeek(t, st, 7); !ok || got != before {
		t.Fatalf("archived state %+v (ok=%v), want %+v", got, ok, before)
	}
	// The next touch restores it: a third silent loss completes the run of
	// three and steps the rate down — proof the counter survived eviction.
	got := st.Apply(Op{LinkID: 7, Kind: core.KindSilentLoss})
	if int32(got) != before.RateIndex-1 {
		t.Fatalf("restored link decided %d, want %d (run preserved across eviction)", got, before.RateIndex-1)
	}
	s = st.Stats()
	if s.Restores != 1 || s.Archived != 0 || s.Live != 1 {
		t.Fatalf("post-restore stats %+v", s)
	}
}

func TestIncrementalSweepEvictsDuringTraffic(t *testing.T) {
	// Idle links must be evicted by ongoing traffic to *other* links,
	// without anyone calling EvictIdle.
	clk := &fakeClock{}
	st := New(Config{Shards: 1, TTL: time.Second, Clock: clk.Now})
	st.Apply(Op{LinkID: 1, Kind: core.KindSilentLoss})
	for i := 0; i < 10; i++ {
		clk.Advance(400 * time.Millisecond)
		st.Apply(Op{LinkID: 2, Kind: core.KindSilentLoss})
	}
	s := st.Stats()
	if s.Evictions == 0 {
		t.Fatalf("busy shard never evicted the idle link: %+v", s)
	}
	if got, ok := softPeek(t, st, 1); !ok {
		t.Fatal("evicted link lost from archive")
	} else if got.SilentRun != 1 {
		t.Fatalf("archived state %+v, want silent run 1", got)
	}
}

func TestApplyBatchMatchesSequentialApply(t *testing.T) {
	mkOps := func(rng *rand.Rand, n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{
				LinkID:    uint64(rng.Intn(50)),
				Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
				RateIndex: int32(rng.Intn(6)),
				BER:       rng.Float64() * 0.01,
			}
		}
		return ops
	}
	rng := rand.New(rand.NewSource(5))
	ops := mkOps(rng, 4096)

	a := New(Config{Shards: 16})
	b := New(Config{Shards: 16})
	out := make([]int32, len(ops))
	a.ApplyBatch(ops, out)
	for i, op := range ops {
		if got := int32(b.Apply(op)); got != out[i] {
			t.Fatalf("op %d (%+v): batch decided %d, sequential %d", i, op, out[i], got)
		}
	}
}

func TestShardDistributionOfSequentialIDs(t *testing.T) {
	st := New(Config{Shards: 16})
	for id := uint64(0); id < 16000; id++ {
		st.Apply(Op{LinkID: id, Kind: core.KindSilentLoss})
	}
	for i, s := range st.PerShard() {
		if s.Live < 500 || s.Live > 1500 {
			t.Fatalf("shard %d holds %d of 16000 sequential links — hash is not mixing", i, s.Live)
		}
	}
}

func TestConcurrentApplyIsRaceFreeAndConserves(t *testing.T) {
	st := New(Config{Shards: 8, TTL: 50 * time.Millisecond})
	const goroutines = 8
	const perG = 2048 // multiple of the batch size below
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			ops := make([]Op, 32)
			out := make([]int32, 32)
			for i := 0; i < perG; i += len(ops) {
				for j := range ops {
					ops[j] = Op{
						LinkID:    uint64(rng.Intn(200)),
						Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
						RateIndex: int32(rng.Intn(6)),
						BER:       rng.Float64() * 0.01,
					}
				}
				st.ApplyBatch(ops, out)
				if rng.Intn(10) == 0 {
					st.EvictIdle()
					st.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := st.Stats()
	if s.Hits+s.Creates+s.Restores != goroutines*perG {
		t.Fatalf("op accounting leaked: hits %d + creates %d + restores %d != %d",
			s.Hits, s.Creates, s.Restores, goroutines*perG)
	}
	if s.Live+s.Archived == 0 || s.Live+s.Archived > 200 {
		t.Fatalf("link population %d+%d, want in (0, 200]", s.Live, s.Archived)
	}
}

func TestStoreDeterminismAgainstBareControllers(t *testing.T) {
	// The acceptance property: per link, the store's decision stream is
	// byte-identical to feeding the same feedback sequence into a bare
	// core.SoftRate — including across TTL evictions.
	clk := &fakeClock{}
	st := New(Config{Shards: 8, TTL: 10 * time.Millisecond, Clock: clk.Now})
	const nLinks = 300
	bare := make([]*core.SoftRate, nLinks)
	for i := range bare {
		bare[i] = core.New(core.DefaultConfig())
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 5000; step++ {
		id := uint64(rng.Intn(nLinks))
		op := Op{
			LinkID:    id,
			Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
			RateIndex: int32(rng.Intn(6)),
			BER:       rng.Float64() * 0.01,
		}
		got := st.Apply(op)
		want := bare[id].Apply(op.Kind, int(op.RateIndex), op.BER)
		if got != want {
			t.Fatalf("step %d link %d: store %d != bare %d", step, id, got, want)
		}
		clk.Advance(time.Millisecond) // ages links; forces constant eviction churn
	}
	if st.Stats().Evictions == 0 {
		t.Fatal("test never exercised eviction — weaken the TTL")
	}
}

// TestMixedAlgorithmsPerLink drives every registered algorithm through
// one store concurrently and checks each link's decision stream against a
// bare controller of its algorithm — including across eviction/restore
// churn. This is the multi-algorithm generalization of
// TestStoreDeterminismAgainstBareControllers.
func TestMixedAlgorithmsPerLink(t *testing.T) {
	clk := &fakeClock{}
	st := New(Config{Shards: 8, TTL: 10 * time.Millisecond, Clock: clk.Now})
	specs := ctl.Specs()
	const nLinks = 120
	bare := make([]ctl.Controller, nLinks)
	algo := make([]ctl.Algo, nLinks)
	for i := range bare {
		spec := specs[i%len(specs)]
		bare[i] = spec.New()
		algo[i] = spec.ID
	}
	rng := rand.New(rand.NewSource(23))
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
			t.Fatalf("step %d link %d (%s): store %d != bare %d",
				step, id, specs[id%len(specs)].Name, got, want)
		}
		rates[id] = int32(got)
		clk.Advance(time.Millisecond)
	}
	s := st.Stats()
	if s.Evictions == 0 || s.Restores == 0 {
		t.Fatalf("test never exercised eviction/restore churn: %+v", s)
	}
	if len(s.Algos) != len(specs) {
		t.Fatalf("per-algo stats cover %d algorithms, want %d: %+v", len(s.Algos), len(specs), s.Algos)
	}
	var live, creates int
	for _, as := range s.Algos {
		live += as.Live
		creates += int(as.Creates)
	}
	if live != s.Live || creates != int(s.Creates) {
		t.Fatalf("per-algo stats don't sum to totals: %+v vs %+v", s.Algos, s.ShardStats)
	}
}

// TestAlgorithmStickyAtFirstTouch pins the binding rule: a link's
// algorithm is whatever its first op named, and later ops naming a
// different algorithm keep driving the original controller — including
// after the link was evicted and restored from the archive.
func TestAlgorithmStickyAtFirstTouch(t *testing.T) {
	clk := &fakeClock{}
	st := New(Config{Shards: 4, TTL: time.Second, Clock: clk.Now})

	// First touch binds RRAA.
	st.Apply(Op{LinkID: 5, Algo: ctl.AlgoRRAA, Kind: core.KindBER, BER: 1e-7, Delivered: true})
	if a, _, ok := st.Peek(5); !ok || a != ctl.AlgoRRAA {
		t.Fatalf("first touch bound algo %d, want RRAA", a)
	}
	// A later op claiming SoftRate must not rebind.
	st.Apply(Op{LinkID: 5, Algo: ctl.AlgoSoftRate, Kind: core.KindBER, BER: 1e-7, Delivered: true})
	if a, _, _ := st.Peek(5); a != ctl.AlgoRRAA {
		t.Fatalf("algo rebound to %d on second touch", a)
	}
	// Nor after eviction + restore.
	clk.Advance(2 * time.Second)
	if n := st.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d links, want 1", n)
	}
	st.Apply(Op{LinkID: 5, Algo: ctl.AlgoCHARM, Kind: core.KindSilentLoss})
	if a, _, _ := st.Peek(5); a != ctl.AlgoRRAA {
		t.Fatalf("algo rebound to %d after restore", a)
	}
	if s := st.Stats(); s.Restores != 1 {
		t.Fatalf("expected one restore, got %+v", s)
	}
}

// TestDefaultAlgoConfig checks that AlgoDefault ops land on the
// configured default algorithm.
func TestDefaultAlgoConfig(t *testing.T) {
	st := New(Config{Shards: 4, DefaultAlgo: ctl.AlgoCHARM})
	st.Apply(Op{LinkID: 1, Kind: core.KindSilentLoss})
	if a, state, ok := st.Peek(1); !ok || a != ctl.AlgoCHARM {
		t.Fatalf("default-algo op bound %d, want CHARM", a)
	} else if spec, _ := ctl.Lookup(ctl.AlgoCHARM); len(state) != spec.StateLen {
		t.Fatalf("CHARM state is %d bytes, want %d", len(state), spec.StateLen)
	}
}
