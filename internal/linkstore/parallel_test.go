package linkstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
)

// churnBatches builds a deterministic multi-algorithm op stream shaped to
// stress every apply path at once: every registered algorithm (so the
// inline, slab, and in-place paths all run), contiguous same-link runs
// (the coalescing path), and link IDs reused across batches (eviction /
// restore churn when replayed against a TTL store).
func churnBatches(seed int64, nBatches, batchLen, nLinks int) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	specs := ctl.Specs()
	batches := make([][]Op, nBatches)
	for b := range batches {
		ops := make([]Op, 0, batchLen)
		for len(ops) < batchLen {
			id := uint64(rng.Intn(nLinks)) + 1
			// Runs of 1-4 ops per link, contiguous — the coalescing shape.
			runLen := 1 + rng.Intn(4)
			if rem := batchLen - len(ops); runLen > rem {
				runLen = rem
			}
			algo := specs[int(id)%len(specs)].ID
			for r := 0; r < runLen; r++ {
				ops = append(ops, Op{
					LinkID:    id,
					Algo:      algo,
					Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
					RateIndex: int32(rng.Intn(6)),
					BER:       rng.Float64() * 0.01,
					SNRdB:     float32(rng.Float64()*30 - 2),
					Airtime:   float32(rng.Float64()) * 2e-3,
					Delivered: rng.Intn(3) > 0,
				})
			}
		}
		batches[b] = ops
	}
	return batches
}

// replay drives rounds through a fresh TTL store — rounds[r][c] is caller
// c's batch in round r — and returns every op's decision, indexed like
// rounds, plus the final per-link state of links 1..nLinks. With
// concurrent set each caller applies its batch from its own goroutine;
// otherwise one goroutine applies the round's batches in caller order.
// Either way the clock advances only once every caller has finished the
// round.
func replay(t *testing.T, concurrent bool, rounds [][][]Op, nLinks int) ([][][]int32, []byte) {
	t.Helper()
	clk := &fakeClock{}
	st := New(Config{Shards: 8, TTL: 5 * time.Millisecond, Clock: clk.Now})
	outs := make([][][]int32, len(rounds))
	for r, batches := range rounds {
		outs[r] = make([][]int32, len(batches))
		for c, ops := range batches {
			outs[r][c] = make([]int32, len(ops))
		}
		if concurrent {
			var wg sync.WaitGroup
			for c, ops := range batches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st.ApplyBatch(ops, outs[r][c])
				}()
			}
			wg.Wait() // the round's barrier
		} else {
			for c, ops := range batches {
				st.ApplyBatch(ops, outs[r][c])
			}
		}
		clk.Advance(time.Millisecond) // ages links; forces eviction churn
	}
	if st.Stats().Evictions == 0 {
		t.Fatal("replay never exercised eviction churn — weaken the TTL")
	}
	var state bytes.Buffer
	for id := uint64(1); id <= uint64(nLinks); id++ {
		algo, b, ok := st.Peek(id)
		fmt.Fprintf(&state, "%d/%d/%v:%x\n", id, algo, ok, b)
	}
	return outs, state.Bytes()
}

// TestParallelApplyBatchByteIdentical is the concurrent-caller acceptance
// property: two goroutines applying batches at once, each on its own
// link-ID range, decide every op and leave every link's encoded state
// exactly as one caller replaying the same ops sequentially does — across
// all apply paths (SoftRate inline, small slab states, SampleRate
// in-place) and under eviction/restore churn, since both callers share
// the shards and the sweeps. The CI race step runs this under -race,
// which also proves concurrent callers are data-race-free.
func TestParallelApplyBatchByteIdentical(t *testing.T) {
	const nLinks, callers = 200, 2
	perCaller := make([][][]Op, callers)
	for c := range perCaller {
		perCaller[c] = churnBatches(77+int64(c), 120, 512, nLinks)
		for _, ops := range perCaller[c] {
			for i := range ops {
				ops[i].LinkID += uint64(c * nLinks) // disjoint ranges
			}
		}
	}
	rounds := make([][][]Op, len(perCaller[0]))
	for r := range rounds {
		for c := range perCaller {
			rounds[r] = append(rounds[r], perCaller[c][r])
		}
	}
	wantOuts, wantState := replay(t, false, rounds, callers*nLinks)
	gotOuts, gotState := replay(t, true, rounds, callers*nLinks)
	for r := range wantOuts {
		for c := range wantOuts[r] {
			for i := range wantOuts[r][c] {
				if gotOuts[r][c][i] != wantOuts[r][c][i] {
					t.Fatalf("round %d caller %d op %d: decided %d, sequential %d",
						r, c, i, gotOuts[r][c][i], wantOuts[r][c][i])
				}
			}
		}
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatal("final store state under concurrent callers diverged from sequential")
	}
}

// TestCoalescedRunsMatchOpAtATime pins the run-coalescing rewrite: a
// batch full of contiguous same-link runs must decide exactly like
// feeding the same ops through Apply one at a time, for every algorithm.
func TestCoalescedRunsMatchOpAtATime(t *testing.T) {
	batches := churnBatches(13, 40, 512, 64)
	a := New(Config{Shards: 8})
	b := New(Config{Shards: 8})
	for bi, ops := range batches {
		out := make([]int32, len(ops))
		a.ApplyBatch(ops, out)
		for i, op := range ops {
			if want := int32(b.Apply(op)); want != out[i] {
				t.Fatalf("batch %d op %d (link %d): batched %d, op-at-a-time %d",
					bi, i, op.LinkID, out[i], want)
			}
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Hits+sa.Creates+sa.Restores != sb.Hits+sb.Creates+sb.Restores {
		t.Fatalf("op accounting diverged: %+v vs %+v", sa.ShardStats, sb.ShardStats)
	}
}

// TestApplyBatchStatsKinds checks the routing-pass tallies: same counts
// the server used to gather with its own second pass over the batch.
func TestApplyBatchStatsKinds(t *testing.T) {
	st := New(Config{Shards: 4})
	rng := rand.New(rand.NewSource(3))
	ops := make([]Op, 1000)
	// Every op carries AlgoDefault, so the batch resolves uniformly to the
	// store default.
	want := BatchStats{Algo: ctl.AlgoSoftRate}
	for i := range ops {
		k := core.FeedbackKind(rng.Intn(int(core.NumKinds)))
		ops[i] = Op{LinkID: uint64(rng.Intn(100)), Kind: k, BER: 1e-6}
		want.Kinds[k]++
	}
	var got BatchStats
	out := make([]int32, len(ops))
	st.ApplyBatchStats(ops, out, &got)
	if got != want {
		t.Fatalf("batch stats %+v, want %+v", got, want)
	}

	// Naming a second algorithm anywhere in the batch marks it mixed.
	ops[500].Algo = 2
	st.ApplyBatchStats(ops, out, &got)
	if !got.Mixed || got.Algo != ctl.AlgoSoftRate {
		t.Fatalf("mixed batch stats %+v, want Mixed with first algo softrate", got)
	}
}

// TestExpectedLinksPresize checks pre-sizing is behaviour-neutral: a
// pre-sized store makes the same decisions as an unsized one, and the
// hint reaches the slabs (a wide-state algorithm's first allocation jumps
// to the reserved capacity instead of starting at one slot).
func TestExpectedLinksPresize(t *testing.T) {
	sized := New(Config{Shards: 4, ExpectedLinks: 4096})
	plain := New(Config{Shards: 4})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		op := Op{
			LinkID:    uint64(rng.Intn(500)) + 1,
			Algo:      ctl.AlgoSampleRate,
			Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
			RateIndex: int32(rng.Intn(6)),
			BER:       rng.Float64() * 0.01,
			Delivered: rng.Intn(2) == 0,
		}
		if got, want := sized.Apply(op), plain.Apply(op); got != want {
			t.Fatalf("op %d: pre-sized store decided %d, plain %d", i, got, want)
		}
	}
	spec, _ := ctl.Lookup(ctl.AlgoSampleRate)
	perShard := 4096/sized.NumShards() + 1
	for i := range sized.shards {
		sh := &sized.shards[i]
		sh.mu.Lock()
		c := cap(sh.slabs[ctl.AlgoSampleRate].data)
		sh.mu.Unlock()
		if c == 0 {
			continue // shard saw no SampleRate traffic
		}
		if c < perShard*spec.StateLen {
			t.Fatalf("shard %d slab capacity %d, want at least the %d-slot reserve (%d bytes)",
				i, c, perShard, perShard*spec.StateLen)
		}
	}
}
