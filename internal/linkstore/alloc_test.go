//go:build !race

package linkstore

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"softrate/internal/ctl"
)

// TestWarmApplyBatchAllocFree pins the hot path's allocation count on
// each way a run reaches its state: SoftRate's direct step, the same
// 8-byte state behind the Controller interface (the controller works on
// the table slot's own bytes, which must not force entries to the heap),
// and a wide state in its slab. The race detector's bookkeeping allocates,
// so the file is built without it.
func TestWarmApplyBatchAllocFree(t *testing.T) {
	masked := func(a ctl.Algo) ctl.Controller { return maskInPlace{ctl.New(a)} }
	for _, tc := range []struct {
		name  string
		algo  ctl.Algo
		build func(ctl.Algo) ctl.Controller
	}{
		{"softrate-step", ctl.AlgoSoftRate, nil},
		{"softrate-interface", ctl.AlgoSoftRate, masked},
		{"samplerate-inplace", ctl.AlgoSampleRate, nil},
	} {
		const nLinks = 1024
		st := New(Config{ExpectedLinks: nLinks, newController: tc.build})
		all := benchOps(tc.algo, nLinks)
		out := make([]int32, len(all[0]))
		for _, ops := range all {
			st.ApplyBatch(ops, out)
		}
		k := 0
		if n := testing.AllocsPerRun(100, func() {
			st.ApplyBatch(all[k%len(all)], out)
			k++
		}); n != 0 {
			t.Errorf("%s: warm ApplyBatch allocates %.0f times per batch, want 0", tc.name, n)
		}
	}
}

// TestEvictReviveInPlace pins that eviction and revival move nothing: a
// wide state keeps its slab slot and every byte of it — including the
// stale bytes past ring lengths, which a store that never evicted has
// too — an inline state keeps its table bytes, and a warm evict → revive
// cycle allocates nothing.
func TestEvictReviveInPlace(t *testing.T) {
	for _, algo := range []ctl.Algo{ctl.AlgoSoftRate, ctl.AlgoSampleRate} {
		const nLinks = 256
		clk := &fakeClock{}
		st := New(Config{Shards: 1, TTL: time.Second, Clock: clk.Now, ExpectedLinks: nLinks})
		ref := New(Config{Shards: 1, ExpectedLinks: nLinks}) // never evicts
		all := benchOps(algo, nLinks)
		out, want := make([]int32, len(all[0])), make([]int32, len(all[0]))
		lap := func() {
			t.Helper()
			for _, ops := range all {
				st.ApplyBatch(ops, out)
				ref.ApplyBatch(ops, want)
				if !slices.Equal(out, want) {
					t.Fatalf("algo %d: decisions diverge from a store that never evicts", algo)
				}
			}
		}
		// where returns the link's entry and the state bytes behind it.
		where := func(s *Store, id uint64) (entry, []byte) {
			sh := &s.shards[0]
			e := sh.links.Get(id, sh.links.Mix(id))
			if e == nil {
				t.Fatalf("algo %d: link %d is not in the table", algo, id)
			}
			return *e, sh.stateOf(s, e)
		}
		for i := 0; i < 40; i++ { // past SampleRate's 16-sample rings, so they wrap
			lap()
		}
		const id = 7
		live, state := where(st, id)
		before := bytes.Clone(state)

		clk.Advance(2 * time.Second)
		if n := st.EvictIdle(); n != nLinks {
			t.Fatalf("algo %d: evicted %d links, want %d", algo, n, nLinks)
		}
		if s := st.Stats(); s.Live != 0 || s.Archived != nLinks {
			t.Fatalf("algo %d: %d live, %d archived after the sweep", algo, s.Live, s.Archived)
		}
		idle, state := where(st, id)
		if idle.tier == tierLive {
			t.Fatalf("algo %d: evicted link is not tagged", algo)
		}
		if idle.tier = tierLive; idle != live {
			t.Fatalf("algo %d: eviction changed the entry beyond its tag: %+v → %+v", algo, live, idle)
		}
		if !bytes.Equal(state, before) {
			t.Fatalf("algo %d: eviction changed the state bytes", algo)
		}
		if n := len(st.shards[0].slabs[algo].free); n != 0 {
			t.Fatalf("algo %d: eviction freed %d slab slots", algo, n)
		}

		lap() // revives every link
		back, state := where(st, id)
		_, refState := where(ref, id)
		if back.tier != tierLive {
			t.Fatalf("algo %d: revived link is still tagged", algo)
		}
		if st.widths[algo] > inlineState && back.slot() != live.slot() {
			t.Fatalf("algo %d: revived link moved from slab slot %d to %d", algo, live.slot(), back.slot())
		}
		if !bytes.Equal(state, refState) {
			t.Fatalf("algo %d: revived state differs from a never-evicted store's, byte for byte", algo)
		}
		if s := st.Stats(); s.Live != nLinks || s.Archived != 0 || s.ArchivedBytes != 0 || s.Restores != nLinks {
			t.Fatalf("algo %d: after revival %+v", algo, s.ShardStats)
		}

		if n := testing.AllocsPerRun(20, func() {
			clk.Advance(2 * time.Second)
			st.EvictIdle()
			for _, ops := range all {
				st.ApplyBatch(ops, out)
			}
		}); n != 0 {
			t.Errorf("algo %d: a warm evict → revive cycle allocates %.0f times, want 0", algo, n)
		}
	}
}
