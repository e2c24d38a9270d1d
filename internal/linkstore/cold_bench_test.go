package linkstore

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"softrate/internal/coldstore"
	"softrate/internal/core"
	"softrate/internal/ctl"
)

// churnTouch returns the first half of a churn cycle: each call touches
// the next window of the population, round-robin, and then lets it idle
// past a one-second TTL, so the sweep that follows evicts exactly that
// window.
func churnTouch(st *Store, clk *fakeClock, nLinks, window int, algo ctl.Algo) func() {
	const batch = 128
	ops := make([]Op, batch)
	out := make([]int32, batch)
	pos := 0
	return func() {
		for base := 0; base < window; base += batch {
			n := 0
			for i := 0; i < batch && base+i < window; i++ {
				ops[n] = Op{LinkID: uint64((pos+base+i)%nLinks) + 1, Algo: algo, Kind: core.KindSilentLoss}
				n++
			}
			st.ApplyBatch(ops[:n], out)
		}
		pos = (pos + window) % nLinks
		clk.Advance(2 * time.Second)
	}
}

// benchChurn drives idle-skew evict/restore churn: each cycle touches a
// rotating window of the population and sweeps, so every touched link is
// a restore (a link recurs only after nLinks/window further cycles —
// long after its state left the RAM front, when the store has a cold
// tier) and every cycle evicts the previous window. One b.N iteration is
// one window, so the reported links/s is evict+restore pairs per second.
func benchChurn(b *testing.B, st *Store, clk *fakeClock, nLinks, window int, algo ctl.Algo) {
	touch := churnTouch(st, clk, nLinks, window, algo)
	cycle := func() {
		touch()
		st.EvictIdle()
	}
	for i := 0; i < nLinks/window+2; i++ {
		cycle() // populate the whole population and push it through eviction
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(window)*float64(b.N)/b.Elapsed().Seconds(), "links/s")
}

// BenchmarkEvictRestoreRAMArchive is the A side: eviction churn over a
// population the RAM front holds whole, so every restore is a revival in
// place and nothing reaches the cold tier.
func BenchmarkEvictRestoreRAMArchive(b *testing.B) {
	const nLinks = 8192
	clk := &fakeClock{}
	st := New(Config{Shards: 64, TTL: time.Second, Clock: clk.Now, ExpectedLinks: nLinks, ColdFront: 4 * nLinks})
	benchChurn(b, st, clk, nLinks, 512, ctl.AlgoSoftRate)
	if n := st.Stats().Cold.Spills; n != 0 {
		b.Fatalf("%d links reached the cold tier", n)
	}
}

// BenchmarkEvictRevive is the flag flip on its own: every cycle revives
// the whole population and then idles all of it out again into a RAM
// front that holds it whole, for an inline state and for a wide one that
// stays in its slab slot.
func BenchmarkEvictRevive(b *testing.B) {
	for _, arm := range []struct {
		name string
		algo ctl.Algo
	}{{"softrate", ctl.AlgoSoftRate}, {"samplerate", ctl.AlgoSampleRate}} {
		b.Run(arm.name, func(b *testing.B) {
			const nLinks = 2048
			clk := &fakeClock{}
			st := New(Config{Shards: 64, TTL: time.Second, Clock: clk.Now, ExpectedLinks: nLinks, ColdFront: 4 * nLinks})
			benchChurn(b, st, clk, nLinks, nLinks, arm.algo)
			if n := st.Stats().Cold.Spills; n != 0 {
				b.Fatalf("%d links reached the cold tier", n)
			}
		})
	}
}

// BenchmarkIdleTail is the default store, its cold tier in memory, late in
// a long run: a small live set in service over idle links far more
// numerous than it, which idled out a live set's worth at a time and are
// never seen again. All but the RAM front's worth of them sit in the
// in-memory tier, out of the shard tables, so neither arm should grow with
// them: hit is one decision on a live link, picked at random so the
// table's spread shows as cache misses, and sweep is one shard's TTL sweep
// that finds nothing to evict. B/idle-link is what the idle population
// added to the heap, after a collection, per idle link.
func BenchmarkIdleTail(b *testing.B) {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, idle := range []int{0, 1 << 20} {
		const live, batch = 8192, 128
		clk := &fakeClock{}
		st := New(Config{Shards: 64, TTL: time.Second, Clock: clk.Now, ExpectedLinks: live})
		ops := make([]Op, batch)
		out := make([]int32, batch)
		heap0 := heap()
		for base := live; base < live+idle; base += live {
			for off := 0; off < live; off += batch {
				for i := range ops {
					ops[i] = Op{LinkID: uint64(base + off + i + 1), Kind: core.KindSilentLoss}
				}
				st.ApplyBatch(ops, out)
			}
			clk.Advance(2 * time.Second)
			if n := st.EvictIdle(); n != live {
				b.Fatalf("sweep evicted %d links, want %d", n, live)
			}
		}
		idleBytes := heap() - heap0
		pick := uint32(1)
		hit := func() {
			for i := range ops {
				pick = pick*1664525 + 1013904223
				ops[i] = Op{LinkID: uint64(pick>>8)%live + 1, Kind: core.KindSilentLoss}
			}
			st.ApplyBatch(ops, out)
		}
		for i := 0; i < 4*live/batch; i++ {
			hit() // create the live set, then touch it warm
		}
		b.Run(fmt.Sprintf("idle=%d/hit", idle), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hit()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/decision")
			if idle > 0 {
				b.ReportMetric(float64(idleBytes)/float64(idle), "B/idle-link")
			}
		})
		b.Run(fmt.Sprintf("idle=%d/sweep", idle), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n := st.EvictIdle(); n != 0 {
					b.Fatalf("sweep evicted %d links of a live set just touched", n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.NumShards())/1e3, "µs/shard")
		})
	}
}

// BenchmarkSweepRotate times the sweep alone on a store with a cold tier:
// each iteration idles out a window four generations wide, so the sweep
// tags it, rotates until the front fits and group-commits what fell off.
// Touching the window again is untimed. The small arm's 64 tables hold
// ~300 slots each and stay in cache; the large arm's hold ~3 000 each,
// 4.5 MiB together, so the walk pays for every slot it reads.
func BenchmarkSweepRotate(b *testing.B) {
	for _, arm := range []struct {
		name                  string
		nLinks, window, front int
	}{
		{"links=8192", 8192, 2048, 1024},
		{"links=106496", 106496, 26624, 13312},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cold, err := coldstore.Open(coldstore.Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer cold.Close()
			clk := &fakeClock{}
			st := New(Config{Shards: 64, TTL: time.Second, Clock: clk.Now, ExpectedLinks: arm.nLinks,
				Cold: cold, ColdFront: arm.front})
			touch := churnTouch(st, clk, arm.nLinks, arm.window, ctl.AlgoSoftRate)
			for i := 0; i < arm.nLinks/arm.window+2; i++ {
				touch()
				st.EvictIdle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				touch()
				b.StartTimer()
				if n := st.EvictIdle(); n != arm.window {
					b.Fatalf("sweep evicted %d links, want %d", n, arm.window)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(arm.window), "ns/evicted")
			if cold.Stats().Spills == 0 {
				b.Fatal("benchmark never spilled")
			}
		})
	}
}

// BenchmarkEvictRestoreColdTier is the B side: the same churn through a
// disk tier behind a front far smaller than the population, so most
// restores are single-read disk hits and every eviction eventually
// group-commits through a spilled generation.
func BenchmarkEvictRestoreColdTier(b *testing.B) {
	const nLinks = 8192
	cold, err := coldstore.Open(coldstore.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer cold.Close()
	clk := &fakeClock{}
	st := New(Config{Shards: 64, TTL: time.Second, Clock: clk.Now, ExpectedLinks: nLinks,
		Cold: cold, ColdFront: 1024})
	benchChurn(b, st, clk, nLinks, 512, ctl.AlgoSoftRate)
	if cold.Stats().Restores == 0 {
		b.Fatal("benchmark never restored from disk")
	}
}

// BenchmarkEvictRestoreColdTierWide is the B side for the widest state
// (SampleRate ~1.7 KB): spill bandwidth and restore reads dominate here.
func BenchmarkEvictRestoreColdTierWide(b *testing.B) {
	const nLinks = 2048
	cold, err := coldstore.Open(coldstore.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer cold.Close()
	clk := &fakeClock{}
	st := New(Config{Shards: 64, TTL: time.Second, Clock: clk.Now, ExpectedLinks: nLinks,
		Cold: cold, ColdFront: 256})
	benchChurn(b, st, clk, nLinks, 256, ctl.AlgoSampleRate)
}
