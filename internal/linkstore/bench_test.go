package linkstore

import (
	"math/rand"
	"testing"

	"softrate/internal/core"
	"softrate/internal/ctl"
)

// maskInPlace hides a controller's ctl.InPlace surface, forcing the store
// onto the DecodeState → Apply → EncodeState path — the A in the in-slab
// A/B benchmarks below.
type maskInPlace struct{ ctl.Controller }

func benchOps(algo ctl.Algo, nLinks int) [][]Op {
	const batch = 128
	rng := rand.New(rand.NewSource(3))
	all := make([][]Op, nLinks/batch)
	next := uint64(0)
	for k := range all {
		all[k] = make([]Op, batch)
		for i := range all[k] {
			all[k][i] = Op{
				LinkID:    next%uint64(nLinks) + 1,
				Algo:      algo,
				Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
				RateIndex: int32(rng.Intn(6)),
				BER:       rng.Float64() * 0.01,
				Delivered: rng.Intn(3) > 0,
			}
			next++
		}
	}
	return all
}

// benchApply cycles prebuilt batches across the whole link population
// (the cold regime of BenchmarkDecideCold: every state access misses
// cache, like the load generator).
func benchApply(b *testing.B, st *Store, all [][]Op) {
	out := make([]int32, len(all[0]))
	for k := range all {
		st.ApplyBatch(all[k], out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ApplyBatch(all[i%len(all)], out)
	}
	b.ReportMetric(float64(len(all[0]))*float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkSampleRateInPlace is SampleRate through the in-slab engine
// (the default store configuration).
func BenchmarkSampleRateInPlace(b *testing.B) {
	const nLinks = 8192
	st := New(Config{Shards: 64, ExpectedLinks: nLinks})
	benchApply(b, st, benchOps(ctl.AlgoSampleRate, nLinks))
}

// BenchmarkSampleRateCodec is the identical workload with the in-place
// surface masked: every op pays the full ~1.7 KB DecodeState/EncodeState
// round trip. The gap to BenchmarkSampleRateInPlace is what the in-slab
// engine buys.
func BenchmarkSampleRateCodec(b *testing.B) {
	const nLinks = 8192
	st := New(Config{
		Shards:        64,
		ExpectedLinks: nLinks,
		newController: func(a ctl.Algo) ctl.Controller { return maskInPlace{ctl.New(a)} },
	})
	benchApply(b, st, benchOps(ctl.AlgoSampleRate, nLinks))
}

// BenchmarkSoftRateBatch pins the SoftRate fast path under the run-
// coalescing batch executor (regression guard for the rewrite).
func BenchmarkSoftRateBatch(b *testing.B) {
	const nLinks = 8192
	st := New(Config{Shards: 64, ExpectedLinks: nLinks})
	benchApply(b, st, benchOps(ctl.AlgoSoftRate, nLinks))
}
