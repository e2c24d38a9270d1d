//go:build !race

package linkstore

import (
	"testing"

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
		st := New(Config{ExpectedLinks: nLinks, NewController: tc.build})
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
