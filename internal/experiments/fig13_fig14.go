package experiments

import (
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/experiments/engine"
	"softrate/internal/netsim"
	"softrate/internal/trace"
)

func init() {
	register("fig13", runFig13)
	register("fig14", runFig14)
}

// mkWalkingTrace generates one walking-mobility link trace (Table 4,
// "Walking": sender moving away from the receiver at walking speed).
func mkWalkingTrace(s int64, dur float64) *trace.LinkTrace {
	model := channel.NewTable4Walking(rand.New(rand.NewSource(s)))
	return trace.Generate(trace.GenConfig{Model: model, Duration: dur, Seed: s + 500})
}

// walkingLinkTraces generates n forward and n reverse walking traces of
// duration dur, one engine trial per trace.
func walkingLinkTraces(workers, n int, dur float64, seed int64) (fwd, rev []*trace.LinkTrace) {
	traces := engine.Map(workers, 2*n, func(k int) *trace.LinkTrace {
		return mkWalkingTrace(seed+int64(k), dur)
	})
	for i := 0; i < n; i++ {
		fwd = append(fwd, traces[2*i])
		rev = append(rev, traces[2*i+1])
	}
	return fwd, rev
}

// runFig13 reproduces Figure 13: aggregate TCP throughput versus number of
// clients over slow-fading walking channels, for all six algorithms.
func runFig13(o Options) []*Table {
	dur := o.netDuration()
	maxN := 5
	// Average over independent trace sets (the paper's ten walking runs
	// play the same variance-damping role). Stage 1: every trace is an
	// independent generation trial.
	const reps = 3
	allTraces := engine.Map(o.Workers, reps*2*maxN, func(t int) *trace.LinkTrace {
		r, k := t/(2*maxN), t%(2*maxN)
		return mkWalkingTrace(o.Seed+int64(1000*r)+int64(k), dur)
	})
	var fwd, rev [][]*trace.LinkTrace
	for r := 0; r < reps; r++ {
		var f, b []*trace.LinkTrace
		for i := 0; i < maxN; i++ {
			f = append(f, allTraces[r*2*maxN+2*i])
			b = append(b, allTraces[r*2*maxN+2*i+1])
		}
		fwd = append(fwd, f)
		rev = append(rev, b)
	}

	out := &Table{
		ID:     "fig13",
		Title:  "Aggregate TCP throughput (Mbps) vs number of clients, slow-fading mobile channel",
		Header: []string{"algorithm", "N=1", "N=2", "N=3", "N=4", "N=5"},
	}
	// Stage 2: one trial per (algorithm, client count, repetition); the
	// traces are shared read-only across trials.
	algs := netsim.Algorithms()
	type runKey struct{ a, n, r int }
	var keys []runKey
	for a := range algs {
		for n := 1; n <= maxN; n++ {
			for r := 0; r < reps; r++ {
				keys = append(keys, runKey{a, n, r})
			}
		}
	}
	bps := engine.Map(o.Workers, len(keys), func(i int) float64 {
		k := keys[i]
		cfg := netsim.DefaultConfig()
		cfg.Duration = dur
		cfg.Seed = o.Seed + int64(k.n+10*k.r)
		return netsim.RunUplink(cfg, fwd[k.r][:k.n], rev[k.r][:k.n], algs[k.a].Factory).AggregateBps
	})
	results := map[string][]float64{}
	for ai, alg := range algs {
		row := []string{alg.Name}
		for n := 1; n <= maxN; n++ {
			var sum float64
			for r := 0; r < reps; r++ {
				sum += bps[(ai*maxN+(n-1))*reps+r]
			}
			meanBps := sum / reps
			row = append(row, fmtMbps(meanBps))
			results[alg.Name] = append(results[alg.Name], meanBps)
		}
		out.AddRow(row...)
	}

	// Shape checks from §6.2.
	soft := mean(results["SoftRate"])
	out.AddNote("SoftRate/omniscient ratio (mean over N): %.2f (paper: SoftRate comes closest to omniscient)",
		soft/mean(results["Omniscient"]))
	out.AddNote("SoftRate/SNR-trained: %.2fx (paper: up to ~1.2x)", soft/mean(results["SNR (trained)"]))
	out.AddNote("SoftRate/RRAA: %.2fx (paper: up to ~2x)", soft/mean(results["RRAA"]))
	out.AddNote("SoftRate/SampleRate: %.2fx (paper: up to ~4x)", soft/mean(results["SampleRate"]))
	return []*Table{out}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// runFig14 reproduces Figure 14: rate-selection accuracy with one TCP flow
// in the mobile slow-fading channel — the fraction of frames sent above,
// at, and below the highest bit rate that would have succeeded.
func runFig14(o Options) []*Table {
	dur := o.netDuration()
	fwd, rev := walkingLinkTraces(o.Workers, 1, dur, o.Seed+9000)
	out := &Table{
		ID:     "fig14",
		Title:  "Rate selection accuracy, one TCP flow, slow-fading mobile channel",
		Header: []string{"algorithm", "underselect", "accurate", "overselect"},
	}
	type acc struct{ under, ok, over float64 }
	// One trial per algorithm; Omniscient is skipped (trivially accurate).
	var algs []netsim.Algorithm
	for _, alg := range netsim.Algorithms() {
		if alg.Name != "Omniscient" {
			algs = append(algs, alg)
		}
	}
	counts := engine.Map(o.Workers, len(algs), func(i int) [3]int {
		cfg := netsim.DefaultConfig()
		cfg.Duration = dur
		cfg.Seed = o.Seed + 17
		cfg.RecordTx = true
		res := netsim.RunUplink(cfg, fwd, rev, algs[i].Factory)
		var c [3]int
		for _, r := range res.ClientStats[0].Records {
			switch {
			case r.RateIndex < r.OracleIndex:
				c[0]++
			case r.RateIndex == r.OracleIndex:
				c[1]++
			default:
				c[2]++
			}
		}
		return c
	})
	accs := map[string]acc{}
	for i, alg := range algs {
		under, ok, over := counts[i][0], counts[i][1], counts[i][2]
		total := float64(under + ok + over)
		if total == 0 {
			continue
		}
		a := acc{float64(under) / total, float64(ok) / total, float64(over) / total}
		accs[alg.Name] = a
		out.AddRow(alg.Name, fmtPct(a.under), fmtPct(a.ok), fmtPct(a.over))
	}
	if a, found := accs["SoftRate"]; found {
		out.AddNote("SoftRate accurate fraction: %s (paper: over 80%%)", fmtPct(a.ok))
	}
	return []*Table{out}
}
