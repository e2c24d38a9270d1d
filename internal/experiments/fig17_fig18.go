package experiments

import (
	"fmt"

	"softrate/internal/channel"
	"softrate/internal/experiments/engine"
	"softrate/internal/netsim"
	"softrate/internal/trace"
)

func init() {
	register("fig17", runFig17)
	register("fig18", runFig18)
}

// staticShortRangeTraces builds static, high-quality link traces (Table 4,
// "Static (short range)"): using a static channel isolates interference
// effects from mobility adaptation (§6.4). One engine trial per trace.
func staticShortRangeTraces(workers, n int, dur float64, seed int64) (fwd, rev []*trace.LinkTrace) {
	traces := engine.Map(workers, 2*n, func(k int) *trace.LinkTrace {
		return trace.Generate(trace.GenConfig{
			Model:    channel.NewStaticModel(20, nil),
			Duration: dur,
			Seed:     seed + int64(k),
		})
	})
	for i := 0; i < n; i++ {
		fwd = append(fwd, traces[2*i])
		rev = append(rev, traces[2*i+1])
	}
	return fwd, rev
}

// interferenceAlgorithms is the §6.4 algorithm set. SoftRate (Ideal) gets
// postambles and perfect interference detection; present SoftRate detects
// 80% of collisions and has no postambles.
var interferenceAlgorithms = []struct {
	name      string
	postamble bool
	detectP   float64
	factory   netsim.AdapterFactory
}{
	{"SoftRate (Ideal)", true, 1.0, netsim.SoftRate},
	{"SoftRate", false, 0.8, netsim.SoftRate},
	{"RRAA", false, 0.8, netsim.RRAA},
	{"SampleRate", false, 0.8, netsim.SampleRate},
}

// runFig17 reproduces Figure 17: aggregate TCP throughput of five
// uploading clients as the pairwise carrier-sense probability sweeps from
// 0 (all hidden terminals) to 1 (no interference losses).
func runFig17(o Options) []*Table {
	dur := o.netDuration()
	const nClients = 5
	fwd, rev := staticShortRangeTraces(o.Workers, nClients, dur, o.Seed)

	out := &Table{
		ID:     "fig17",
		Title:  "Aggregate TCP throughput (Mbps) of 5 uplink flows vs carrier sense probability",
		Header: []string{"Pr[CS]", "SoftRate (Ideal)", "SoftRate", "RRAA", "SampleRate"},
	}
	// One trial per (carrier-sense probability, algorithm) cell.
	css := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	algs := interferenceAlgorithms
	bps := engine.Map(o.Workers, len(css)*len(algs), func(t int) float64 {
		cs, alg := css[t/len(algs)], algs[t%len(algs)]
		cfg := netsim.DefaultConfig()
		cfg.Duration = dur
		cfg.Seed = o.Seed + int64(cs*100)
		cfg.CSProb = cs
		cfg.MAC.Postamble = alg.postamble
		cfg.MAC.InterferenceDetectionProb = alg.detectP
		return netsim.RunUplink(cfg, fwd, rev, alg.factory).AggregateBps
	})
	results := map[string][]float64{}
	for ci, cs := range css {
		row := []string{fmt.Sprintf("%.1f", cs)}
		for ai, alg := range algs {
			v := bps[ci*len(algs)+ai]
			row = append(row, fmtMbps(v))
			results[alg.name] = append(results[alg.name], v)
		}
		out.AddRow(row...)
	}
	// Shape checks from §6.4: RRAA collapses under hidden terminals;
	// SoftRate and SampleRate stay resilient.
	lowCS := func(name string) float64 { return results[name][0] } // cs = 0
	out.AddNote("at Pr[CS]=0: SoftRate/RRAA = %.2fx (paper: RRAA sees much lower throughput)",
		lowCS("SoftRate")/lowCS("RRAA"))
	out.AddNote("SampleRate is resilient to interference (its long-window metric averages over collisions): SampleRate/RRAA at Pr[CS]=0 = %.2fx",
		lowCS("SampleRate")/lowCS("RRAA"))
	return []*Table{out}
}

// runFig18 reproduces Figure 18: rate-selection accuracy at carrier sense
// probability 0.8.
func runFig18(o Options) []*Table {
	dur := o.netDuration()
	const nClients = 5
	fwd, rev := staticShortRangeTraces(o.Workers, nClients, dur, o.Seed+400)
	out := &Table{
		ID:     "fig18",
		Title:  "Rate selection accuracy (Pr[carrier sense] = 0.8)",
		Header: []string{"algorithm", "underselect", "accurate", "overselect"},
	}
	// One trial per algorithm, counting (under, accurate, over) picks.
	algs := interferenceAlgorithms
	counts := engine.Map(o.Workers, len(algs), func(i int) tally {
		alg := algs[i]
		cfg := netsim.DefaultConfig()
		cfg.Duration = dur
		cfg.Seed = o.Seed + 41
		cfg.CSProb = 0.8
		cfg.RecordTx = true
		cfg.MAC.Postamble = alg.postamble
		cfg.MAC.InterferenceDetectionProb = alg.detectP
		res := netsim.RunUplink(cfg, fwd, rev, alg.factory)
		var c tally
		for _, st := range res.ClientStats {
			c.add(st.Records)
		}
		return c
	})
	for i, alg := range algs {
		c := counts[i]
		under, ok, over, found := c.shares()
		if !found {
			continue
		}
		out.AddRow(alg.name, fmtPct(under), fmtPct(ok), fmtPct(over))
		if alg.name == "RRAA" && under < 0.05 {
			out.AddNote("expected RRAA to underselect under collisions (it lowers rate on interference losses); got %.1f%%",
				100*float64(c.under)/float64(c.under+c.ok+c.over))
		}
	}
	out.AddNote("paper: RRAA frequently underselects because it reduces bit rate in response to collision losses")
	return []*Table{out}
}
