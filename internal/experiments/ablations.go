package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/coding"
	"softrate/internal/core"
	"softrate/internal/experiments/engine"
	"softrate/internal/netsim"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/ratectl"
	"softrate/internal/softphy"
	"softrate/internal/trace"
)

func init() {
	register("ablation-decoder", runAblationDecoder)
	register("ablation-excision", runAblationExcision)
	register("ablation-jumps", runAblationJumps)
	register("ablation-harq", runAblationHARQ)
	register("ablation-silent", runAblationSilent)
}

// runAblationDecoder compares exact log-MAP against max-log BCJR as the
// source of SoftPHY hints: max-log is ~2.5x faster but its hints are
// optimistic, biasing the BER estimate low.
func runAblationDecoder(o Options) []*Table {
	out := &Table{
		ID:     "ablation-decoder",
		Title:  "BER estimation quality: exact log-MAP vs max-log BCJR hints",
		Header: []string{"decoder", "mean est/true ratio", "frames"},
	}
	modes := []struct {
		name string
		m    coding.BCJRMode
	}{{"log-MAP", coding.LogMAP}, {"max-log", coding.MaxLog}}
	// One trial per decoder mode.
	type decRes struct {
		gm float64
		n  int
	}
	res := engine.MapWith(o.Workers, len(modes), phy.NewWorkspace, func(ws *phy.Workspace, i int) decRes {
		cfg := phy.DefaultConfig()
		cfg.Decoder = modes[i].m
		link := &phy.Link{
			Cfg:   cfg,
			Model: channel.NewStaticModel(6.2, nil),
			Rng:   rand.New(rand.NewSource(o.Seed + 5)),
			WS:    ws,
		}
		rng := rand.New(rand.NewSource(o.Seed + 6))
		payload := make([]byte, 300)
		var ratios []float64
		for f := 0; f < o.scaled(60); f++ {
			rng.Read(payload)
			tx := phy.TransmitWS(ws, cfg, phy.Frame{Header: []byte{1}, Payload: payload, Rate: rate.ByIndex(3)})
			rx := link.Deliver(tx, float64(f), nil)
			if !rx.Detected || rx.BitErrors < 10 {
				continue
			}
			ratios = append(ratios, softphy.FrameBER(rx.Hints)/rx.TrueBER)
		}
		var gm float64
		for _, r := range ratios {
			gm += math.Log(r)
		}
		if len(ratios) > 0 {
			gm = math.Exp(gm / float64(len(ratios)))
		}
		return decRes{gm, len(ratios)}
	})
	for i, mode := range modes {
		out.AddRow(mode.name, fmt.Sprintf("%.2f", res[i].gm), fmt.Sprintf("%d", res[i].n))
	}
	out.AddNote("a ratio near 1.0 means calibrated hints; max-log typically under-reports BER")
	return []*Table{out}
}

// runAblationExcision measures what happens when SoftRate's interference
// excision is disabled in an interference-dominated channel: collision
// losses then read as noise losses and drag the rate down.
func runAblationExcision(o Options) []*Table {
	dur := o.netDuration()
	fwd, rev := staticShortRangeTraces(o.Workers, 5, dur, o.Seed+4100)
	out := &Table{
		ID:     "ablation-excision",
		Title:  "SoftRate with and without interference excision, 5 flows, Pr[CS]=0.2",
		Header: []string{"variant", "aggregate Mbps"},
	}
	run := func(detectP float64) float64 {
		cfg := netsim.DefaultConfig()
		cfg.Duration = dur
		cfg.Seed = o.Seed + 91
		cfg.CSProb = 0.2
		cfg.MAC.InterferenceDetectionProb = detectP
		return netsim.RunUplink(cfg, fwd, rev, netsim.SoftRate).AggregateBps
	}
	// Two trials: detector on at the measured 80% accuracy, detector off
	// (every collision reads as noise).
	detectPs := []float64{0.8, 0.0}
	bps := engine.Map(o.Workers, len(detectPs), func(i int) float64 { return run(detectPs[i]) })
	with, without := bps[0], bps[1]
	out.AddRow("excision on (80% detection)", fmtMbps(with))
	out.AddRow("excision off", fmtMbps(without))
	out.AddNote("gain from excision: %.2fx — without it SoftRate inherits RRAA's collision pathology", with/math.Max(without, 1))
	return []*Table{out}
}

// runAblationJumps compares 1-level and 2-level rate jumps on convergence
// through a deep SNR step.
func runAblationJumps(o Options) []*Table {
	out := &Table{
		ID:     "ablation-jumps",
		Title:  "Feedback rounds to converge across a deep channel step (rate 5 -> optimal 1 and back)",
		Header: []string{"MaxJump", "down rounds", "up rounds"},
	}
	jumps := []int{1, 2}
	rows := engine.Map(o.Workers, len(jumps), func(i int) [2]int {
		mj := jumps[i]
		cfg := core.DefaultConfig()
		cfg.MaxJump = mj
		// Channel A: optimal rate 1; channel B: optimal rate 5. BER
		// ladder at factor 100 per step around the optimum.
		berAt := func(optimal, i int) float64 {
			b := 1e-6 * math.Pow(100, float64(i-optimal))
			if b > 0.3 {
				b = 0.3
			}
			return b
		}
		countRounds := func(s *core.SoftRate, optimal int) int {
			rounds := 0
			for s.CurrentIndex() != optimal && rounds < 50 {
				s.OnFeedback(core.Feedback{RateIndex: s.CurrentIndex(), BER: berAt(optimal, s.CurrentIndex())})
				rounds++
			}
			return rounds
		}
		s := core.New(cfg)
		// Drive to rate 5 first.
		countRounds(s, 5)
		down := countRounds(s, 1)
		up := countRounds(s, 5)
		return [2]int{down, up}
	})
	for i, mj := range jumps {
		out.AddRow(fmt.Sprintf("%d", mj), fmt.Sprintf("%d", rows[i][0]), fmt.Sprintf("%d", rows[i][1]))
	}
	out.AddNote("2-level jumps halve the traversal cost of deep fades — the paper's implementation does up to two")
	return []*Table{out}
}

// runAblationHARQ shows how the optimal thresholds move under a hybrid-ARQ
// error recovery model (§3.3's modularity argument).
func runAblationHARQ(o Options) []*Table {
	out := &Table{
		ID:     "ablation-harq",
		Title:  "Optimal BER thresholds (alpha, beta) per rate: frame ARQ vs hybrid ARQ (10000-bit frames)",
		Header: []string{"rate", "frame-ARQ alpha", "frame-ARQ beta", "H-ARQ alpha", "H-ARQ beta"},
	}
	mk := func(rec core.ErrorRecovery) *core.SoftRate {
		cfg := core.DefaultConfig()
		cfg.FrameBits = 10000
		cfg.Recovery = rec
		return core.New(cfg)
	}
	// One trial per recovery model (each owns its SoftRate instance).
	rates := rate.Evaluation()
	recoveries := []core.ErrorRecovery{core.FrameARQ{}, core.HybridARQ{}}
	thresholds := engine.Map(o.Workers, len(recoveries), func(i int) [][2]float64 {
		s := mk(recoveries[i])
		th := make([][2]float64, len(rates))
		for ri := range rates {
			a, b := s.Thresholds(ri)
			th[ri] = [2]float64{a, b}
		}
		return th
	})
	for ri, r := range rates {
		fa, fb := thresholds[0][ri][0], thresholds[0][ri][1]
		ha, hb := thresholds[1][ri][0], thresholds[1][ri][1]
		out.AddRow(r.Name(), fmtBER(fa), fmtBER(fb), fmtBER(ha), fmtBER(hb))
	}
	out.AddNote("H-ARQ tolerates ~100x higher BER before stepping down: rate adaptation decouples from error recovery by recomputing thresholds only")
	return []*Table{out}
}

// runAblationSilent sweeps the silent-loss run threshold: too small and
// collisions masquerade as weak signal (spurious rate drops), too large
// and genuine signal loss lingers at a dead rate.
func runAblationSilent(o Options) []*Table {
	dur := o.netDuration()
	out := &Table{
		ID:     "ablation-silent",
		Title:  "Silent-loss run threshold sweep (5 hidden-terminal flows, Pr[CS]=0.5, no postambles)",
		Header: []string{"threshold", "aggregate Mbps"},
	}
	fwd, rev := staticShortRangeTraces(o.Workers, 5, dur, o.Seed+5100)
	// One trial per threshold value.
	thresholds := []int{1, 2, 3, 5}
	bps := engine.Map(o.Workers, len(thresholds), func(i int) float64 {
		run := thresholds[i]
		cfg := netsim.DefaultConfig()
		cfg.Duration = dur
		cfg.Seed = o.Seed + 93
		cfg.CSProb = 0.5
		res := netsim.RunUplink(cfg, fwd, rev, func(*trace.LinkTrace, *rand.Rand) ratectl.Adapter {
			c := core.DefaultConfig()
			c.SilentLossRun = run
			return ratectl.NewSoftRate(c)
		})
		return res.AggregateBps
	})
	for i, run := range thresholds {
		out.AddRow(fmt.Sprintf("%d", run), fmtMbps(bps[i]))
	}
	out.AddNote("the paper picks 3 from the Figure 4 run-length analysis; thresholds of 1 overreact to collision-induced silence")
	return []*Table{out}
}
