package experiments

import (
	"fmt"
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/experiments/engine"
	"softrate/internal/netsim"
	"softrate/internal/rate"
	"softrate/internal/ratectl"
	"softrate/internal/trace"
)

func init() {
	register("fig16", runFig16)
}

// fastFadingTraces builds forward/reverse traces for a given channel
// coherence time at a fixed mean SNR (Table 4, "Simulation": Doppler
// varied from 40 Hz to 4 kHz).
func fastFadingTraces(coherence float64, dur float64, seed int64) (fwd, rev *trace.LinkTrace) {
	fd := channel.DopplerForCoherence(coherence)
	mk := func(s int64) *trace.LinkTrace {
		rng := rand.New(rand.NewSource(s))
		model := channel.NewStaticModel(18, channel.NewRayleigh(rng, fd, 0))
		return trace.Generate(trace.GenConfig{Model: model, Duration: dur, Seed: s + 900})
	}
	return mk(seed), mk(seed + 1)
}

// runFig16 reproduces Figure 16: TCP throughput normalized by the
// omniscient algorithm in simulated fast-fading channels, as the channel
// coherence time shrinks from 1 ms to 100 µs. The SNR-based protocol is
// trained on *walking* traces (40 Hz), so its thresholds are wrong at
// vehicular speeds — the paper's central retraining argument.
func runFig16(o Options) []*Table {
	dur := o.netDuration()
	// Train the SNR protocol on a walking-speed channel, as in §6.3.
	walkFwd, _ := walkingLinkTraces(o.Workers, 1, dur, o.Seed+333)
	walkTrained := ratectl.TrainThresholds(walkFwd[0].TrainingSamples(), walkFwd[0].NumRates(), 0.9)

	out := &Table{
		ID:     "fig16",
		Title:  "Normalized TCP throughput vs channel coherence time (fast fading)",
		Header: []string{"coherence", "SoftRate", "SNR (untrained)", "RRAA", "SampleRate"},
	}
	coherences := []float64{1e-3, 500e-6, 200e-6, 100e-6}
	// Average over independent trace pairs to damp TCP variance. Stage 1:
	// one generation trial per (coherence, repetition) trace pair.
	const reps = 2
	pairSets := engine.Map(o.Workers, len(coherences)*reps, func(t int) [2]*trace.LinkTrace {
		tc, r := coherences[t/reps], t%reps
		f, b := fastFadingTraces(tc, dur, o.Seed+int64(tc*1e7)+int64(777*r))
		return [2]*trace.LinkTrace{f, b}
	})
	// SNR trained on walking traces and RRAA without adaptive RTS are this
	// figure's own configurations, so only three entries come from netsim.
	rates, lossless := rate.Evaluation(), ratectl.NominalAirtimes()
	algs := []netsim.AdapterFactory{
		netsim.Omniscient,
		netsim.SoftRate,
		func(*trace.LinkTrace, *rand.Rand) ratectl.Adapter {
			return ratectl.NewSNRBased(walkTrained, "SNR (untrained)")
		},
		func(*trace.LinkTrace, *rand.Rand) ratectl.Adapter {
			return ratectl.NewRRAA(rates, lossless, false)
		},
		netsim.SampleRate,
	}
	// Stage 2: one trial per (coherence, algorithm), each averaging its
	// repetitions in order so float accumulation is stable.
	means := engine.Map(o.Workers, len(coherences)*len(algs), func(t int) float64 {
		ci, ai := t/len(algs), t%len(algs)
		var sum float64
		for r := 0; r < reps; r++ {
			cfg := netsim.DefaultConfig()
			cfg.Duration = dur
			cfg.Seed = o.Seed + 71 + int64(r)
			pair := pairSets[ci*reps+r]
			res := netsim.RunUplink(cfg, []*trace.LinkTrace{pair[0]}, []*trace.LinkTrace{pair[1]}, algs[ai])
			sum += res.AggregateBps
		}
		return sum / reps
	})
	worstSNRGap := 1.0
	for ci, tc := range coherences {
		at := func(ai int) float64 { return means[ci*len(algs)+ai] }
		omni, soft, snr, rraa, srate := at(0), at(1), at(2), at(3), at(4)
		norm := func(x float64) string {
			if omni <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", x/omni)
		}
		out.AddRow(fmtCoherence(tc), norm(soft), norm(snr), norm(rraa), norm(srate))
		if omni > 0 && tc <= 200e-6 {
			gap := (snr / omni) / (soft / omni)
			if gap < worstSNRGap {
				worstSNRGap = gap
			}
		}
	}
	out.AddNote("SoftRate holds its normalized throughput as coherence shrinks without retraining (§6.3)")
	out.AddNote("untrained SNR / SoftRate at <=200 us coherence: %.2f (paper: SoftRate gains ~4x at 100 us)", worstSNRGap)
	return []*Table{out}
}

func fmtCoherence(tc float64) string {
	if tc >= 1e-3 {
		return fmt.Sprintf("%.0f ms", tc*1e3)
	}
	return fmt.Sprintf("%.0f us", tc*1e6)
}
