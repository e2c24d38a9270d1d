package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"softrate/internal/ctl"
	"softrate/internal/experiments/engine"
	"softrate/internal/mac"
	"softrate/internal/rate"
	"softrate/internal/ratectl"
	"softrate/internal/sim"
	"softrate/internal/trace"
)

func init() {
	register("fig15", runFig15)
}

// twoStateTrace builds the synthetic channel of Figure 15: the best
// transmit rate alternates between QAM16 3/4 (rate 5, "good") and QAM16
// 1/2 (rate 4, "bad") every period seconds. BERs follow a physically
// shaped ladder around the optimal rate; the rate one step above optimal
// is marginal (≈55% delivery) rather than dead, as in a real channel
// snapshot — which matters, because a 100%-dead rate lets SampleRate's
// consecutive-failure shortcut bypass its window logic entirely.
func twoStateTrace(dur, period float64, seed int64) *trace.LinkTrace {
	rng := rand.New(rand.NewSource(seed))
	interval := 1e-3
	nSlots := int(dur / interval)
	nRates := 6
	snaps := make([][]trace.Snapshot, nRates)
	for ri := 0; ri < nRates; ri++ {
		snaps[ri] = make([]trace.Snapshot, nSlots)
	}
	for s := 0; s < nSlots; s++ {
		t := float64(s) * interval
		good := 5
		if int(t/period)%2 == 1 {
			good = 4
		}
		for ri := 0; ri < nRates; ri++ {
			ber := 1e-6 * math.Pow(100, float64(ri-good))
			if ber > 0.3 {
				ber = 0.3
			}
			var dp float64
			switch {
			case ri <= good:
				dp = 1
			case ri == good+1:
				dp = 0.55
			default:
				dp = 0
			}
			snaps[ri][s] = trace.Snapshot{
				Detected:    true,
				Delivered:   rng.Float64() < dp,
				DeliverProb: dp,
				BER:         ber,
				SNRdB:       20,
			}
		}
	}
	return trace.NewSynthetic(interval, 1400*8, snaps)
}

// rateTimeline runs one saturated UDP station with the given adapter over
// the two-state trace and logs (time, rateIndex) per transmission.
func rateTimeline(adapter ratectl.Adapter, dur float64, seed int64) []mac.TxRecord {
	var eng sim.Engine
	med := mac.NewMedium(&eng, mac.DefaultConfig(), rand.New(rand.NewSource(seed)))
	st := med.NewStation(adapter, twoStateTrace(dur+1, 1.0, seed+50))
	st.RecordTx = true
	var feed func()
	feed = func() {
		for st.QueueLen() < 3 {
			st.Enqueue(mac.Packet{Bytes: 1400})
		}
		if eng.Now() < dur {
			eng.Schedule(1e-3, feed)
		}
	}
	eng.Schedule(0, feed)
	eng.Run(dur)
	return st.Stats.Records
}

// convergenceTime finds how long after the switch at switchT the adapter
// first settles on wantRate (first pick of wantRate that is followed by a
// majority of wantRate picks over the next 10 frames).
func convergenceTime(recs []mac.TxRecord, switchT float64, wantRate int) float64 {
	for i, r := range recs {
		if r.Time < switchT || r.RateIndex != wantRate {
			continue
		}
		hits, n := 0, 0
		for j := i; j < len(recs) && n < 10; j++ {
			n++
			if recs[j].RateIndex == wantRate {
				hits++
			}
		}
		if hits >= 7 {
			return r.Time - switchT
		}
	}
	return math.NaN()
}

// runFig15 reproduces Figure 15: the bit rates chosen by RRAA and
// SampleRate around optimal-rate switches, and their convergence times in
// both directions.
func runFig15(o Options) []*Table {
	dur := 6.0
	// One trial per algorithm timeline; adapters are stateful, so each
	// trial constructs its own. They are bare adapters, not netsim's: a
	// timeline has no netsim rng, so SampleRate is seeded from o.Seed.
	rates, lossless := rate.Evaluation(), ctl.NominalAirtimes()
	timelines := engine.Map(o.Workers, 2, func(i int) []mac.TxRecord {
		if i == 0 {
			return rateTimeline(ratectl.NewRRAA(rates, lossless, false), dur, o.Seed+1)
		}
		return rateTimeline(ratectl.NewSampleRate(rates, lossless, rand.New(rand.NewSource(o.Seed))), dur, o.Seed+2)
	})
	recsR, recsS := timelines[0], timelines[1]

	timeline := &Table{
		ID:     "fig15",
		Title:  "Rates chosen by RRAA and SampleRate on a channel whose optimal rate flips every 1 s (36<->24 Mbps)",
		Header: []string{"t(ms)", "optimal", "RRAA", "SampleRate"},
	}
	sample := func(recs []mac.TxRecord, t float64) string {
		last := "-"
		for _, r := range recs {
			if r.Time > t {
				break
			}
			last = rates[r.RateIndex].Name()
		}
		return last
	}
	for ms := 900; ms <= 2400; ms += 50 {
		t := float64(ms) / 1000
		opt := "QAM16 3/4"
		if int(t)%2 == 1 {
			opt = "QAM16 1/2"
		}
		timeline.AddRow(fmt.Sprintf("%d", ms), opt, sample(recsR, t), sample(recsS, t))
	}

	conv := &Table{
		ID:     "fig15-convergence",
		Title:  "Convergence time after the optimal rate changes",
		Header: []string{"algorithm", "high->low (ms)", "low->high (ms)"},
	}
	fmtConv := func(v float64) string {
		if math.IsNaN(v) {
			return "did not converge"
		}
		return fmt.Sprintf("%.0f", v*1e3)
	}
	// Switches: good->bad at odd seconds (down to QAM16 1/2), bad->good
	// at even seconds. Average over the repeated switches to damp the
	// dependence on where in its decision cycle each algorithm was.
	avgConv := func(recs []mac.TxRecord, switches []float64, want int) float64 {
		var sum float64
		n := 0
		for _, sw := range switches {
			if v := convergenceTime(recs, sw, want); !math.IsNaN(v) && v < 1.0 {
				sum += v
				n++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	down := []float64{1, 3, 5}
	up := []float64{2, 4}
	conv.AddRow("RRAA", fmtConv(avgConv(recsR, down, 4)), fmtConv(avgConv(recsR, up, 5)))
	conv.AddRow("SampleRate", fmtConv(avgConv(recsS, down, 4)), fmtConv(avgConv(recsS, up, 5)))
	conv.AddNote("paper: RRAA 15 ms / 85 ms; SampleRate 600 ms / 650 ms — frame-level schemes converge orders of magnitude slower than per-frame feedback")

	// RRAA instability check (top panel of the paper's Figure 15): count
	// rate flaps while the channel is stable in the "good" state.
	flaps := 0
	var prev = -1
	for _, r := range recsR {
		if r.Time < 2.2 || r.Time > 2.9 {
			continue
		}
		if prev >= 0 && r.RateIndex != prev {
			flaps++
		}
		prev = r.RateIndex
	}
	conv.AddNote("RRAA rate flaps during a stable 700 ms window: %d (paper highlights RRAA's instability at a stable optimum)", flaps)
	return []*Table{timeline, conv}
}
