package netsim_test

import (
	"fmt"
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/netsim"
	"softrate/internal/rate"
	"softrate/internal/trace"
)

// The paper's motivating scenario (§6.2): a user walks away from the
// access point while uploading over TCP. One Table 4 walking trace per
// direction, then the full stack — TCP over CSMA/CA over the trace-driven
// PHY — once per §6.1 algorithm, with rate-selection accuracy measured
// against the trace's own best rate. One short walk is one sample, and its
// goodput is bimodal: over other simulator seeds even the oracle reads
// anywhere from 1.3 to 5.8 Mbps, depending on whether TCP stalls. Figure
// 13 averages many runs for that reason. The accuracy columns are
// steadier: RRAA underselects nine frames in ten.
func ExampleAlgorithms() {
	const duration = 2.0
	mk := func(seed int64) *trace.LinkTrace {
		model := channel.NewTable4Walking(rand.New(rand.NewSource(seed)))
		return trace.Generate(trace.GenConfig{Model: model, Duration: duration, Seed: seed + 7})
	}
	fwd, rev := []*trace.LinkTrace{mk(1)}, []*trace.LinkTrace{mk(2)}

	fmt.Println("algorithm      goodput    TCP retx  timeouts  under/accurate/over")
	for _, alg := range netsim.Algorithms() {
		cfg := netsim.DefaultConfig()
		cfg.Duration = duration
		cfg.RecordTx = true
		cfg.Seed = 99
		res := netsim.RunUplink(cfg, fwd, rev, alg.Factory)
		var n [3]int // under, accurate, over
		for _, r := range res.ClientStats[0].Records {
			switch {
			case r.RateIndex < r.OracleIndex:
				n[0]++
			case r.RateIndex == r.OracleIndex:
				n[1]++
			default:
				n[2]++
			}
		}
		total := float64(n[0] + n[1] + n[2])
		fmt.Printf("%-13s  %5.2f Mbps  %6d  %8d  %5.1f%% / %5.1f%% / %5.1f%%\n",
			alg.Name, res.AggregateBps/1e6, res.Flows[0].Retransmits, res.Flows[0].Timeouts,
			100*float64(n[0])/total, 100*float64(n[1])/total, 100*float64(n[2])/total)
	}
	// Output:
	// algorithm      goodput    TCP retx  timeouts  under/accurate/over
	// Omniscient      5.45 Mbps      45         1    0.0% / 100.0% /   0.0%
	// SoftRate        1.02 Mbps      54         1   10.6% /  75.0% /  14.3%
	// SNR (trained)   5.08 Mbps      56         1    8.9% /  76.0% /  15.2%
	// CHARM           1.89 Mbps      36         2    9.3% /  73.1% /  17.6%
	// RRAA            1.52 Mbps      14         3   90.6% /   8.9% /   0.5%
	// SampleRate      0.73 Mbps      34         2    1.4% /  76.7% /  21.9%
}

// Two hidden terminals upload through one access point (§6.4). Every
// loss they see is a collision, not attenuation, so the right response is
// to keep the rate and let backoff resolve contention. SoftRate's
// receiver excises interference from its BER estimate; RRAA reacts to
// short-term frame loss and spirals down.
func ExampleRunUplink_hiddenTerminals() {
	const duration = 2.0
	mk := func(seed int64) *trace.LinkTrace {
		return trace.Generate(trace.GenConfig{Model: channel.NewStaticModel(20, nil), Duration: duration, Seed: seed})
	}
	fwd := []*trace.LinkTrace{mk(11), mk(12)}
	rev := []*trace.LinkTrace{mk(13), mk(14)}

	for _, alg := range []netsim.Algorithm{{Name: "SoftRate", Factory: netsim.SoftRate}, {Name: "RRAA", Factory: netsim.RRAA}} {
		cfg := netsim.DefaultConfig()
		cfg.Duration = duration
		cfg.CSProb = 0 // perfect hidden terminals
		cfg.RecordTx = true
		cfg.Seed = 21
		res := netsim.RunUplink(cfg, fwd, rev, alg.Factory)
		var hist [6]int
		total := 0
		for _, st := range res.ClientStats {
			for _, r := range st.Records {
				hist[r.RateIndex]++
				total++
			}
		}
		fmt.Printf("%-8s aggregate %5.2f Mbps, rate usage:", alg.Name, res.AggregateBps/1e6)
		for ri, n := range hist {
			if n > 0 {
				fmt.Printf(" %s=%.1f%%", rate.ByIndex(ri).Name(), 100*float64(n)/float64(total))
			}
		}
		fmt.Println()
	}
	// Output:
	// SoftRate aggregate  5.66 Mbps, rate usage: BPSK 1/2=0.2% BPSK 3/4=0.8% QPSK 1/2=0.2% QPSK 3/4=3.6% QAM16 1/2=0.5% QAM16 3/4=94.7%
	// RRAA     aggregate  1.05 Mbps, rate usage: BPSK 1/2=100.0%
}
