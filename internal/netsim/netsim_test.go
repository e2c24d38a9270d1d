package netsim

import (
	"math"
	"math/rand"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/ratectl"
	"softrate/internal/tcpsim"
	"softrate/internal/trace"
)

// genTraces builds n independent walking-style traces (and reverse links).
func genTraces(n int, meanSNR float64, doppler float64, dur float64, seed int64) (fwd, rev []*trace.LinkTrace) {
	for i := 0; i < n; i++ {
		mk := func(s int64) *trace.LinkTrace {
			rng := rand.New(rand.NewSource(s))
			var fading *channel.Rayleigh
			if doppler > 0 {
				fading = channel.NewRayleigh(rng, doppler, 0)
			}
			return trace.Generate(trace.GenConfig{
				Model:    channel.NewStaticModel(meanSNR, fading),
				Duration: dur,
				Seed:     s + 1000,
			})
		}
		fwd = append(fwd, mk(seed+int64(2*i)))
		rev = append(rev, mk(seed+int64(2*i+1)))
	}
	return fwd, rev
}

func fixedFactory(idx int) AdapterFactory {
	return func(*trace.LinkTrace, *rand.Rand) ratectl.Adapter {
		return &ratectl.Fixed{Index: idx}
	}
}

func TestSingleFlowStaticChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 5
	fwd, rev := genTraces(1, 25, 0, 3, 1)
	res := RunUplink(cfg, fwd, rev, SoftRate)
	// A clean 25 dB channel supports 36 Mbps wireless; TCP goodput after
	// MAC overheads should land well above 5 Mbps.
	if res.AggregateBps < 5e6 {
		t.Fatalf("aggregate %.2f Mbps on a clean static channel", res.AggregateBps/1e6)
	}
	if res.Flows[0].Timeouts > 3 {
		t.Fatalf("%d TCP timeouts on a clean channel", res.Flows[0].Timeouts)
	}
}

func TestSoftRateBeatsBadFixedRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 5
	fwd, rev := genTraces(1, 14, 40, 5, 7)
	soft := RunUplink(cfg, fwd, rev, SoftRate)
	tooFast := RunUplink(cfg, fwd, rev, fixedFactory(5)) // QAM16 3/4 at 14 dB mean + fading: mostly losses
	if soft.AggregateBps <= tooFast.AggregateBps {
		t.Fatalf("SoftRate %.2f Mbps not above overdriven fixed rate %.2f",
			soft.AggregateBps/1e6, tooFast.AggregateBps/1e6)
	}
}

func TestMoreClientsShareTheMedium(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 4
	f1, r1 := genTraces(1, 25, 0, 2, 11)
	one := RunUplink(cfg, f1, r1, SoftRate)
	f3, r3 := genTraces(3, 25, 0, 2, 11)
	three := RunUplink(cfg, f3, r3, SoftRate)
	// Aggregate should not degrade much; per-flow must drop.
	if three.AggregateBps < one.AggregateBps*0.5 {
		t.Fatalf("aggregate collapsed with 3 clients: %.2f vs %.2f Mbps",
			three.AggregateBps/1e6, one.AggregateBps/1e6)
	}
	perFlow := three.Flows[0].ThroughputBps
	if perFlow > one.AggregateBps {
		t.Fatalf("one of three flows out-throughputs a solo flow")
	}
}

func TestHiddenTerminalsHurt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 4
	fwd, rev := genTraces(3, 25, 0, 2, 21)
	cfg.CSProb = 1
	good := RunUplink(cfg, fwd, rev, SoftRate)
	cfg.CSProb = 0
	bad := RunUplink(cfg, fwd, rev, SoftRate)
	if bad.AggregateBps >= good.AggregateBps {
		t.Fatalf("hidden terminals did not reduce throughput: %.2f vs %.2f Mbps",
			bad.AggregateBps/1e6, good.AggregateBps/1e6)
	}
}

func TestRecordTx(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2
	cfg.RecordTx = true
	fwd, rev := genTraces(1, 20, 40, 2, 31)
	res := RunUplink(cfg, fwd, rev, SoftRate)
	if len(res.ClientStats[0].Records) == 0 {
		t.Fatal("no transmission records collected")
	}
	for _, r := range res.ClientStats[0].Records {
		if r.RateIndex < 0 || r.RateIndex >= 6 {
			t.Fatalf("bad rate index %d in record", r.RateIndex)
		}
		if r.OracleIndex < 0 || r.OracleIndex >= 6 {
			t.Fatalf("bad oracle index %d", r.OracleIndex)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2
	fwd, rev := genTraces(2, 18, 40, 2, 41)
	a := RunUplink(cfg, fwd, rev, SoftRate)
	b := RunUplink(cfg, fwd, rev, SoftRate)
	if math.Abs(a.AggregateBps-b.AggregateBps) > 1e-9 {
		t.Fatalf("non-deterministic: %.0f vs %.0f bps", a.AggregateBps, b.AggregateBps)
	}
}

func TestMismatchedTracesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on trace count mismatch")
		}
	}()
	fwd, _ := genTraces(2, 20, 0, 1, 51)
	RunUplink(DefaultConfig(), fwd, nil, SoftRate)
}

// TestAllocsPerSegment pins what a delivered TCP segment costs the heap:
// segments ride the MAC by slab handle and cross the wired link in a
// typed FIFO whose events are bound once, and the RTO is one resettable
// timer per flow. Hidden terminals add collisions, retries, MAC drops and
// TCP timeouts. Run set-up cancels out of the difference between a short
// and a long run; what is left is the receivers' out-of-order maps and the
// slab's and queues' growth to their working depth.
func TestAllocsPerSegment(t *testing.T) {
	fwd, rev := genTraces(5, 20, 0, 4, 61)
	run := func(dur float64) (allocs float64, segs int64) {
		cfg := DefaultConfig()
		cfg.Duration = dur
		cfg.CSProb = 0.5 // hidden terminals: collisions, retries, drops
		var res Result
		allocs = testing.AllocsPerRun(2, func() { res = RunUplink(cfg, fwd, rev, SoftRate) })
		for _, f := range res.Flows {
			segs += f.BytesDelivered / tcpsim.MSS
		}
		return allocs, segs
	}
	a1, s1 := run(1)
	a2, s2 := run(4)
	perSeg := (a2 - a1) / float64(s2-s1)
	t.Logf("%.4f allocations per delivered segment (%d segments)", perSeg, s2-s1)
	if perSeg > 0.05 {
		t.Fatalf("%.4f allocations per delivered segment, want at most 0.05", perSeg)
	}
}
