package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/ofdm"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/vmath"
)

// referenceGenerate is Generate as it stood before the channel sweep was
// shared across rates: every rate re-samples the fading process and
// consumes the generator as it goes. It is the specification Generate is
// pinned to, bit for bit.
func referenceGenerate(gc GenConfig, rates []rate.Rate, interval float64) *LinkTrace {
	gc.fill()
	rng := rand.New(rand.NewSource(gc.Seed))
	nSlots := int(gc.Duration / interval)
	lt := &LinkTrace{
		Interval:  interval,
		FrameBits: (gc.PayloadBytes + 4) * 8,
	}
	T := ofdm.Simulation.SymbolTime()
	effJitter := make([]float64, nSlots)
	for s := range effJitter {
		effJitter[s] = rng.NormFloat64() * effJitterDB
	}
	for ri, r := range rates {
		snaps := make([]Snapshot, nSlots)
		num, den := r.Code.Fraction()
		nSym := ofdm.Simulation.DataSymbols((lt.FrameBits+6)*den/num, r.Scheme)
		bitsPerSym := float64(ofdm.Simulation.InfoBitsPerSymbol(r))
		for s := 0; s < nSlots; s++ {
			t0 := float64(s) * interval
			preSNR := referenceSampleSNR(gc.Model, t0, T, ofdm.PreambleSymbols)
			dataSNR := referenceSampleSNR(gc.Model, t0+float64(ofdm.PreambleSymbols)*T, T, nSym)
			for j := range dataSNR {
				dataSNR[j] += effJitter[s]
			}
			var preLin float64
			for _, s := range preSNR {
				preLin += channel.DBToLinear(s)
			}
			preLin /= float64(len(preSNR))
			detected := preLin >= phy.DetectSINR

			ber, _ := gc.BERModel.FrameOver(ri, gc.BERModel.Locate(nil, dataSNR), len(dataSNR), 0)
			ber *= math.Exp(rng.NormFloat64() * berJitter)
			if ber > 0.5 {
				ber = 0.5
			}
			dp := gc.BERModel.DeliverProb(ri, dataSNR, bitsPerSym)
			if !detected {
				dp = 0
			}
			snaps[s] = Snapshot{
				Detected:    detected,
				Delivered:   detected && rng.Float64() < dp,
				DeliverProb: dp,
				BER:         ber,
				SNRdB:       channel.LinearToDB(preLin) + rng.NormFloat64()*snrNoiseDB,
			}
		}
		lt.Snapshots = append(lt.Snapshots, snaps)
	}
	return lt
}

func referenceSampleSNR(m *channel.Model, t0, T float64, n int) []float64 {
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		out[j] = channel.LinearToDB(m.SNR(t0 + (float64(j)+0.5)*T))
	}
	return out
}

// genChannels names the channel shapes the equivalence and benchmark
// cases share; mkChannel builds a fresh model of one, so no state leaks
// between cases.
var genChannels = []string{"walking", "static", "static-5dB", "lowfade", "fastfade", "above-grid"}

func mkChannel(name string, seed int64) *channel.Model {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "walking":
		return channel.NewWalkingModel(rng,
			channel.LinearTrajectory{StartDist: 2, Speed: 1.2},
			channel.PathLoss{RefSNRdB: 26, RefDist: 1, Exponent: 2.2})
	case "static":
		return channel.NewStaticModel(16, nil)
	case "static-5dB":
		// Below the detection threshold: no slot takes the delivery draw.
		return channel.NewStaticModel(-5, nil)
	case "lowfade":
		// Fades across the detection threshold, so which slots take the
		// delivery draw depends on the channel.
		return channel.NewStaticModel(1, channel.NewRayleigh(rng, 40, 0))
	case "fastfade":
		return channel.NewStaticModel(18, channel.NewRayleigh(rng, 400, 0))
	case "above-grid":
		// Beyond the 30 dB end of the calibration grid: extrapolation.
		return channel.NewStaticModel(35, nil)
	}
	panic("unknown channel " + name)
}

func requireSameTrace(t *testing.T, got, want *LinkTrace) {
	t.Helper()
	if got.Interval != want.Interval || got.FrameBits != want.FrameBits || len(got.Snapshots) != len(want.Snapshots) {
		t.Fatalf("header: got (%v, %d, %d rates), want (%v, %d, %d rates)",
			got.Interval, got.FrameBits, len(got.Snapshots), want.Interval, want.FrameBits, len(want.Snapshots))
	}
	bits := math.Float64bits
	for ri := range want.Snapshots {
		if len(got.Snapshots[ri]) != len(want.Snapshots[ri]) {
			t.Fatalf("rate %d: %d slots, want %d", ri, len(got.Snapshots[ri]), len(want.Snapshots[ri]))
		}
		for s, w := range want.Snapshots[ri] {
			g := got.Snapshots[ri][s]
			if g.Detected != w.Detected || g.Delivered != w.Delivered ||
				bits(g.DeliverProb) != bits(w.DeliverProb) || bits(g.BER) != bits(w.BER) || bits(g.SNRdB) != bits(w.SNRdB) {
				t.Fatalf("rate %d slot %d: got %+v, want %+v", ri, s, g, w)
			}
		}
	}
}

// TestGenerateMatchesReference pins the one-sweep-per-slot Generate to
// the per-rate reference on every Snapshot field.
func TestGenerateMatchesReference(t *testing.T) {
	eval := rate.Evaluation()
	rateSets := []struct {
		name  string
		rates []rate.Rate
	}{
		{"six", eval},
		// The longer frame second, so the shared sweep is not sized by
		// the first rate.
		{"two", []rate.Rate{eval[3], eval[0]}},
	}
	detected := map[bool]int{}
	for _, ch := range genChannels {
		for seed := int64(1); seed <= 3; seed++ {
			for _, payload := range []int{0, 250} {
				for _, rs := range rateSets {
					for _, interval := range []float64{1e-3, 0.5e-3} {
						name := fmt.Sprintf("%s/seed%d/payload%d/%s/%gms", ch, seed, payload, rs.name, interval*1e3)
						t.Run(name, func(t *testing.T) {
							mk := func() GenConfig {
								return GenConfig{
									Model:        mkChannel(ch, seed),
									Duration:     0.06,
									PayloadBytes: payload,
									Seed:         seed + 100,
								}
							}
							want := referenceGenerate(mk(), rs.rates, interval)
							requireSameTrace(t, generate(mk(), rs.rates, interval), want)
							if ch == "lowfade" {
								for _, sn := range want.Snapshots[0] {
									detected[sn.Detected]++
								}
							}
						})
					}
				}
			}
		}
	}
	if detected[true] == 0 || detected[false] == 0 {
		t.Fatalf("lowfade slots detected/undetected %d/%d: the conditional delivery draw was not mixed within a trace",
			detected[true], detected[false])
	}
}

// TestGenerateConcurrentFirstUse runs Generate from eight goroutines at
// once on a calibration nobody has queried yet — the default's rows under
// a fresh model, so the case is cold wherever it runs in the package — and
// the calls race to build its interpolation tables. CI runs it under
// -race.
func TestGenerateConcurrentFirstUse(t *testing.T) {
	d := phy.DefaultBERModel
	cold := &phy.BERModel{SNRdB: d.SNRdB, BER: d.BER, Lambda: d.Lambda}
	out := make([]*LinkTrace, 8)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = Generate(GenConfig{Model: mkChannel("walking", 1), BERModel: cold, Duration: 0.05, Seed: 2})
		}()
	}
	wg.Wait()
	want := Generate(GenConfig{Model: mkChannel("walking", 1), Duration: 0.05, Seed: 2})
	for _, lt := range out {
		requireSameTrace(t, lt, want)
	}
}

// TestGenerateAllocations pins that Generate's allocation count depends
// on the number of rates, never on the number of slots.
func TestGenerateAllocations(t *testing.T) {
	for _, dur := range []float64{0.02, 0.2} {
		model := mkChannel("walking", 1)
		allocs := testing.AllocsPerRun(3, func() {
			Generate(GenConfig{Model: model, Duration: dur, Seed: 2})
		})
		if allocs > 32 {
			t.Errorf("%v s trace: %v allocations, want <= 32", dur, allocs)
		}
	}
}

// TestGenerateSameAtEveryKernelLevel generates every genChannels case
// with vmath's kernels off and at each level the host runs, and requires
// the same trace.
func TestGenerateSameAtEveryKernelLevel(t *testing.T) {
	prev := vmath.SetLevel(vmath.Scalar)
	defer vmath.SetLevel(prev)
	mk := func(ch string) GenConfig {
		return GenConfig{Model: mkChannel(ch, 1), Duration: 0.1, PayloadBytes: 250, Seed: 4}
	}
	for _, ch := range genChannels {
		vmath.SetLevel(vmath.Scalar)
		want := Generate(mk(ch))
		for l := vmath.AVX2; l <= vmath.Host; l++ {
			vmath.SetLevel(l)
			t.Run(fmt.Sprintf("%s/level%d", ch, l), func(t *testing.T) {
				requireSameTrace(t, Generate(mk(ch)), want)
			})
		}
	}
}

// TestGenerateRejectsDurationUnderOneSlot: a trace shorter than one slot
// has no slot to replay, so Generate refuses it up front, naming both
// values, instead of returning a trace whose first lookup divides by zero.
func TestGenerateRejectsDurationUnderOneSlot(t *testing.T) {
	for _, c := range []struct{ duration, interval float64 }{
		{0.0005, DefaultInterval},
		{0.0015, 0.002},
		{math.NaN(), DefaultInterval},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprint(c.duration)) || !strings.Contains(msg, fmt.Sprint(c.interval)) {
					t.Errorf("Duration %v, Interval %v: panic %q, want one naming both", c.duration, c.interval, msg)
				}
			}()
			gc := GenConfig{Model: channel.NewStaticModel(10, nil), Duration: c.duration}
			if c.interval == DefaultInterval {
				Generate(gc)
			} else {
				generate(gc, rate.Evaluation(), c.interval)
			}
		}()
	}
}

func BenchmarkGenerate(b *testing.B) {
	for _, ch := range []string{"walking", "static", "fastfade"} {
		b.Run(ch, func(b *testing.B) {
			model := mkChannel(ch, 1)
			b.ReportAllocs()
			slots := 0
			for b.Loop() {
				slots += len(Generate(GenConfig{Model: model, Duration: 2, Seed: 2}).Snapshots[0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
		})
	}
}
