package trace

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/ratectl"
)

func walkingTrace(seed int64, dur float64) *LinkTrace {
	rng := rand.New(rand.NewSource(seed))
	model := channel.NewStaticModel(16, channel.NewRayleigh(rng, 40, 0))
	return Generate(GenConfig{
		Model:    model,
		Duration: dur,
		Seed:     seed + 1,
	})
}

func TestGenerateShape(t *testing.T) {
	lt := walkingTrace(1, 2)
	if lt.NumRates() != 6 {
		t.Fatalf("rates %d, want 6", lt.NumRates())
	}
	if got := lt.Duration(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("duration %v, want 2", got)
	}
	if lt.FrameBits != (1400+4)*8 {
		t.Fatalf("frame bits %d", lt.FrameBits)
	}
}

func TestSnapshotsConsistent(t *testing.T) {
	lt := walkingTrace(2, 2)
	for ri := 0; ri < lt.NumRates(); ri++ {
		for s, snap := range lt.Snapshots[ri] {
			if snap.Delivered && !snap.Detected {
				t.Fatalf("rate %d slot %d: delivered but not detected", ri, s)
			}
			if snap.DeliverProb < 0 || snap.DeliverProb > 1 {
				t.Fatalf("deliver prob %v out of range", snap.DeliverProb)
			}
			if snap.BER < 0 || snap.BER > 0.5 {
				t.Fatalf("BER %v out of range", snap.BER)
			}
		}
	}
}

func TestMonotoneBERAcrossRates(t *testing.T) {
	// The cross-rate consistency property the paper measures at 96%; with
	// a shared fading process and lognormal estimator jitter we expect
	// the same ballpark.
	lt := walkingTrace(3, 5)
	if f := lt.MonotoneBERFraction(); f < 0.85 {
		t.Fatalf("monotone BER fraction %v, want >= 0.85", f)
	}
}

func TestWrapAround(t *testing.T) {
	lt := walkingTrace(4, 1)
	a := lt.At(2, 0.25)
	b := lt.At(2, 1.25) // exactly one trace length later
	if a != b {
		t.Fatal("trace does not wrap around")
	}
	c := lt.At(2, -0.75) // negative time wraps too
	if a != c {
		t.Fatal("negative time does not wrap")
	}
}

func TestOracleGuaranteesDelivery(t *testing.T) {
	// The oracle has a-priori knowledge of the trace: any rate it picks
	// (other than the rate-0 fallback) must actually deliver at that
	// instant, and no faster rate may also deliver.
	lt := walkingTrace(5, 3)
	for ti := 0; ti < 300; ti++ {
		now := float64(ti) * 0.01
		best := lt.BestRateAt(now)
		if best > 0 && !lt.At(best, now).Delivered {
			t.Fatalf("oracle chose rate %d which does not deliver", best)
		}
		for ri := best + 1; ri < lt.NumRates(); ri++ {
			if lt.At(ri, now).Delivered {
				t.Fatalf("oracle chose %d but rate %d also delivers", best, ri)
			}
		}
	}
}

func TestOracleTracksFades(t *testing.T) {
	// Over a fading trace the oracle must actually move around.
	lt := walkingTrace(6, 5)
	seen := map[int]bool{}
	for ti := 0; ti < 500; ti++ {
		seen[lt.BestRateAt(float64(ti)*0.01)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("oracle used only %d rates over a fading trace", len(seen))
	}
}

func TestHigherMeanSNRDeliversMore(t *testing.T) {
	mk := func(snr float64) float64 {
		rng := rand.New(rand.NewSource(7))
		model := channel.NewStaticModel(snr, channel.NewRayleigh(rng, 40, 0))
		lt := Generate(GenConfig{Model: model, Duration: 3, Seed: 8})
		n, ok := 0, 0
		for _, s := range lt.Snapshots[3] {
			n++
			if s.Delivered {
				ok++
			}
		}
		return float64(ok) / float64(n)
	}
	low, high := mk(8), mk(25)
	if high <= low {
		t.Fatalf("delivery at 25 dB (%v) not above 8 dB (%v)", high, low)
	}
	if high < 0.9 {
		t.Fatalf("QPSK 3/4 at mean 25 dB delivered only %v", high)
	}
}

func TestSNREstimateNearChannel(t *testing.T) {
	model := channel.NewStaticModel(14, nil) // pure AWGN
	lt := Generate(GenConfig{Model: model, Duration: 1, Seed: 9})
	var sum float64
	for _, s := range lt.Snapshots[0] {
		sum += s.SNRdB
	}
	mean := sum / float64(len(lt.Snapshots[0]))
	if math.Abs(mean-14) > 0.5 {
		t.Fatalf("mean SNR estimate %v, want ~14", mean)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	lt := walkingTrace(10, 1)
	var buf bytes.Buffer
	if err := Save(&buf, lt); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != lt.Interval || got.NumRates() != lt.NumRates() {
		t.Fatal("metadata mismatch after round trip")
	}
	if got.At(3, 0.123) != lt.At(3, 0.123) {
		t.Fatal("snapshots mismatch after round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gzip"))); err == nil {
		t.Fatal("expected error on garbage input")
	}
}

func TestLoadRejectsEmptyOrRaggedGrid(t *testing.T) {
	snap := Snapshot{Detected: true, DeliverProb: 1}
	for name, grid := range map[string][][]Snapshot{
		"no slots":   {{}, {}},
		"ragged":     {{snap, snap}, {snap}},
		"empty rate": {{snap}, {}},
	} {
		var buf bytes.Buffer
		if err := Save(&buf, NewSynthetic(1e-3, 11200, grid)); err != nil {
			t.Fatal(err)
		}
		if lt, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted a %d-rate grid with %d slots at rate 0", name, lt.NumRates(), len(lt.Snapshots[0]))
		}
	}
}

func TestSaveFileReportsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := SaveFile("/dev/full", walkingTrace(12, 0.5)); err == nil {
		t.Fatal("SaveFile to /dev/full reported success")
	}
}

func TestTrainingSamplesAndThresholds(t *testing.T) {
	lt := walkingTrace(11, 5)
	samples := lt.TrainingSamples()
	if len(samples) < 1000 {
		t.Fatalf("only %d training samples", len(samples))
	}
	th := ratectl.TrainThresholds(samples, lt.NumRates(), 0.9)
	// Thresholds must be finite for the low rates and increasing overall.
	if math.IsInf(th[0], 1) || math.IsInf(th[2], 1) {
		t.Fatalf("low-rate thresholds untrained: %v", th)
	}
	for i := 1; i < len(th); i++ {
		if th[i] < th[i-1] {
			t.Fatalf("thresholds not monotone: %v", th)
		}
	}
}

func TestNewSynthetic(t *testing.T) {
	snaps := [][]Snapshot{
		{{Delivered: true, DeliverProb: 1, BER: 1e-6, SNRdB: 20, Detected: true}},
		{{Delivered: false, DeliverProb: 0, BER: 0.2, SNRdB: 20, Detected: true}},
	}
	lt := NewSynthetic(1e-3, 11200, snaps)
	if lt.BestRateAt(0) != 0 {
		t.Fatal("synthetic oracle wrong")
	}
	if !lt.At(0, 0).Delivered || lt.At(1, 0).Delivered {
		t.Fatal("synthetic snapshots wrong")
	}
}

func TestFastFadingTraceDegrades(t *testing.T) {
	// At 4 kHz Doppler (100 us coherence), deep fades hit within frames:
	// high rates should deliver clearly less often than in a static
	// channel at the same mean SNR.
	mkDoppler := func(fd float64) float64 {
		rng := rand.New(rand.NewSource(12))
		model := channel.NewStaticModel(18, channel.NewRayleigh(rng, fd, 0))
		lt := Generate(GenConfig{Model: model, Duration: 2, Seed: 13})
		n, ok := 0, 0
		for _, s := range lt.Snapshots[5] { // QAM16 3/4
			n++
			if s.Delivered {
				ok++
			}
		}
		return float64(ok) / float64(n)
	}
	static := func() float64 {
		model := channel.NewStaticModel(18, nil)
		lt := Generate(GenConfig{Model: model, Duration: 2, Seed: 14})
		n, ok := 0, 0
		for _, s := range lt.Snapshots[5] {
			n++
			if s.Delivered {
				ok++
			}
		}
		return float64(ok) / float64(n)
	}()
	fading := mkDoppler(4000)
	if fading >= static {
		t.Fatalf("fast fading delivery %v not below static %v", fading, static)
	}
}
