package phy

import (
	"math"
	"testing"

	"softrate/internal/rate"
)

func TestDefaultBERModelShape(t *testing.T) {
	m := DefaultBERModel
	if len(m.BER) != rate.Count() {
		t.Fatalf("model covers %d rates, want %d", len(m.BER), rate.Count())
	}
	if len(m.SNRdB) < 20 {
		t.Fatalf("grid too small: %d points", len(m.SNRdB))
	}
	for i := 1; i < len(m.SNRdB); i++ {
		if m.SNRdB[i] <= m.SNRdB[i-1] {
			t.Fatal("grid not ascending")
		}
	}
}

func TestBERDecreasesWithSNR(t *testing.T) {
	m := DefaultBERModel
	for ri := 0; ri < rate.Count(); ri++ {
		prev := 1.0
		for snr := -1.0; snr <= 30; snr += 0.25 {
			b := m.BERAt(ri, snr)
			if b > prev*1.5 { // allow small Monte-Carlo non-monotonicity
				t.Errorf("rate %d: BER rose from %v to %v at %v dB", ri, prev, b, snr)
			}
			prev = b
		}
	}
}

func TestBERIncreasesWithRate(t *testing.T) {
	// Observation 1 of §3.3: at fixed SNR, BER is monotone in bit rate.
	m := DefaultBERModel
	for snr := 2.0; snr <= 25; snr += 1 {
		prev := 0.0
		for ri := 0; ri < 6; ri++ {
			b := m.BERAt(ri, snr)
			if b < prev*0.5 && prev > 1e-10 {
				t.Errorf("at %v dB: BER(rate %d)=%v below BER(rate %d)=%v", snr, ri, b, ri-1, prev)
			}
			if b > prev {
				prev = b
			}
		}
	}
}

func TestFactorTenSpacing(t *testing.T) {
	// Observation 2 of §3.3: within the usable range (BER < 1e-2), each
	// rate's BER at a given SNR is >= 10x the next lower rate's. Check at
	// operating points where the higher rate is marginal.
	//
	// The BPSK 3/4 -> QPSK 1/2 pair (9 -> 12 Mbps) is exempt: those two
	// rates are nearly redundant in AWGN (a well-known property of the
	// real 802.11 table — stronger coding offsets the denser
	// constellation almost exactly), and the paper's own §3.3 remedy for
	// such pairs is "pick a subset of rates with the above property".
	m := DefaultBERModel
	for ri := 1; ri < 6; ri++ {
		if ri == 2 {
			continue
		}
		// Find an SNR where rate ri has BER ~ 1e-3 (usable but marginal).
		for snr := 0.0; snr <= 30; snr += 0.25 {
			b := m.BERAt(ri, snr)
			if b < 1e-2 && b > 1e-4 {
				lower := m.BERAt(ri-1, snr)
				if lower > b/10 && lower > 1e-9 {
					t.Errorf("rate %d at %.2f dB: BER %v, lower rate %v (< 10x apart)",
						ri, snr, b, lower)
				}
				break
			}
		}
	}
}

func TestLambdaConsistentWithBER(t *testing.T) {
	// Where BER is high the frame error-event rate must be nonzero, and
	// where BER is vanishing lambda must vanish too.
	m := DefaultBERModel
	for ri := 0; ri < 6; ri++ {
		for snr := 0.0; snr <= 28; snr += 1 {
			b := m.BERAt(ri, snr)
			l := m.LambdaAt(ri, snr)
			if b > 1e-2 && l == 0 {
				t.Errorf("rate %d at %v dB: BER %v but lambda 0", ri, snr, b)
			}
			if b <= 1e-11 && l > 1e-6 {
				t.Errorf("rate %d at %v dB: BER ~0 but lambda %v", ri, snr, l)
			}
		}
	}
}

func TestDeliverProbBounds(t *testing.T) {
	m := DefaultBERModel
	// Very high SNR: certain delivery. Very low: certain loss for any
	// plausible frame.
	if p := m.DeliverProb(3, []float64{30, 30, 30}, 144); p < 0.99 {
		t.Fatalf("deliver prob %v at 30 dB", p)
	}
	if p := m.DeliverProb(3, []float64{0, 0, 0}, 144); p > 0.2 {
		t.Fatalf("deliver prob %v at 0 dB for QPSK 3/4", p)
	}
}

func TestDeliverProbMonotoneInLength(t *testing.T) {
	m := DefaultBERModel
	snrs := []float64{8, 8, 8, 8}
	short := m.DeliverProb(3, snrs[:2], 144)
	long := m.DeliverProb(3, snrs, 144)
	if long > short {
		t.Fatalf("longer frame delivered more often: %v > %v", long, short)
	}
}

func TestInterpolationExtremes(t *testing.T) {
	m := DefaultBERModel
	if b := m.BERAt(2, -20); b != 0.5 {
		t.Fatalf("below-grid BER %v, want 0.5 cap", b)
	}
	if b := m.BERAt(2, 60); b > 1e-10 {
		t.Fatalf("far-above-grid BER %v, want ~floor", b)
	}
	// In-grid interpolation must land between neighbours.
	g := m.SNRdB
	mid := (g[5] + g[6]) / 2
	b5, b6, bm := m.BERAt(2, g[5]), m.BERAt(2, g[6]), m.BERAt(2, mid)
	lo, hi := math.Min(b5, b6), math.Max(b5, b6)
	if bm < lo*0.99 || bm > hi*1.01 {
		t.Fatalf("interpolated BER %v outside [%v, %v]", bm, lo, hi)
	}
}

func TestCalibrateSmall(t *testing.T) {
	// A tiny fresh calibration must roughly agree with the embedded table
	// at a point with measurable BER. This guards against drift between
	// the generated table and the live chain.
	if testing.Short() {
		t.Skip("Monte Carlo calibration is slow")
	}
	cc := CalibrationConfig{
		PHY:            DefaultConfig(),
		Rates:          []rate.Rate{rate.ByIndex(2)},
		SNRdB:          []float64{3, 4, 5},
		FramesPerPoint: 6,
		PayloadBytes:   200,
		Seed:           7,
	}
	m := Calibrate(cc)
	for k, snr := range cc.SNRdB {
		ref := DefaultBERModel.BERAt(2, snr)
		got := m.BER[0][k]
		if ref < 1e-7 || got <= 1e-9 {
			continue
		}
		if got/ref > 30 || ref/got > 30 {
			t.Errorf("fresh calibration at %v dB: %v vs embedded %v", snr, got, ref)
		}
	}
}

func TestCalibrateBatchedMatchesSequential(t *testing.T) {
	// The batched decode stage must not change a single output bit: the
	// same config must produce deeply equal tables at batch 1 on one
	// worker (which TestQueueReceiveMatchesSequential ties to the
	// per-frame oracle refReceive) and at any chunk size and worker count.
	if testing.Short() {
		t.Skip("Monte Carlo calibration is slow")
	}
	cc := CalibrationConfig{
		PHY:            DefaultConfig(),
		Rates:          []rate.Rate{rate.ByIndex(0), rate.ByIndex(3)},
		SNRdB:          []float64{2, 6, 10},
		FramesPerPoint: 5,
		PayloadBytes:   120,
		Seed:           11,
		Workers:        1,
	}
	want := calibrate(cc, 1)
	for _, batch := range []int{1, 3, 8} {
		for _, workers := range []int{1, 4} {
			cc.Workers = workers
			got := calibrate(cc, batch)
			for ri := range want.BER {
				for k := range want.BER[ri] {
					if math.Float64bits(got.BER[ri][k]) != math.Float64bits(want.BER[ri][k]) ||
						math.Float64bits(got.Lambda[ri][k]) != math.Float64bits(want.Lambda[ri][k]) {
						t.Fatalf("batch=%d workers=%d: table diverges at rate %d, point %d", batch, workers, ri, k)
					}
				}
			}
		}
	}
}
