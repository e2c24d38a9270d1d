package ratectl

import (
	"testing"

	"softrate/internal/rate"
)

// The per-frame feedback path of every §6.1 algorithm is hot in both the
// MAC simulators and the decision service, so — mirroring core's
// BenchmarkOnFeedback — each algorithm gets an allocation-tracking
// benchmark of one decide→observe cycle. SampleRate's ring buffers reach
// a steady state during warmup; after that the loop must not allocate.

// benchCycle drives one NextRate/OnResult round at virtual time t.
func benchCycle(a Adapter, t float64, delivered bool) {
	ri := a.NextRate(t)
	a.OnResult(Result{
		Time:      t,
		RateIndex: ri,
		Airtime:   1e-3,
		Delivered: delivered,
		// FeedbackReceived and the BER drive SoftRate-style consumers;
		// harmless for the others.
		FeedbackReceived: delivered,
		BER:              1e-6,
		SNRdB:            15,
	})
}

func benchAdapter(b *testing.B, mk func() Adapter) {
	a := mk()
	// Warmup: let windows fill and rings grow to their working size.
	for i := 0; i < 4096; i++ {
		benchCycle(a, float64(i)*1e-3, i%7 != 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCycle(a, float64(4096+i)*1e-3, i%7 != 0)
	}
}

func BenchmarkOnResult(b *testing.B) {
	rates := rate.Evaluation()
	lossless := NominalAirtimes()
	b.Run("SampleRate", func(b *testing.B) {
		benchAdapter(b, func() Adapter {
			return NewSampleRate(rates, lossless, NewSplitMix(1))
		})
	})
	b.Run("SampleRate/capped", func(b *testing.B) {
		benchAdapter(b, func() Adapter {
			s := NewSampleRate(rates, lossless, NewSplitMix(1))
			s.WindowCap = 16
			return s
		})
	})
	b.Run("RRAA", func(b *testing.B) {
		benchAdapter(b, func() Adapter {
			return NewRRAA(rates, lossless, true)
		})
	})
	b.Run("SNR", func(b *testing.B) {
		benchAdapter(b, func() Adapter {
			return NewSNRBased([]float64{3, 6, 9, 12, 16, 20}, "SNR")
		})
	})
	b.Run("CHARM", func(b *testing.B) {
		benchAdapter(b, func() Adapter {
			return NewCHARM([]float64{3, 6, 9, 12, 16, 20})
		})
	})
}

// BenchmarkEncodeDecodeState measures the snapshot round-trip the store
// pays per op for each relocatable algorithm.
func BenchmarkEncodeDecodeState(b *testing.B) {
	rates := rate.Evaluation()
	lossless := NominalAirtimes()

	b.Run("SampleRate", func(b *testing.B) {
		s := NewSampleRate(rates, lossless, NewSplitMix(1))
		s.WindowCap = 16
		for i := 0; i < 4096; i++ {
			benchCycle(s, float64(i)*1e-3, i%7 != 0)
		}
		buf := make([]byte, s.StateLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.EncodeState(buf)
			if err := s.DecodeState(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RRAA", func(b *testing.B) {
		r := NewRRAA(rates, lossless, false)
		buf := make([]byte, r.StateLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.EncodeState(buf)
			if err := r.DecodeState(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SNR", func(b *testing.B) {
		s := NewSNRBased([]float64{3, 6, 9, 12, 16, 20}, "SNR")
		s.OnResult(Result{FeedbackReceived: true, SNRdB: 14})
		buf := make([]byte, s.StateLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.EncodeState(buf)
			if err := s.DecodeState(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestOnResultDoesNotAllocateSteadyState pins the satellite requirement
// (not just benchmarks it): after warmup, a feedback cycle performs zero
// heap allocations for every algorithm.
func TestOnResultDoesNotAllocateSteadyState(t *testing.T) {
	rates := rate.Evaluation()
	lossless := NominalAirtimes()
	mks := map[string]func() Adapter{
		"SampleRate": func() Adapter { return NewSampleRate(rates, lossless, NewSplitMix(1)) },
		"SampleRate/capped": func() Adapter {
			s := NewSampleRate(rates, lossless, NewSplitMix(1))
			s.WindowCap = 16
			return s
		},
		"RRAA": func() Adapter { return NewRRAA(rates, lossless, true) },
		"SNR":  func() Adapter { return NewSNRBased([]float64{3, 6, 9, 12, 16, 20}, "SNR") },
	}
	for name, mk := range mks {
		a := mk()
		for i := 0; i < 4096; i++ {
			benchCycle(a, float64(i)*1e-3, i%7 != 0)
		}
		n := 1000
		avg := testing.AllocsPerRun(n, func() {
			benchCycle(a, 4.2, true)
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per steady-state feedback cycle, want 0", name, avg)
		}
	}
}

// TestSampleRateRingMatchesUnboundedHistory replays the same outcome
// sequence through a capped and an uncapped instance whose in-window
// sample count never exceeds the cap: their decisions must be identical —
// the ring is a memory bound, not a behaviour change, until it saturates.
func TestSampleRateRingMatchesUnboundedHistory(t *testing.T) {
	rates := rate.Evaluation()
	lossless := NominalAirtimes()
	a := NewSampleRate(rates, lossless, NewSplitMix(9))
	b := NewSampleRate(rates, lossless, NewSplitMix(9))
	b.WindowCap = 255 // larger than one window's worth of frames below
	rng := NewSplitMix(77)
	ta, tb := 0.0, 0.0
	for i := 0; i < 20000; i++ {
		// ~50 frames per 1s window per rate at most: far below the cap.
		dt := 0.02 + float64(rng.Intn(100))/5000
		ta += dt
		tb += dt
		ra, rb := a.NextRate(ta), b.NextRate(tb)
		if ra != rb {
			t.Fatalf("frame %d: capped chose %d, unbounded %d", i, rb, ra)
		}
		ok := rng.Intn(5) != 0
		air := 1e-3 * float64(1+rng.Intn(3))
		a.OnResult(Result{Time: ta, RateIndex: ra, Airtime: air, Delivered: ok})
		b.OnResult(Result{Time: tb, RateIndex: rb, Airtime: air, Delivered: ok})
	}
}
