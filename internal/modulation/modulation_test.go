package modulation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"softrate/internal/bitutil"
)

var allSchemes = []Scheme{BPSK, QPSK, QAM16, QAM64}

func TestBitsPerSymbol(t *testing.T) {
	want := map[Scheme]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6}
	for s, n := range want {
		if s.BitsPerSymbol() != n {
			t.Errorf("%v.BitsPerSymbol() = %d, want %d", s, s.BitsPerSymbol(), n)
		}
	}
}

func TestUnitEnergy(t *testing.T) {
	for _, s := range allSchemes {
		if e := symbolEnergy(s); math.Abs(e-1) > 1e-12 {
			t.Errorf("%v: average energy %v, want 1", s, e)
		}
	}
}

func TestMinDistanceOrdering(t *testing.T) {
	// Denser constellations must have smaller minimum distance — this is
	// the physical basis of observation 1 in §3.3 (BER increases with bit
	// rate at fixed SNR).
	d := make([]float64, len(allSchemes))
	for i, s := range allSchemes {
		d[i] = minDistance(s)
	}
	for i := 1; i < len(d); i++ {
		if d[i] >= d[i-1] {
			t.Fatalf("min distance not strictly decreasing: %v", d)
		}
	}
}

func TestGrayMappingAdjacency(t *testing.T) {
	// Along each axis, constellation points adjacent in amplitude must
	// differ in exactly one bit (the Gray property).
	for _, s := range allSchemes {
		levels := s.axisLevels()
		type lg struct {
			amp  float64
			gray int
		}
		sorted := make([]lg, len(levels))
		for g, a := range levels {
			sorted[g] = lg{a, g}
		}
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j].amp < sorted[i].amp {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		for i := 1; i < len(sorted); i++ {
			x := sorted[i].gray ^ sorted[i-1].gray
			if x&(x-1) != 0 || x == 0 {
				t.Errorf("%v: levels %v and %v differ in %b (not one bit)",
					s, sorted[i-1].amp, sorted[i].amp, x)
			}
		}
	}
}

func TestModulateHardDemapRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, s := range allSchemes {
			n := s.BitsPerSymbol() * (1 + rng.Intn(50))
			bits := bitutil.RandomBits(rng, n)
			syms := AppendModulate(nil, s, bits)
			got := make([]byte, 0, n)
			for _, y := range syms {
				got = append(got, hardDemap(s, y)...)
			}
			if bitutil.CountBitErrors(bits, got) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestModulatePadding(t *testing.T) {
	// 5 bits into QPSK -> 3 symbols, last padded with a zero bit.
	syms := AppendModulate(nil, QPSK, []byte{1, 1, 1, 1, 1})
	if len(syms) != 3 {
		t.Fatalf("got %d symbols, want 3", len(syms))
	}
	bits := hardDemap(QPSK, syms[2])
	if bits[0] != 1 || bits[1] != 0 {
		t.Fatalf("padded symbol decoded to %v, want [1 0]", bits)
	}
}

func TestDemapSignsNoiseless(t *testing.T) {
	// With no noise, every LLR must have the sign of its transmitted bit.
	rng := rand.New(rand.NewSource(5))
	for _, s := range allSchemes {
		bits := bitutil.RandomBits(rng, s.BitsPerSymbol()*64)
		syms := AppendModulate(nil, s, bits)
		for _, exact := range []bool{true, false} {
			var llrs []float64
			for _, y := range syms {
				llrs = Demap(s, y, 1, 0.01, exact, llrs)
			}
			for i, l := range llrs {
				if (bits[i] == 1) != (l > 0) {
					t.Fatalf("%v exact=%v: LLR[%d]=%v for bit %d", s, exact, i, l, bits[i])
				}
			}
		}
	}
}

func TestDemapWithChannelGain(t *testing.T) {
	// A rotated and scaled channel must be transparent after equalization.
	rng := rand.New(rand.NewSource(6))
	h := complex(0.3, -0.7)
	for _, s := range allSchemes {
		bits := bitutil.RandomBits(rng, s.BitsPerSymbol()*32)
		syms := AppendModulate(nil, s, bits)
		var llrs []float64
		for _, x := range syms {
			llrs = Demap(s, h*x, h, 0.001, true, llrs)
		}
		for i, l := range llrs {
			if (bits[i] == 1) != (l > 0) {
				t.Fatalf("%v: wrong sign at %d through channel", s, i)
			}
		}
	}
}

func TestDemapZeroGain(t *testing.T) {
	out := Demap(QAM16, 1+1i, 0, 0.1, true, nil)
	if len(out) != 4 {
		t.Fatalf("got %d LLRs, want 4", len(out))
	}
	for _, l := range out {
		if l != 0 {
			t.Fatalf("zero-gain channel must produce erasures, got %v", out)
		}
	}
}

// TestDemapLLRCalibration verifies that the exact demapper's LLRs are true
// posteriors: grouping coded bits by LLR value, the empirical bit value
// frequency must match the sigmoid of the LLR.
func TestDemapLLRCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range []Scheme{BPSK, QPSK, QAM16} {
		noiseVar := 0.5
		sd := math.Sqrt(noiseVar / 2)
		nSym := 30000 / s.BitsPerSymbol()
		bits := bitutil.RandomBits(rng, nSym*s.BitsPerSymbol())
		syms := AppendModulate(nil, s, bits)
		var llrs []float64
		for _, x := range syms {
			y := x + complex(sd*rng.NormFloat64(), sd*rng.NormFloat64())
			llrs = Demap(s, y, 1, noiseVar, true, llrs)
		}
		var pred, act, n float64
		for i, l := range llrs {
			if math.Abs(l) > 3 {
				continue
			}
			pred += 1 / (1 + math.Exp(-l)) // P(bit=1)
			act += float64(bits[i])
			n++
		}
		if n < 1000 {
			t.Fatalf("%v: not enough low-confidence samples (%v)", s, n)
		}
		if math.Abs(pred/n-act/n) > 0.03 {
			t.Errorf("%v: predicted P(1)=%.3f, actual %.3f", s, pred/n, act/n)
		}
	}
}

func TestExactVsMaxLogAgreeAtHighSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range allSchemes {
		bits := bitutil.RandomBits(rng, s.BitsPerSymbol()*128)
		syms := AppendModulate(nil, s, bits)
		noiseVar := 0.005
		sd := math.Sqrt(noiseVar / 2)
		var le, lm []float64
		for _, x := range syms {
			y := x + complex(sd*rng.NormFloat64(), sd*rng.NormFloat64())
			le = Demap(s, y, 1, noiseVar, true, le)
			lm = Demap(s, y, 1, noiseVar, false, lm)
		}
		for i := range le {
			if (le[i] > 0) != (lm[i] > 0) {
				t.Fatalf("%v: exact and max-log disagree in sign at %d", s, i)
			}
			// Magnitudes should be close at high SNR.
			if math.Abs(le[i]-lm[i]) > 0.1*math.Abs(le[i])+1 {
				t.Fatalf("%v: exact %v vs max-log %v at %d", s, le[i], lm[i], i)
			}
		}
	}
}

func TestConstellationComplete(t *testing.T) {
	for _, s := range allSchemes {
		pts := constellation(s)
		want := 1 << s.BitsPerSymbol()
		if len(pts) != want {
			t.Fatalf("%v: %d points, want %d", s, len(pts), want)
		}
		seen := map[complex128]bool{}
		for _, p := range pts {
			if seen[p] {
				t.Fatalf("%v: duplicate constellation point %v", s, p)
			}
			seen[p] = true
		}
	}
}

func BenchmarkDemapQAM64Exact(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	bits := bitutil.RandomBits(rng, 6*1000)
	syms := AppendModulate(nil, QAM64, bits)
	out := make([]float64, 0, 6*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, y := range syms {
			out = Demap(QAM64, y, 1, 0.1, true, out)
		}
	}
}

func BenchmarkDemapQAM64MaxLog(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	bits := bitutil.RandomBits(rng, 6*1000)
	syms := AppendModulate(nil, QAM64, bits)
	out := make([]float64, 0, 6*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, y := range syms {
			out = Demap(QAM64, y, 1, 0.1, false, out)
		}
	}
}
