package modulation

import (
	"math/rand"
	"testing"
)

// TestHardDecisionMatchesDemapModulateRoundTrip pins refNoiseEVM's hard
// decision against its definition, including tie-breaking: for any
// sample z, hardDecision(s, z) is the point hardDemap's bits modulate to,
// exactly.
func TestHardDecisionMatchesDemapModulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, s := range allSchemes {
		for trial := 0; trial < 2000; trial++ {
			z := complex(rng.NormFloat64()*1.2, rng.NormFloat64()*1.2)
			if trial%17 == 0 {
				// Exact level hits and midpoints exercise the tie-break.
				lv := s.axisLevels()
				z = complex(lv[rng.Intn(len(lv))], lv[rng.Intn(len(lv))])
				if trial%34 == 0 && len(lv) > 1 {
					z += complex((lv[1]-lv[0])/2, 0)
				}
			}
			want := AppendModulate(nil, s, hardDemap(s, z))[0]
			if got := hardDecision(s, z); got != want {
				t.Fatalf("%v: hardDecision(%v) = %v, want %v", s, z, got, want)
			}
		}
	}
}

// TestAppendModulateMatchesModulate checks the appending modulator into a
// reused, dirty destination against a fresh one.
func TestAppendModulateMatchesModulate(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	buf := make([]complex128, 0, 256)
	for _, s := range allSchemes {
		for trial := 0; trial < 50; trial++ {
			bits := make([]byte, rng.Intn(120))
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			want := AppendModulate(nil, s, bits)
			buf = AppendModulate(buf[:0], s, bits)
			if len(buf) != len(want) {
				t.Fatalf("%v: length %d want %d", s, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("%v: symbol %d differs: %v vs %v", s, i, buf[i], want[i])
				}
			}
		}
	}
}

// TestHotPathDoesNotAllocate pins the per-tone operations the receiver
// runs thousands of times per frame: soft demap and modulation into a
// warm buffer, and the per-symbol demap on a warm Demapper.
func TestHotPathDoesNotAllocate(t *testing.T) {
	out := make([]float64, 0, 64)
	sym := make([]complex128, 0, 64)
	tones := make([]complex128, 96)
	for k := range tones {
		tones[k] = complex(float64(k%7)*0.2-0.6, float64(k%5)*0.3-0.6)
	}
	var dm Demapper
	llrs := dm.DemapSymbol(QAM64, tones, 0.9, nil)
	bits := []byte{1, 0, 1, 1, 0, 1}
	z := complex(0.31, -0.4)
	for _, s := range allSchemes {
		if avg := testing.AllocsPerRun(100, func() {
			out = Demap(s, z, 1, 0.3, true, out[:0])
		}); avg != 0 {
			t.Errorf("%v: Demap allocates %v per tone, want 0", s, avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			llrs = dm.DemapSymbol(s, tones, complex(0.9, 0.1), llrs[:0])
		}); avg != 0 {
			t.Errorf("%v: DemapSymbol allocates %v per symbol, want 0", s, avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			sym = AppendModulate(sym[:0], s, bits)
		}); avg != 0 {
			t.Errorf("%v: AppendModulate allocates %v per call, want 0", s, avg)
		}
	}
}
