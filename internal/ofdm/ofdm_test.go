package ofdm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"softrate/internal/bitutil"
	"softrate/internal/modulation"
	"softrate/internal/rate"
)

// allModes lists every defined mode in Table 3 order (plus Standard last).
var allModes = []Mode{LongRange, ShortRange, Simulation, Standard}

func TestSymbolTimesMatchTable3(t *testing.T) {
	// Table 3: long range 2.6 ms, short range 160 us, simulation 8 us.
	cases := []struct {
		m    Mode
		want float64
		tol  float64
	}{
		{LongRange, 2.6e-3, 0.05e-3}, // paper rounds 2.56 ms to 2.6
		{ShortRange, 160e-6, 1e-9},
		{Simulation, 8e-6, 1e-12},
		{Standard, 4e-6, 1e-12},
	}
	for _, c := range cases {
		if got := c.m.SymbolTime(); math.Abs(got-c.want) > c.tol {
			t.Errorf("%s symbol time = %v, want %v", c.m.Name, got, c.want)
		}
	}
}

func TestDataTonesProportion(t *testing.T) {
	for _, m := range allModes {
		if m.DataTones*4 != m.Tones*3 {
			t.Errorf("%s: %d data tones of %d, want 3/4", m.Name, m.DataTones, m.Tones)
		}
	}
}

func TestCodedBitsPerSymbolMultipleOf16(t *testing.T) {
	// Required by the interleaver.
	for _, m := range allModes {
		for _, s := range []modulation.Scheme{modulation.BPSK, modulation.QPSK, modulation.QAM16, modulation.QAM64} {
			if m.CodedBitsPerSymbol(s)%16 != 0 {
				t.Errorf("%s/%v: N_CBPS=%d not a multiple of 16", m.Name, s, m.CodedBitsPerSymbol(s))
			}
		}
	}
}

func TestInfoBitsPerSymbolStandardRates(t *testing.T) {
	// 802.11a N_DBPS at 48 data tones: 24, 36, 48, 72, 96, 144, 192, 216.
	want := []int{24, 36, 48, 72, 96, 144, 192, 216}
	for i, r := range rate.All() {
		if got := Standard.InfoBitsPerSymbol(r); got != want[i] {
			t.Errorf("%v: N_DBPS=%d, want %d", r, got, want[i])
		}
	}
}

func TestAirtimeInverseToRate(t *testing.T) {
	// Higher rates must never take longer for the same payload. (Ties are
	// possible in modes with very large symbols, where two adjacent rates
	// can need the same whole number of OFDM symbols.)
	for _, m := range allModes {
		prev := math.Inf(1)
		for _, r := range rate.All() {
			at := m.PayloadAirtime(1400, r, false)
			if at > prev {
				t.Errorf("%s: airtime increased at %v", m.Name, r)
			}
			prev = at
		}
		hi := m.PayloadAirtime(1400, rate.ByIndex(7), false)
		lo := m.PayloadAirtime(1400, rate.ByIndex(0), false)
		if hi*2 > lo {
			t.Errorf("%s: 54 Mbps airtime %v not well under 6 Mbps airtime %v", m.Name, hi, lo)
		}
	}
}

func TestAirtime54MbpsApproximation(t *testing.T) {
	// 1400 bytes at 54 Mbps is ~208 us of payload; with preamble+header
	// the Standard-mode frame should land in 210-240 us.
	at := Standard.PayloadAirtime(1400, rate.ByIndex(7), false)
	if at < 210e-6 || at > 240e-6 {
		t.Fatalf("1400B @ 54 Mbps airtime = %v us", at*1e6)
	}
}

func TestAirtimePostambleAddsTwoSymbols(t *testing.T) {
	for _, m := range allModes {
		r := rate.ByIndex(3)
		d := m.PayloadAirtime(500, r, true) - m.PayloadAirtime(500, r, false)
		want := float64(PostambleSymbols) * m.SymbolTime()
		if math.Abs(d-want) > 1e-12 {
			t.Errorf("%s: postamble adds %v, want %v", m.Name, d, want)
		}
	}
}

func TestShortRangeFrameUnderMillisecond(t *testing.T) {
	// §5.1: short-range mode frames last under a millisecond, which is
	// what makes walking-speed mobility experiments possible. The paper
	// collects its short-range traces with "small frames" — 100 bytes.
	at := ShortRange.PayloadAirtime(100, rate.ByIndex(2), false)
	if at >= 1.1e-3 {
		t.Fatalf("short-range 100B QPSK1/2 frame lasts %v ms", at*1e3)
	}
	// §5.1: long-range frames last tens of milliseconds.
	atLong := LongRange.PayloadAirtime(960, rate.ByIndex(2), false)
	if atLong < 5e-3 {
		t.Fatalf("long-range frame lasts only %v ms", atLong*1e3)
	}
}

func TestPermutationBijective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nbpsc := []int{1, 2, 4, 6}[rng.Intn(4)]
		ncbps := 16 * (1 + rng.Intn(48)) * nbpsc
		// Keep ncbps a multiple of 16 regardless of nbpsc product shape.
		ncbps = ncbps / 16 * 16
		perm := Permutation(ncbps, nbpsc)
		seen := make([]bool, ncbps)
		for _, v := range perm {
			if v < 0 || v >= ncbps || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, nbpsc := range []int{1, 2, 4, 6} {
		ncbps := Simulation.DataTones * nbpsc
		perm := Permutation(ncbps, nbpsc)
		bits := bitutil.RandomBits(rng, ncbps*3) // three symbols
		inter := InterleaveBitsInto(make([]byte, len(bits)), bits, perm)
		// Deinterleave via the LLR path to exercise both directions.
		llrs := make([]float64, len(inter))
		for i, b := range inter {
			llrs[i] = float64(b)*2 - 1
		}
		back := DeinterleaveLLRsInto(make([]float64, len(llrs)), llrs, perm)
		for i := range bits {
			wantSign := float64(bits[i])*2 - 1
			if back[i] != wantSign {
				t.Fatalf("nbpsc=%d: round trip failed at %d", nbpsc, i)
			}
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must land on different, non-adjacent subcarriers
	// (the anti-burst property).
	for _, nbpsc := range []int{1, 2, 4, 6} {
		ncbps := Standard.DataTones * nbpsc
		perm := Permutation(ncbps, nbpsc)
		for k := 0; k+1 < ncbps; k++ {
			sc1 := perm[k] / nbpsc
			sc2 := perm[k+1] / nbpsc
			if d := sc1 - sc2; d > -2 && d < 2 {
				t.Fatalf("nbpsc=%d: coded bits %d,%d land on adjacent subcarriers %d,%d",
					nbpsc, k, k+1, sc1, sc2)
			}
		}
	}
}

func TestInterleavePanicsOnPartialSymbol(t *testing.T) {
	perm := Permutation(96, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-symbol-multiple input")
		}
	}()
	InterleaveBitsInto(make([]byte, 95), make([]byte, 95), perm)
}

func TestHeaderSymbols(t *testing.T) {
	// 64 header bits at BPSK 1/2 in simulation mode (48 info bits/symbol):
	// needs 2 symbols.
	if got := Simulation.HeaderSymbols(64); got != 2 {
		t.Fatalf("HeaderSymbols(64) = %d, want 2", got)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range allModes {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}
