package softphy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// validHints reports whether every hint satisfies the SoftPHY contract:
// non-negative and not NaN (+Inf is a legal "certainly correct" hint).
// The receiver produces hints via math.Abs, so this holds by construction;
// the tests assert it at package boundaries to catch sign-convention bugs
// before they silently halve every probability.
func validHints(hints []float64) bool {
	for _, s := range hints {
		if math.IsNaN(s) || s < 0 {
			return false
		}
	}
	return true
}

// hintForProb inverts Equation 3: the hint magnitude corresponding to a
// given error probability, s = log((1-p)/p).
func hintForProb(p float64) float64 {
	return math.Log((1 - p) / p)
}

func TestEquation3KnownValues(t *testing.T) {
	// s=0 means no information: p = 1/2. Large s means near-certain.
	if p := BitErrorProb(0); p != 0.5 {
		t.Fatalf("BitErrorProb(0) = %v, want 0.5", p)
	}
	if p := BitErrorProb(100); p > 1e-40 {
		t.Fatalf("BitErrorProb(100) = %v, want ~0", p)
	}
	// log(9) hint -> p = 0.1.
	if p := BitErrorProb(math.Log(9)); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("BitErrorProb(log 9) = %v, want 0.1", p)
	}
}

func TestEquation3Inverse(t *testing.T) {
	// Property: hintForProb and BitErrorProb are inverses on (0, 1/2].
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.5)
		if p < 1e-9 {
			p = 0.25
		}
		back := BitErrorProb(hintForProb(p))
		return math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEquation3Monotone(t *testing.T) {
	prev := 1.0
	for s := 0.0; s < 30; s += 0.5 {
		p := BitErrorProb(s)
		if p >= prev {
			t.Fatalf("BitErrorProb not strictly decreasing at s=%v", s)
		}
		prev = p
	}
}

func TestFrameBER(t *testing.T) {
	if FrameBER(nil) != 0 {
		t.Fatal("empty frame must give 0")
	}
	// Two bits: one certain (p~0), one coin-flip (p=0.5) -> 0.25.
	hints := []float64{1000, 0}
	// Debug assertion for the hints-are-|LLR| contract Equation 3 relies
	// on: every stream this suite feeds FrameBER must pass validHints.
	if !validHints(hints) {
		t.Fatal("test hints violate the non-negative contract")
	}
	got := FrameBER(hints)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("FrameBER = %v, want 0.25", got)
	}
}

// TestBitErrorProbEdgeCases pins the documented behaviour of Equation 3 at
// the domain boundaries: the zero-information hint, the two infinities,
// NaN propagation, and the out-of-contract negative range (soft
// degradation toward p=1, never a trap).
func TestBitErrorProbEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		hint float64
		want float64
	}{
		{"zero", 0, 0.5},
		{"+inf", math.Inf(1), 0},
		{"-inf (out of contract)", math.Inf(-1), 1},
		{"large negative saturates", -746, 1},
		{"moderate negative exact", -math.Log(9), 0.9},
	}
	for _, c := range cases {
		if got := BitErrorProb(c.hint); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: BitErrorProb(%v) = %v, want %v", c.name, c.hint, got, c.want)
		}
	}
	if got := BitErrorProb(math.NaN()); !math.IsNaN(got) {
		t.Errorf("BitErrorProb(NaN) = %v, want NaN", got)
	}
}

// TestValidHints pins the contract checker the other tests assert with.
func TestValidHints(t *testing.T) {
	cases := []struct {
		name  string
		hints []float64
		want  bool
	}{
		{"empty", nil, true},
		{"clean", []float64{0, 3.5, 1000}, true},
		{"+inf is legal certainty", []float64{math.Inf(1)}, true},
		{"negative", []float64{2, -0.1}, false},
		{"-inf", []float64{math.Inf(-1)}, false},
		{"nan", []float64{1, math.NaN()}, false},
	}
	for _, c := range cases {
		if got := validHints(c.hints); got != c.want {
			t.Errorf("%s: validHints = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAppendSymbolBERsMatches checks the alloc-free form against the
// allocating one bit-for-bit, including reuse of a dirty destination.
func TestAppendSymbolBERsMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	buf := make([]float64, 0, 64)
	for trial := 0; trial < 50; trial++ {
		hints := make([]float64, 1+rng.Intn(100))
		for i := range hints {
			hints[i] = rng.Float64() * 12
		}
		nbps := 1 + rng.Intn(16)
		want := SymbolBERs(hints, nbps)
		buf = AppendSymbolBERs(buf[:0], hints, nbps)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: length %d want %d", trial, len(buf), len(want))
		}
		for i := range want {
			if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: group %d differs: %v vs %v", trial, i, buf[i], want[i])
			}
		}
	}
}

func TestSymbolBERsGrouping(t *testing.T) {
	// 10 hints, 4 per symbol: groups of 4,4,2.
	hints := make([]float64, 10)
	for i := range hints {
		hints[i] = 1000 // p ~ 0
	}
	hints[8], hints[9] = 0, 0 // last short group: p = 0.5
	p := SymbolBERs(hints, 4)
	if len(p) != 3 {
		t.Fatalf("got %d groups, want 3", len(p))
	}
	if p[0] > 1e-12 || p[1] > 1e-12 {
		t.Fatalf("clean groups nonzero: %v", p)
	}
	if math.Abs(p[2]-0.5) > 1e-12 {
		t.Fatalf("short group = %v, want 0.5", p[2])
	}
}

func TestSymbolBERsPanicsOnBadNbps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SymbolBERs([]float64{1}, 0)
}

// mkHints builds a hint stream of nSym symbols with nbps hints each, with
// per-symbol error probability taken from probs.
func mkHints(probs []float64, nbps int) []float64 {
	hints := make([]float64, 0, len(probs)*nbps)
	for _, p := range probs {
		s := hintForProb(p)
		for i := 0; i < nbps; i++ {
			hints = append(hints, s)
		}
	}
	return hints
}

func TestDetectMidFrameBurst(t *testing.T) {
	probs := []float64{1e-4, 1e-4, 1e-4, 0.2, 0.2, 0.2, 1e-4, 1e-4}
	a := Analyze(mkHints(probs, 512), 512, DefaultDetector())
	if !a.Collision {
		t.Fatal("mid-frame burst not detected")
	}
	wantExcised := []bool{false, false, false, true, true, true, false, false}
	for j, w := range wantExcised {
		if a.Excised[j] != w {
			t.Fatalf("excision[%d] = %v, want %v (%v)", j, a.Excised[j], w, a.Excised)
		}
	}
	if a.InterferenceFreeBER > 2e-4 {
		t.Fatalf("interference-free BER %v, want ~1e-4", a.InterferenceFreeBER)
	}
	if a.FrameBER < 0.05 {
		t.Fatalf("whole-frame BER %v should reflect the burst", a.FrameBER)
	}
}

func TestDetectBurstAtStart(t *testing.T) {
	// Interferer ends mid-frame: elevated head, clean tail. First jump
	// seen is a drop.
	probs := []float64{0.3, 0.3, 0.3, 1e-4, 1e-4, 1e-4}
	a := Analyze(mkHints(probs, 512), 512, DefaultDetector())
	if !a.Collision {
		t.Fatal("head burst not detected")
	}
	for j := 0; j < 3; j++ {
		if !a.Excised[j] {
			t.Fatalf("head symbol %d not excised: %v", j, a.Excised)
		}
	}
	for j := 3; j < 6; j++ {
		if a.Excised[j] {
			t.Fatalf("clean symbol %d excised", j)
		}
	}
	if a.InterferenceFreeBER > 2e-4 {
		t.Fatalf("interference-free BER %v too high", a.InterferenceFreeBER)
	}
}

func TestDetectBurstToEnd(t *testing.T) {
	// Interferer starts mid-frame and lasts past the end.
	probs := []float64{1e-4, 1e-4, 1e-4, 0.25, 0.25, 0.25}
	a := Analyze(mkHints(probs, 512), 512, DefaultDetector())
	if !a.Collision {
		t.Fatal("tail burst not detected")
	}
	for j := 3; j < 6; j++ {
		if !a.Excised[j] {
			t.Fatalf("tail symbol %d not excised", j)
		}
	}
	if a.InterferenceFreeBER > 2e-4 {
		t.Fatalf("interference-free BER %v too high", a.InterferenceFreeBER)
	}
}

func TestDetectTwoBursts(t *testing.T) {
	// Two separate interferers, each spanning two OFDM symbols.
	probs := []float64{1e-4, 0.2, 0.2, 1e-4, 1e-4, 0.3, 0.3, 1e-4, 1e-4}
	a := Analyze(mkHints(probs, 512), 512, DefaultDetector())
	if !a.Collision {
		t.Fatal("bursts not detected")
	}
	want := []bool{false, true, true, false, false, true, true, false, false}
	for j, w := range want {
		if a.Excised[j] != w {
			t.Fatalf("excision %v, want %v", a.Excised, want)
		}
	}
	if a.InterferenceFreeBER > 2e-4 {
		t.Fatalf("interference-free BER %v too high", a.InterferenceFreeBER)
	}
}

func TestNoFalsePositiveOnSmoothFade(t *testing.T) {
	// A gradual fade: BER ramps smoothly across the frame. No jump
	// exceeds the threshold, so no collision may be declared.
	probs := make([]float64, 40)
	for i := range probs {
		// Geometric ramp from 1e-5 to ~2e-2: large overall change, small
		// per-symbol steps.
		probs[i] = 1e-5 * math.Pow(1.21, float64(i))
	}
	a := Analyze(mkHints(probs, 512), 512, DefaultDetector())
	if a.Collision {
		t.Fatalf("smooth fade flagged as collision (max step %v)", maxStep(probs))
	}
	if a.InterferenceFreeBER != a.FrameBER {
		t.Fatal("without collision, interference-free BER must equal frame BER")
	}
}

func maxStep(p []float64) float64 {
	m := 0.0
	for i := 1; i < len(p); i++ {
		if d := math.Abs(p[i] - p[i-1]); d > m {
			m = d
		}
	}
	return m
}

func TestAllSymbolsExcisedFallsBack(t *testing.T) {
	// One clean symbol then everything interfered... actually make burst
	// cover all but trigger via initial drop+rise pattern impossible;
	// instead: rise at symbol 1 and never fall, with symbol 0 tiny.
	probs := []float64{1e-4, 0.3, 0.3}
	a := Analyze(mkHints(probs, 512), 512, DefaultDetector())
	if !a.Collision {
		t.Fatal("expected collision")
	}
	// Symbol 0 survives, so interference-free BER ~1e-4.
	if a.InterferenceFreeBER > 2e-4 {
		t.Fatalf("got %v", a.InterferenceFreeBER)
	}
	// Single-symbol frame: trivially no detection possible.
	b := Analyze(mkHints([]float64{0.3}, 512), 512, DefaultDetector())
	if b.Collision {
		t.Fatal("single-symbol frame cannot signal collision")
	}
	if b.InterferenceFreeBER != b.FrameBER {
		t.Fatal("single symbol: interference-free must equal frame BER")
	}
}

func TestAnalyzeRandomizedNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(500)
		hints := make([]float64, n)
		for j := range hints {
			hints[j] = rng.Float64() * 20
		}
		nbps := 1 + rng.Intn(64)
		a := Analyze(hints, nbps, DefaultDetector())
		if n > 0 && (a.InterferenceFreeBER < 0 || a.InterferenceFreeBER > 0.5+1e-9) {
			t.Fatalf("interference-free BER out of range: %v", a.InterferenceFreeBER)
		}
	}
}

func TestExcisionRecoversCleanBER(t *testing.T) {
	// Property: for any clean-floor BER and any burst placement, the
	// interference-free estimate must be within 2x of the clean floor.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clean := math.Pow(10, -(1.5 + 3*rng.Float64())) // 3e-5..3e-2... keep <=1e-2
		if clean > 0.009 {
			clean = 0.009
		}
		nSym := 10 + rng.Intn(30)
		probs := make([]float64, nSym)
		for i := range probs {
			probs[i] = clean
		}
		// Burst strictly inside the frame, at least two symbols long (the
		// detector's MinBurstSymbols — real interferer frames span many
		// OFDM symbols). A real interferer transmits at constant power
		// for the duration of its frame, so the elevated BER level is
		// flat across the burst.
		b0 := 1 + rng.Intn(nSym-4)
		b1 := b0 + 2 + rng.Intn(nSym-b0-2)
		level := 0.15 + 0.3*rng.Float64()
		for i := b0; i < b1; i++ {
			probs[i] = level
		}
		// Realistic block size (512 bits) keeps the detector's
		// sampling-noise term small relative to the burst jump.
		a := Analyze(mkHints(probs, 512), 512, DefaultDetector())
		return a.Collision && a.InterferenceFreeBER < 2*clean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
