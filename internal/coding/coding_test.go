package coding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"softrate/internal/bitutil"
)

func TestEncodeImpulseResponse(t *testing.T) {
	// A single 1 followed by zeros must emit the generator polynomials as
	// the two output streams: g0=1011011, g1=1111001.
	coded := AppendEncode(nil, []byte{1})
	wantOut0 := []byte{1, 0, 1, 1, 0, 1, 1}
	wantOut1 := []byte{1, 1, 1, 1, 0, 0, 1}
	for i := 0; i < 7; i++ {
		if coded[2*i] != wantOut0[i] || coded[2*i+1] != wantOut1[i] {
			t.Fatalf("impulse response mismatch at step %d: got (%d,%d) want (%d,%d)",
				i, coded[2*i], coded[2*i+1], wantOut0[i], wantOut1[i])
		}
	}
}

func TestEncodeAllZeros(t *testing.T) {
	coded := AppendEncode(nil, make([]byte, 20))
	for i, b := range coded {
		if b != 0 {
			t.Fatalf("all-zero input produced 1 at position %d", i)
		}
	}
	if len(coded) != CodedLen(20) {
		t.Fatalf("coded length %d, want %d", len(coded), CodedLen(20))
	}
}

func TestEncodeLinearity(t *testing.T) {
	// Convolutional codes are linear: enc(a XOR b) == enc(a) XOR enc(b).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		a := bitutil.RandomBits(rng, n)
		b := bitutil.RandomBits(rng, n)
		ab := bitutil.XORBits(a, b)
		ea, eb, eab := AppendEncode(nil, a), AppendEncode(nil, b), AppendEncode(nil, ab)
		for i := range eab {
			if eab[i] != ea[i]^eb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFreeDistance(t *testing.T) {
	// The (133,171) K=7 code has free distance 10: the minimum-weight
	// nonzero codeword over short inputs must weigh exactly 10.
	best := 1 << 30
	for n := 1; n <= 8; n++ {
		for v := 1; v < 1<<n; v++ {
			info := make([]byte, n)
			for i := 0; i < n; i++ {
				info[i] = byte(v >> i & 1)
			}
			w := 0
			for _, b := range AppendEncode(nil, info) {
				w += int(b)
			}
			if w < best {
				best = w
			}
		}
	}
	if best != 10 {
		t.Fatalf("free distance = %d, want 10", best)
	}
}

func TestPunctureLengths(t *testing.T) {
	coded := make([]byte, 24)
	if got := len(AppendPuncture(nil, coded, Rate12)); got != 24 {
		t.Fatalf("Rate12 puncture length %d, want 24", got)
	}
	if got := len(AppendPuncture(nil, coded, Rate23)); got != 18 {
		t.Fatalf("Rate23 puncture length %d, want 18", got)
	}
	if got := len(AppendPuncture(nil, coded, Rate34)); got != 16 {
		t.Fatalf("Rate34 puncture length %d, want 16", got)
	}
}

func TestPuncturedLenMatchesPuncture(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		coded := bitutil.RandomBits(rng, n)
		for _, r := range []CodeRate{Rate12, Rate23, Rate34} {
			// Each whole period of the pattern carries one coded bit per
			// 1/(2·rate) mother-code bits; the tail keeps its pattern prefix.
			pat := r.puncturePattern()
			num, den := r.Fraction()
			want := n / len(pat) * len(pat) * den / (2 * num)
			for _, keep := range pat[:n%len(pat)] {
				if keep {
					want++
				}
			}
			if len(AppendPuncture(nil, coded, r)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDepunctureInverse(t *testing.T) {
	// Depuncturing the punctured stream restores kept positions and puts
	// erasure zeros elsewhere.
	rng := rand.New(rand.NewSource(7))
	nCoded := 60
	llrs := make([]float64, nCoded)
	for i := range llrs {
		llrs[i] = rng.NormFloat64() + 2 // nonzero with overwhelming probability
	}
	for _, r := range []CodeRate{Rate12, Rate23, Rate34} {
		hard := make([]byte, nCoded)
		punctured := AppendPuncture(nil, hard, r)
		keptLLR := make([]float64, 0, len(punctured))
		pat := r.puncturePattern()
		for i := 0; i < nCoded; i++ {
			if pat[i%len(pat)] {
				keptLLR = append(keptLLR, llrs[i])
			}
		}
		back := DepunctureInto(make([]float64, nCoded), keptLLR, r)
		for i := 0; i < nCoded; i++ {
			if pat[i%len(pat)] {
				if back[i] != llrs[i] {
					t.Fatalf("rate %v: kept position %d not restored", r, i)
				}
			} else if back[i] != 0 {
				t.Fatalf("rate %v: punctured position %d not erased", r, i)
			}
		}
	}
}

func TestCodeRateStringsAndFractions(t *testing.T) {
	cases := []struct {
		r    CodeRate
		s    string
		num  int
		den  int
		want float64
	}{
		{Rate12, "1/2", 1, 2, 0.5},
		{Rate23, "2/3", 2, 3, 2.0 / 3},
		{Rate34, "3/4", 3, 4, 0.75},
	}
	for _, c := range cases {
		if c.r.String() != c.s {
			t.Errorf("String() = %q want %q", c.r.String(), c.s)
		}
		n, d := c.r.Fraction()
		if n != c.num || d != c.den {
			t.Errorf("Fraction() = %d/%d want %d/%d", n, d, c.num, c.den)
		}
		if math.Abs(c.r.Value()-c.want) > 1e-12 {
			t.Errorf("Value() = %v want %v", c.r.Value(), c.want)
		}
	}
}

func noiselessRoundTrip(t *testing.T, decode func([]float64, int) []byte) {
	t.Helper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		info := bitutil.RandomBits(rng, n)
		for _, r := range []CodeRate{Rate12, Rate23, Rate34} {
			tx := AppendPuncture(nil, AppendEncode(nil, info), r)
			llrs := DepunctureInto(make([]float64, CodedLen(n)), HardToLLR(tx, 8), r)
			got := decode(llrs, n)
			if bitutil.CountBitErrors(got, info) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestViterbiNoiselessRoundTrip(t *testing.T) {
	noiselessRoundTrip(t, DecodeViterbi)
}

func TestBCJRNoiselessRoundTrip(t *testing.T) {
	noiselessRoundTrip(t, func(llrs []float64, n int) []byte {
		bits, _ := DecodeBCJR(llrs, n, LogMAP)
		return bits
	})
	noiselessRoundTrip(t, func(llrs []float64, n int) []byte {
		bits, _ := DecodeBCJR(llrs, n, MaxLog)
		return bits
	})
}

// addAWGN maps coded bits to BPSK (+1/-1), adds Gaussian noise of standard
// deviation sigma and returns channel LLRs 2y/sigma^2.
func addAWGN(rng *rand.Rand, coded []byte, sigma float64) []float64 {
	llrs := make([]float64, len(coded))
	for i, b := range coded {
		x := -1.0
		if b != 0 {
			x = 1.0
		}
		y := x + sigma*rng.NormFloat64()
		llrs[i] = 2 * y / (sigma * sigma)
	}
	return llrs
}

func TestViterbiCorrectsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 512
	// sigma=0.6 is ~4.4 dB Eb/N0 at rate 1/2: raw BER ~5%, coded BER ~0.
	totalErrs := 0
	for trial := 0; trial < 20; trial++ {
		info := bitutil.RandomBits(rng, n)
		llrs := addAWGN(rng, AppendEncode(nil, info), 0.6)
		got := DecodeViterbi(llrs, n)
		totalErrs += bitutil.CountBitErrors(got, info)
	}
	if totalErrs > 5 {
		t.Fatalf("Viterbi left %d errors over %d bits at high SNR", totalErrs, 20*n)
	}
}

func TestBCJRMatchesViterbiAtHighSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 256
	for trial := 0; trial < 10; trial++ {
		info := bitutil.RandomBits(rng, n)
		llrs := addAWGN(rng, AppendEncode(nil, info), 0.5)
		v := DecodeViterbi(llrs, n)
		b, _ := DecodeBCJR(llrs, n, LogMAP)
		if bitutil.CountBitErrors(v, b) != 0 {
			t.Fatalf("trial %d: BCJR and Viterbi disagree at high SNR", trial)
		}
	}
}

// TestBCJRLLRCalibration is the keystone property behind Equation 3 of the
// paper: p_k = 1/(1+exp(s_k)) must match the empirically observed error
// rate of bits carrying hint s_k. We bucket decoded bits by hint magnitude
// and compare predicted vs measured error probability.
func TestBCJRLLRCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 600
	sigma := 1.05 // low SNR so there are plenty of errors to measure
	type bucket struct {
		predicted float64
		errors    float64
		count     float64
	}
	buckets := map[int]*bucket{}
	for trial := 0; trial < 60; trial++ {
		info := bitutil.RandomBits(rng, n)
		llrs := addAWGN(rng, AppendEncode(nil, info), sigma)
		got, app := DecodeBCJR(llrs, n, LogMAP)
		for k := 0; k < n; k++ {
			s := math.Abs(app[k])
			// Above s=4 the error probability drops under ~2% and a bucket
			// collects only a handful of (bursty, correlated) error events;
			// the comparison is statistically meaningless there.
			if s > 4 {
				continue
			}
			idx := int(s / 0.5)
			b := buckets[idx]
			if b == nil {
				b = &bucket{}
				buckets[idx] = b
			}
			b.predicted += 1 / (1 + math.Exp(s))
			b.count++
			if got[k] != info[k] {
				b.errors++
			}
		}
	}
	for idx, b := range buckets {
		if b.count < 2000 || b.errors < 30 {
			continue
		}
		pred := b.predicted / b.count
		meas := b.errors / b.count
		// Within a factor of 1.6 is tight for a probability calibration
		// check with this sample size.
		if meas > 0 && (pred/meas > 1.6 || meas/pred > 1.6) {
			t.Errorf("bucket %d: predicted p=%.4f measured p=%.4f (n=%.0f)",
				idx, pred, meas, b.count)
		}
	}
}

func TestBCJRAverageBERTracksTruth(t *testing.T) {
	// The frame-average of p_k must track the true BER of the decoded
	// frame — this is exactly how the SoftRate receiver estimates BER
	// without knowing the transmitted bits (§3.1).
	rng := rand.New(rand.NewSource(19))
	n := 2000
	for _, sigma := range []float64{0.9, 1.0, 1.15} {
		var predicted, measured float64
		var total float64
		for trial := 0; trial < 15; trial++ {
			info := bitutil.RandomBits(rng, n)
			llrs := addAWGN(rng, AppendEncode(nil, info), sigma)
			got, app := DecodeBCJR(llrs, n, LogMAP)
			for k := 0; k < n; k++ {
				predicted += 1 / (1 + math.Exp(math.Abs(app[k])))
			}
			measured += float64(bitutil.CountBitErrors(got, info))
			total += float64(n)
		}
		p, m := predicted/total, measured/total
		if m == 0 {
			continue
		}
		if p/m > 2 || m/p > 2 {
			t.Errorf("sigma=%.2f: predicted BER %.2e vs measured %.2e", sigma, p, m)
		}
	}
}

func TestMaxStarAccuracy(t *testing.T) {
	for _, pair := range [][2]float64{{0, 0}, {1, 0.5}, {-3, 2}, {5, 5.01}, {-10, 4}} {
		a, b := pair[0], pair[1]
		exact := math.Log(math.Exp(a) + math.Exp(b))
		got := maxStar(a, b)
		if math.Abs(got-exact) > 0.04 {
			t.Errorf("maxStar(%v,%v) = %v, exact %v", a, b, got, exact)
		}
	}
}

func TestBCJRErasuresDecodable(t *testing.T) {
	// With rate 3/4 puncturing a third of the coded bits are erased; the
	// decoder must still recover the message from clean kept bits.
	rng := rand.New(rand.NewSource(23))
	info := bitutil.RandomBits(rng, 300)
	tx := AppendPuncture(nil, AppendEncode(nil, info), Rate34)
	llrs := DepunctureInto(make([]float64, CodedLen(300)), HardToLLR(tx, 10), Rate34)
	got, app := DecodeBCJR(llrs, 300, LogMAP)
	if bitutil.CountBitErrors(got, info) != 0 {
		t.Fatal("BCJR failed on punctured noiseless input")
	}
	for k, l := range app {
		if math.Abs(l) < 1 {
			t.Fatalf("suspiciously weak confidence %v at clean bit %d", l, k)
		}
	}
}

func BenchmarkEncode1500B(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	info := bitutil.RandomBits(rng, 1500*8)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AppendEncode(nil, info)
	}
}

func BenchmarkViterbi1500B(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	info := bitutil.RandomBits(rng, 1500*8)
	llrs := addAWGN(rng, AppendEncode(nil, info), 0.7)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeViterbi(llrs, len(info))
	}
}

func BenchmarkBCJR1500B(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	info := bitutil.RandomBits(rng, 1500*8)
	llrs := addAWGN(rng, AppendEncode(nil, info), 0.7)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeBCJR(llrs, len(info), LogMAP)
	}
}

func BenchmarkBCJRMaxLog1500B(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	info := bitutil.RandomBits(rng, 1500*8)
	llrs := addAWGN(rng, AppendEncode(nil, info), 0.7)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeBCJR(llrs, len(info), MaxLog)
	}
}
