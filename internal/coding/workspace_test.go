package coding

import (
	"math"
	"math/rand"
	"testing"

	"softrate/internal/bitutil"
)

// mkNoisyLLRs builds a depunctured LLR lattice for a random nInfo-bit
// frame at code rate r under AWGN of the given sigma.
func mkNoisyLLRs(rng *rand.Rand, nInfo int, r CodeRate, sigma float64) []float64 {
	info := bitutil.RandomBits(rng, nInfo)
	tx := Puncture(Encode(info), r)
	llrs := make([]float64, len(tx))
	for i, b := range tx {
		x := -1.0
		if b != 0 {
			x = 1.0
		}
		llrs[i] = 2 * (x + sigma*rng.NormFloat64()) / (sigma * sigma)
	}
	return DepunctureLLR(llrs, r, CodedLen(nInfo))
}

// TestWorkspaceDecodeMatchesFresh drives a single warm workspace through a
// mixed sequence of frame sizes, rates and modes and requires bit- and
// LLR-identical output versus the scalar BCJR decoder (refDecodeBCJR) and
// the allocating package-level Viterbi decoder.
func TestWorkspaceDecodeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ws Workspace
	for trial := 0; trial < 60; trial++ {
		nInfo := 1 + rng.Intn(700)
		r := CodeRate(rng.Intn(3))
		mode := BCJRMode(rng.Intn(2))
		sigma := 0.4 + rng.Float64()*1.2
		llrs := mkNoisyLLRs(rng, nInfo, r, sigma)

		wantInfo, wantLLR := refDecodeBCJR(llrs, nInfo, mode)
		gotInfo, gotLLR := ws.DecodeBCJR(llrs, nInfo, mode)
		for k := range wantInfo {
			if gotInfo[k] != wantInfo[k] {
				t.Fatalf("trial %d: BCJR bit %d differs (reused %d, fresh %d)", trial, k, gotInfo[k], wantInfo[k])
			}
			if math.Float64bits(gotLLR[k]) != math.Float64bits(wantLLR[k]) {
				t.Fatalf("trial %d: BCJR LLR %d differs (reused %v, fresh %v)", trial, k, gotLLR[k], wantLLR[k])
			}
		}

		wantV := DecodeViterbi(llrs, nInfo)
		gotV := ws.DecodeViterbi(llrs, nInfo)
		if bitutil.CountBitErrors(gotV, wantV) != 0 {
			t.Fatalf("trial %d: Viterbi output differs between reused and fresh", trial)
		}
	}
}

// TestWorkspaceDepunctureMatchesFresh checks the scratch depuncture
// lattice against the allocating form, including the trailing erasures a
// short input leaves behind.
func TestWorkspaceDepunctureMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		r := CodeRate(rng.Intn(3))
		nCoded := rng.Intn(400)
		nIn := rng.Intn(nCoded + 1)
		llrs := make([]float64, nIn)
		for i := range llrs {
			llrs[i] = rng.NormFloat64() * 10
		}
		want := DepunctureLLR(llrs, r, nCoded)
		got := ws.DepunctureLLR(llrs, r, nCoded)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: position %d differs (reused %v, fresh %v)", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeDoesNotAllocateSteadyState pins the hot-path requirement
// (mirroring ratectl's steady-state tests): with a warm workspace, BCJR
// decode (a one-job batch, narrow kernels and helper split included),
// Viterbi decode and depuncture perform zero heap allocations.
func TestDecodeDoesNotAllocateSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const nInfo = 1952 // the Fig 7/9 payload shape (244 bytes)
	llrs := mkNoisyLLRs(rng, nInfo, Rate12, 0.7)
	punct := make([]float64, PuncturedLen(CodedLen(nInfo), Rate34))
	for i := range punct {
		punct[i] = rng.NormFloat64() * 4
	}
	var ws Workspace
	// Warm every scratch plane once.
	ws.DecodeBCJR(llrs, nInfo, LogMAP)
	ws.DecodeViterbi(llrs, nInfo)
	ws.DepunctureLLR(punct, Rate34, CodedLen(nInfo))

	cases := map[string]func(){
		"DecodeBCJR/LogMAP": func() { ws.DecodeBCJR(llrs, nInfo, LogMAP) },
		"DecodeBCJR/MaxLog": func() { ws.DecodeBCJR(llrs, nInfo, MaxLog) },
		"DecodeViterbi":     func() { ws.DecodeViterbi(llrs, nInfo) },
		"DepunctureLLR":     func() { ws.DepunctureLLR(punct, Rate34, CodedLen(nInfo)) },
	}
	for name, fn := range cases {
		if avg := testing.AllocsPerRun(5, fn); avg != 0 {
			t.Errorf("%s: %v allocs per warm-workspace call, want 0", name, avg)
		}
	}
}

// TestAppendEncodeMatchesEncode checks the appending encoder against the
// allocating one, including reuse of a dirty destination buffer.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	buf := make([]byte, 0, 4096)
	for trial := 0; trial < 100; trial++ {
		info := bitutil.RandomBits(rng, rng.Intn(500))
		want := Encode(info)
		buf = AppendEncode(buf[:0], info)
		if bitutil.CountBitErrors(buf, want) != 0 {
			t.Fatalf("trial %d: AppendEncode differs from Encode", trial)
		}
		for _, r := range []CodeRate{Rate12, Rate23, Rate34} {
			wp := Puncture(want, r)
			gp := AppendPuncture(nil, buf, r)
			if bitutil.CountBitErrors(wp, gp) != 0 {
				t.Fatalf("trial %d: AppendPuncture differs from Puncture at %v", trial, r)
			}
		}
	}
}

// BenchmarkDecodeBCJR measures the allocating package-level decode of a
// Fig 7/9-shaped payload (244 info bytes at rate 1/2).
func BenchmarkDecodeBCJR(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const nInfo = 1952
	llrs := mkNoisyLLRs(rng, nInfo, Rate12, 0.7)
	b.SetBytes(nInfo / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeBCJR(llrs, nInfo, LogMAP)
	}
}

// BenchmarkDecodeBCJRWorkspace measures the warm-workspace decode of a Fig
// 7/9-shaped payload (244 info bytes at rate 1/2).
func BenchmarkDecodeBCJRWorkspace(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const nInfo = 1952
	llrs := mkNoisyLLRs(rng, nInfo, Rate12, 0.7)
	var ws Workspace
	ws.DecodeBCJR(llrs, nInfo, LogMAP)
	b.SetBytes(nInfo / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.DecodeBCJR(llrs, nInfo, LogMAP)
	}
}

// BenchmarkDecodeViterbiWorkspace is the Viterbi counterpart.
func BenchmarkDecodeViterbiWorkspace(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const nInfo = 1952
	llrs := mkNoisyLLRs(rng, nInfo, Rate12, 0.7)
	var ws Workspace
	ws.DecodeViterbi(llrs, nInfo)
	b.SetBytes(nInfo / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.DecodeViterbi(llrs, nInfo)
	}
}
