package coding

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// makeBatchJob builds a decodable LLR lattice for a random message at the
// given puncture rate and noise level, returning the depunctured rate-1/2
// lattice the decoders consume.
func makeBatchJob(rng *rand.Rand, nInfoBytes int, rate CodeRate, sigma float64) BatchJob {
	nInfo := nInfoBytes * 8
	info := make([]byte, nInfo)
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	coded := Encode(info)
	punct := AppendPuncture(nil, coded, rate)
	soft := make([]float64, len(punct))
	for i, b := range punct {
		x := -1.0
		if b != 0 {
			x = 1.0
		}
		soft[i] = 2 * (x + sigma*rng.NormFloat64()) / (sigma * sigma)
	}
	return BatchJob{LLRs: DepunctureLLR(soft, rate, len(coded)), NInfo: nInfo}
}

// batchSizes covers every way a log-MAP group runs on AVX2 hardware: 1, 2
// and 3 lanes take the narrow kernels; 5, 7 and 9 are padded (to 8, 8 and
// 12); 4 and 64 need no pad; and 12 lands between the vector widths, so on
// AVX-512 hardware it runs 8 lanes through the ZMM kernels and 4 through
// the AVX2 ones (as do 9's padded 12). MaxLog runs them all scalar.
func batchSizes() []int { return []int{1, 2, 3, 4, 5, 7, 9, 12, 64} }

// TestDecodeBCJRBatchMatchesSingle is the batch-vs-single equivalence
// suite: every job in every batch must come out bit-identical to the
// scalar single-frame decoder (refDecodeBCJR), across batch sizes, modes,
// puncture patterns, mixed frame lengths, and dirty-workspace reuse (one
// BatchWorkspace serves all cases without reset).
func TestDecodeBCJRBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var bw BatchWorkspace // reused across all subcases: dirty reuse is part of the contract
	rates := []CodeRate{Rate12, Rate23, Rate34}
	for _, mode := range []BCJRMode{LogMAP, MaxLog} {
		for _, B := range batchSizes() {
			jobs := make([]BatchJob, B)
			for i := range jobs {
				// Mixed frame lengths and rates within the 64-job batch;
				// every smaller batch stays uniform-length, so it forms one
				// group of exactly B lanes.
				nBytes := []int{4, 7, 31, 40}[rng.Intn(4)]
				if B < 64 {
					nBytes = 31
				}
				rate := rates[rng.Intn(len(rates))]
				sigma := []float64{0.2, 0.7, 1.5}[rng.Intn(3)]
				jobs[i] = makeBatchJob(rng, nBytes, rate, sigma)
			}
			got := bw.DecodeBCJRBatch(jobs, mode)
			if len(got) != B {
				t.Fatalf("mode=%v B=%d: got %d results", mode, B, len(got))
			}
			for i, j := range jobs {
				wantInfo, wantLLR := refDecodeBCJR(j.LLRs, j.NInfo, mode)
				if len(got[i].Info) != len(wantInfo) || len(got[i].LLR) != len(wantLLR) {
					t.Fatalf("mode=%v B=%d job=%d: length mismatch", mode, B, i)
				}
				for k := range wantInfo {
					if got[i].Info[k] != wantInfo[k] {
						t.Fatalf("mode=%v B=%d job=%d bit %d: info %d != %d", mode, B, i, k, got[i].Info[k], wantInfo[k])
					}
					if !sameBits(got[i].LLR[k], wantLLR[k]) {
						t.Fatalf("mode=%v B=%d job=%d bit %d: llr %x != %x (%v vs %v)",
							mode, B, i, k, math.Float64bits(got[i].LLR[k]), math.Float64bits(wantLLR[k]), got[i].LLR[k], wantLLR[k])
					}
				}
			}
		}
	}
}

// TestDecodeBCJRBatchShortAndEmptyInputs pins the zero-extension contract:
// short (even empty) LLR slices behave exactly like the scalar single-frame
// decoders' padLLRs path. The three kinds of job repeat to fill one group
// of each batchSizes width: zero LLRs make every combine an exact tie, so
// the kernels flag states and lanes for the scalar redo at every lane
// position, past a padded group's AVX-512/AVX2 boundary too.
func TestDecodeBCJRBatchShortAndEmptyInputs(t *testing.T) {
	var bw BatchWorkspace
	kinds := []BatchJob{
		{LLRs: nil, NInfo: 16},
		{LLRs: []float64{3, -1, 0.5}, NInfo: 16},
		{LLRs: make([]float64, 2*(16+TailBits)+10), NInfo: 16}, // over-long: extra entries ignored
	}
	for i := range kinds[2].LLRs {
		kinds[2].LLRs[i] = float64(i%5) - 2
	}
	for _, B := range batchSizes() {
		jobs := make([]BatchJob, B)
		for i := range jobs {
			jobs[i] = kinds[i%len(kinds)]
		}
		for _, mode := range []BCJRMode{LogMAP, MaxLog} {
			got := bw.DecodeBCJRBatch(jobs, mode)
			for i, j := range jobs {
				wantInfo, wantLLR := refDecodeBCJR(j.LLRs, j.NInfo, mode)
				for k := range wantInfo {
					if got[i].Info[k] != wantInfo[k] || !sameBits(got[i].LLR[k], wantLLR[k]) {
						t.Fatalf("mode=%v B=%d job=%d bit %d mismatch", mode, B, i, k)
					}
				}
			}
		}
	}
}

// TestPadLanesStayInert checks that a padded group's pad lanes hold the
// sentinel in every row of both planes, so the kernels never spend a
// Jacobian or a scalar redo on them.
func TestPadLanesStayInert(t *testing.T) {
	if !hasFastJacobian {
		t.Skip("no vector Jacobian on this host: groups are not padded")
	}
	rng := rand.New(rand.NewSource(5))
	var bw BatchWorkspace
	for _, B := range []int{5, 7, 9} {
		jobs := make([]BatchJob, B)
		for i := range jobs {
			jobs[i] = makeBatchJob(rng, 6, Rate34, 0.7)
		}
		bw.DecodeBCJRBatch(jobs, LogMAP)
		L := bw.g.L
		if L != (B+3)&^3 {
			t.Fatalf("B=%d: plane width %d, want %d", B, L, (B+3)&^3)
		}
		for i := 0; i < len(bw.alphaP)/L; i++ {
			for l := B; l < L; l++ {
				if a, b := bw.alphaP[i*L+l], bw.betaP[i*L+l]; a != bcjrNegInf || b != bcjrNegInf {
					t.Fatalf("B=%d row %d pad lane %d: alpha %v beta %v, want the sentinel", B, i, l, a, b)
				}
			}
		}
	}
}

// TestBatchDecodeDoesNotAllocateSteadyState extends the single-frame
// allocation pin to warm batch workspaces at every batch size.
func TestBatchDecodeDoesNotAllocateSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, B := range batchSizes() {
		jobs := make([]BatchJob, B)
		for i := range jobs {
			jobs[i] = makeBatchJob(rng, 12, Rate12, 0.7)
		}
		var bw BatchWorkspace
		bw.DecodeBCJRBatch(jobs, LogMAP)
		if n := testing.AllocsPerRun(3, func() {
			bw.DecodeBCJRBatch(jobs, LogMAP)
		}); n != 0 {
			t.Errorf("B=%d: DecodeBCJRBatch allocates %v/op when warm", B, n)
		}
	}
}

// FuzzBatchDecodeMatchesSingle drives arbitrary LLR lattices — including
// non-finite values — through a reused BatchWorkspace and requires
// bit-identical outputs vs refDecodeBCJR (NaN payloads compare as NaN).
func FuzzBatchDecodeMatchesSingle(f *testing.F) {
	f.Add(uint16(3), uint16(2), int64(1), false)
	f.Add(uint16(17), uint16(40), int64(9), true)
	f.Add(uint16(64), uint16(1), int64(77), false)
	f.Add(uint16(0), uint16(30), int64(5), false)
	f.Add(uint16(2), uint16(95), int64(11), false)
	f.Add(uint16(4), uint16(50), int64(13), true)
	f.Add(uint16(6), uint16(12), int64(17), false)
	f.Add(uint16(0x0102), uint16(7), int64(19), false)
	var bw BatchWorkspace // deliberately shared across fuzz iterations
	f.Fuzz(func(t *testing.T, rawB, rawLen uint16, seed int64, maxlog bool) {
		// B jobs, 1 to 9; rawB's high byte spreads their lengths, and 0
		// makes them one group of B lanes.
		B := int(rawB)%9 + 1
		spread := int(rawB >> 8)
		rng := rand.New(rand.NewSource(seed))
		mode := LogMAP
		if maxlog {
			mode = MaxLog
		}
		jobs := make([]BatchJob, B)
		for i := range jobs {
			nInfo := (int(rawLen)+i*spread)%96 + 1
			nLLR := rng.Intn(2*(nInfo+TailBits) + 8)
			llrs := make([]float64, nLLR)
			for k := range llrs {
				switch rng.Intn(12) {
				case 0:
					llrs[k] = math.Inf(1)
				case 1:
					llrs[k] = math.Inf(-1)
				case 2:
					llrs[k] = math.NaN()
				case 3:
					llrs[k] = 0
				case 4:
					llrs[k] = rng.NormFloat64() * 1e30
				default:
					llrs[k] = rng.NormFloat64() * 20
				}
			}
			jobs[i] = BatchJob{LLRs: llrs, NInfo: nInfo}
		}
		got := bw.DecodeBCJRBatch(jobs, mode)
		for i, j := range jobs {
			wantInfo, wantLLR := refDecodeBCJR(j.LLRs, j.NInfo, mode)
			for k := range wantInfo {
				if got[i].Info[k] != wantInfo[k] {
					t.Fatalf("BCJR job %d bit %d: info %d != %d", i, k, got[i].Info[k], wantInfo[k])
				}
				if !sameBits(got[i].LLR[k], wantLLR[k]) {
					t.Fatalf("BCJR job %d bit %d: llr bits %x != %x", i, k,
						math.Float64bits(got[i].LLR[k]), math.Float64bits(wantLLR[k]))
				}
			}
		}
	})
}

// splitJobs builds a batch of three groups of L lanes each, one per trellis
// length: 200 and 37 information bits split Phase 2 at 96 and 16, and 5
// leaves half 0 no APP steps at all. Every third job draws its LLRs from
// FuzzBatchDecodeMatchesSingle's value mix (NaN, ±Inf, 0, 1e30-scale), the
// rest are noisy codewords.
func splitJobs(rng *rand.Rand, L int) []BatchJob {
	var jobs []BatchJob
	for _, nInfo := range []int{200, 37, 5} {
		for l := 0; l < L; l++ {
			if len(jobs)%3 != 0 {
				j := makeBatchJob(rng, (nInfo+7)/8, Rate12, 0.7)
				j.NInfo = nInfo
				jobs = append(jobs, j)
				continue
			}
			llrs := make([]float64, 2*(nInfo+TailBits))
			for k := range llrs {
				switch rng.Intn(12) {
				case 0:
					llrs[k] = math.Inf(1)
				case 1:
					llrs[k] = math.Inf(-1)
				case 2:
					llrs[k] = math.NaN()
				case 3:
					llrs[k] = 0
				case 4:
					llrs[k] = rng.NormFloat64() * 1e30
				default:
					llrs[k] = rng.NormFloat64() * 20
				}
			}
			jobs = append(jobs, BatchJob{LLRs: llrs, NInfo: nInfo})
		}
	}
	return jobs
}

// checkSplitBatch decodes jobs on bw and requires every result to match
// refDecodeBCJR bit for bit.
func checkSplitBatch(bw *BatchWorkspace, jobs []BatchJob, mode BCJRMode) error {
	got := bw.DecodeBCJRBatch(jobs, mode)
	for i, j := range jobs {
		wantInfo, wantLLR := refDecodeBCJR(j.LLRs, j.NInfo, mode)
		for k := range wantInfo {
			if got[i].Info[k] != wantInfo[k] || !sameBits(got[i].LLR[k], wantLLR[k]) {
				return fmt.Errorf("mode=%v job %d (nInfo %d) bit %d: info %d llr %v, want %d %v",
					mode, i, j.NInfo, k, got[i].Info[k], got[i].LLR[k], wantInfo[k], wantLLR[k])
			}
		}
	}
	return nil
}

// TestBatchSplitMatchesSingle runs the two halves of each phase on two
// goroutines and requires refDecodeBCJR's bits: first one workspace, which
// must have used the helper, then four decoding at once, so the helper is
// busy for some of them and they run both halves themselves.
func TestBatchSplitMatchesSingle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(29))
	modes := []BCJRMode{LogMAP, MaxLog}
	var bw BatchWorkspace
	before := helperRuns.Load()
	for _, L := range []int{1, 8, 9, 16, 64} {
		jobs := splitJobs(rng, L)
		for _, mode := range modes {
			if err := checkSplitBatch(&bw, jobs, mode); err != nil {
				t.Fatalf("L=%d: %v", L, err)
			}
		}
	}
	if helperRuns.Load() == before {
		t.Fatal("the helper goroutine never ran a half")
	}

	// A decode below splits twice (once per phase) for each of its three
	// groups, so splits counts what the helper runs if it is never busy.
	const workers, rounds = 4, 3
	splits := uint64(workers * rounds * len(modes) * 3 * 2)
	for try := 0; ; try++ {
		before = helperRuns.Load()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for g := 0; g < workers; g++ {
			jobs := splitJobs(rand.New(rand.NewSource(int64(g))), 9)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var bw BatchWorkspace
				for r := 0; r < rounds; r++ {
					for _, mode := range modes {
						if errs[g] = checkSplitBatch(&bw, jobs, mode); errs[g] != nil {
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", g, err)
			}
		}
		if helperRuns.Load()-before < splits {
			return // some halves ran inline next to the helper's
		}
		if try == 10 {
			t.Fatal("four concurrent decoders never found the helper busy")
		}
	}
}

func BenchmarkDecodeBCJRBatch8(b *testing.B) {
	benchDecodeBatch(b, 8)
}

func BenchmarkDecodeBCJRBatch64(b *testing.B) {
	benchDecodeBatch(b, 64)
}

// BenchmarkDecodeBCJRNarrow times the groups narrower than the vector
// kernels at the phy-chain frame shape: 1, 2 and 3 frames through the
// narrow kernels, 4 through the 4-lane ones (what padding 3 would cost),
// and 7 padded to 8 (compare BenchmarkDecodeBCJRBatch8).
func BenchmarkDecodeBCJRNarrow(b *testing.B) {
	for _, L := range []int{1, 2, 3, 4, 7} {
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) { benchDecodeBatch(b, L) })
	}
}

func benchDecodeBatch(b *testing.B, B int) {
	rng := rand.New(rand.NewSource(3))
	jobs := make([]BatchJob, B)
	for i := range jobs {
		jobs[i] = makeBatchJob(rng, 244, Rate12, 0.7)
	}
	var bw BatchWorkspace
	bw.DecodeBCJRBatch(jobs, LogMAP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.DecodeBCJRBatch(jobs, LogMAP)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*B)/b.Elapsed().Seconds(), "frames/s")
}
