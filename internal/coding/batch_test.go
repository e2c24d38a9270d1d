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
	coded := AppendEncode(nil, info)
	punct := AppendPuncture(nil, coded, rate)
	soft := make([]float64, len(punct))
	for i, b := range punct {
		x := -1.0
		if b != 0 {
			x = 1.0
		}
		soft[i] = 2 * (x + sigma*rng.NormFloat64()) / (sigma * sigma)
	}
	return BatchJob{LLRs: DepunctureInto(make([]float64, len(coded)), soft, rate), NInfo: nInfo}
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
// sentinel in every row of the plane and of both halves' block buffers, so
// the kernels never spend a Jacobian or a scalar redo on them.
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
		for name, rows := range map[string][]float64{"plane": bw.plane, "half 0 block": bw.half[0].blk, "half 1 block": bw.half[1].blk} {
			for i := 0; i < len(rows)/L; i++ {
				for l := B; l < L; l++ {
					if v := rows[i*L+l]; v != bcjrNegInf {
						t.Fatalf("B=%d %s row %d pad lane %d: %v, want the sentinel", B, name, i, l, v)
					}
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

// wildLLRs draws n LLRs from a mix of ±Inf, NaN, 0, 1e30-scale and
// ordinary values, which sends the kernels' lanes down every fixup path.
func wildLLRs(rng *rand.Rand, n int) []float64 {
	llrs := make([]float64, n)
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
	return llrs
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
			jobs[i] = BatchJob{LLRs: wildLLRs(rng, nLLR), NInfo: nInfo}
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
// wildLLRs, the rest are noisy codewords.
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
			jobs = append(jobs, BatchJob{LLRs: wildLLRs(rng, 2*(nInfo+TailBits)), NInfo: nInfo})
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
	b.ReportMetric(float64(8*cap(bw.plane))/float64(B), "plane_B/frame")
}

// edgeJob is one frame of nInfo information bits for TestMeetInMiddleEdges,
// cycling by kind through a noisy codeword, wildLLRs and a short lattice
// the decoder zero-extends into exact ties.
func edgeJob(rng *rand.Rand, nInfo, kind int) BatchJob {
	switch kind % 3 {
	case 0:
		j := makeBatchJob(rng, (nInfo+7)/8, Rate23, 0.7)
		j.NInfo = nInfo
		return j
	case 1:
		return BatchJob{LLRs: wildLLRs(rng, 2*(nInfo+TailBits)), NInfo: nInfo}
	}
	llrs := make([]float64, nInfo)
	for k := range llrs {
		llrs[k] = rng.NormFloat64() * 4
	}
	return BatchJob{LLRs: llrs, NInfo: nInfo}
}

// TestMeetInMiddleEdges holds the lengths where the recursions' meeting row
// and the Phase 2 blocks are at their edges to refDecodeBCJR's bits, in
// both modes, at every batchSizes width: every nInfo up to 40 (mid 0, 8 and
// 16), one either side of appBlockT multiples (a partial last forward
// block) and 1–3 either side of 16-step multiples (partial narrow quads and
// blocks). One workspace serves every case, and a last run alternates
// narrow and vector groups of falling and rising lengths within and across
// batches, so every group finds its plane and block buffers dirty from a
// group of another path and length.
func TestMeetInMiddleEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var bw BatchWorkspace
	var lens []int
	for n := 1; n <= 40; n++ {
		lens = append(lens, n)
	}
	for _, k := range []int{6, 13} {
		lens = append(lens, k*appBlockT-1, k*appBlockT+1)
	}
	for _, k := range []int{3, 7} {
		for _, d := range []int{1, 2, 3} {
			lens = append(lens, 16*k-d, 16*k+d)
		}
	}
	sizes := batchSizes()
	for _, mode := range []BCJRMode{LogMAP, MaxLog} {
		for _, n := range lens {
			// Each width decodes a prefix of one pool of jobs.
			pool := make([]BatchJob, sizes[len(sizes)-1])
			wantInfo, wantLLR := make([][]byte, len(pool)), make([][]float64, len(pool))
			for i := range pool {
				pool[i] = edgeJob(rng, n, i+n)
				wantInfo[i], wantLLR[i] = refDecodeBCJR(pool[i].LLRs, n, mode)
			}
			for _, B := range sizes {
				for i, r := range bw.DecodeBCJRBatch(pool[:B], mode) {
					for k := range r.Info {
						if r.Info[k] != wantInfo[i][k] || !sameBits(r.LLR[k], wantLLR[i][k]) {
							t.Fatalf("mode=%v B=%d nInfo=%d job %d bit %d: info %d llr %v, want %d %v",
								mode, B, n, i, k, r.Info[k], r.LLR[k], wantInfo[i][k], wantLLR[i][k])
						}
					}
				}
			}
		}
	}
	for r, widths := range [][]int{{2, 9}, {5, 1}, {3, 12}, {1, 4, 2}} {
		var jobs []BatchJob
		for g, B := range widths {
			n := []int{97, 15, 61, 8, 33, 130}[(r+g)%6]
			for i := 0; i < B; i++ {
				jobs = append(jobs, edgeJob(rng, n, i))
			}
		}
		for _, mode := range []BCJRMode{LogMAP, MaxLog} {
			if err := checkSplitBatch(&bw, jobs, mode); err != nil {
				t.Fatalf("dirty run %d: %v", r, err)
			}
		}
	}
}

// TestGroupPlaneIsOneTrellis pins the decoder's trellis memory: after a
// group decode the workspace holds one plane of (steps+1)·numStates·L
// floats, on the vector, narrow and scalar paths alike, and each half's
// block buffer holds at most appBlockT+1 rows.
func TestGroupPlaneIsOneTrellis(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mode := range []BCJRMode{LogMAP, MaxLog} {
		for _, B := range batchSizes() {
			jobs := make([]BatchJob, B)
			for i := range jobs {
				jobs[i] = makeBatchJob(rng, 25, Rate12, 0.7)
			}
			var bw BatchWorkspace
			bw.DecodeBCJRBatch(jobs, mode)
			path, L, _ := planGroup(B, mode)
			rowSz := numStates * L
			if want := (200 + TailBits + 1) * rowSz; len(bw.plane) != want || cap(bw.plane) != want {
				t.Errorf("mode=%v B=%d path %d: plane len %d cap %d, want %d", mode, B, path, len(bw.plane), cap(bw.plane), want)
			}
			for h := range bw.half {
				if n := cap(bw.half[h].blk); n > (appBlockT+1)*rowSz {
					t.Errorf("mode=%v B=%d path %d: half %d block buffer of %d floats, over %d rows", mode, B, path, h, n, appBlockT+1)
				}
			}
		}
	}
}

// TestNarrowOverrunReadsFreshAlpha checks that a narrow block running past
// nInfo hands the APP kernel α rows stepped on from the frame's own
// recursion, not rows a previous group left in the block buffer. Those
// steps' outputs are dropped and the kernel's lanes are independent, so no
// output shows it: the test reads the last block's transposed quads.
func TestNarrowOverrunReadsFreshAlpha(t *testing.T) {
	if !hasFastJacobian {
		t.Skip("no vector Jacobian on this host: no narrow path")
	}
	rng := rand.New(rand.NewSource(13))
	var bw BatchWorkspace
	bw.DecodeBCJRBatch([]BatchJob{makeBatchJob(rng, 20, Rate12, 0.7)}, LogMAP) // dirty the buffers
	const nInfo = 37                                                           // half 1's last block: [32, 37) plus three steps
	job := makeBatchJob(rng, 5, Rate34, 0.7)
	job.NInfo = nInfo
	bw.DecodeBCJRBatch([]BatchJob{job}, LogMAP)
	alpha := make([]float64, numStates)
	next := make([]float64, numStates)
	anchorRow(alpha, 1)
	for step := 0; step < nInfo+3; step++ {
		if step >= nInfo {
			for s := 0; s < numStates; s++ {
				if got := bw.half[1].alphaQ[numStates*4+s*4+step-nInfo+1]; !sameBits(got, alpha[s]) {
					t.Fatalf("overrun step %d state %d: the kernel read α %v, want %v", step, s, got, alpha[s])
				}
			}
		}
		bm := branchMetrics(job.LLRs[2*step], job.LLRs[2*step+1])
		stepCombineLanes(next, alpha, bm[:], &fwdStepTable, 0, 1, 1, LogMAP)
		normalize(next)
		alpha, next = next, alpha
	}
}
