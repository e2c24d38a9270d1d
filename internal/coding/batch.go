package coding

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Lockstep batch decoder. A BatchWorkspace lays B frames' channel LLRs out
// as structure-of-arrays planes — plane[t*lanes+l] holds frame l's value at
// trellis position t — and advances all frames one trellis step at a time,
// so the per-step branch-metric table, the output-table indexing, and the
// max*/comb combines amortize across the batch and run through the
// vectorized row primitives of combine.go.
//
// A BCJR group runs in two phases of two halves each. Phase 1's halves are
// the forward (α) and the backward (β) recursion, which do not read each
// other; Phase 2's are the APP accumulation over two disjoint trellis
// ranges, which read both planes and write disjoint outputs. Each half has
// its own scratch (bcjrHalf), so the second half of each phase can run on
// a package-level helper goroutine while the caller runs the first: a
// decode uses two cores when the helper is idle and runs both halves
// itself when another workspace holds it. The arithmetic is the same
// either way.
//
// The batch path is contractually bit-identical to the scalar single-frame
// decoder (the recursion kept in the tests as refDecodeBCJR): a job comes
// out with the same bytes and float bits in any batch, alone — which is
// what Workspace.DecodeBCJR runs — or in a group of any width (NaN LLR
// inputs may yield NaN outputs whose payload bits differ; they compare
// equal as NaNs). The equivalence suite in batch_test.go,
// FuzzBatchDecodeMatchesSingle and FuzzDecodeWorkspaceReuse pin this.
//
// Jobs are grouped by trellis length (frames with equal step counts run in
// lockstep; mixed-length batches form one group per length) and each group
// is capped at maxBatchLanes lanes. A log-MAP group on AVX2 hardware runs
// no scalar lanes (planGroup): one to maxNarrowLanes frames take the
// narrow kernels, which put four trellis states in a vector instead of
// four frames and keep each frame's planes apart, and a wider group is
// padded with inert lanes to a multiple of four and runs the
// frame-parallel kernels only. The MaxLog mode and hosts without the
// vector kernels run the scalar walk (stepCombineLanes, appLane) over the
// frames as they are.

const maxBatchLanes = 64

// maxNarrowLanes is the widest group the narrow kernels take; from four
// frames up, padding to the frame-parallel kernels' width costs less.
const maxNarrowLanes = 3

// appBlockT is how many trellis steps the backward sweep materializes (and
// the APP block kernel interleaves) at a time.
const appBlockT = 8

// BatchJob describes one frame's decode within a batch: the rate-1/2
// channel LLR lattice (after DepunctureLLR for punctured rates; short
// slices are zero-extended exactly like the single-frame decoders) and the
// number of information bits to recover.
type BatchJob struct {
	LLRs  []float64
	NInfo int
}

// BatchResult holds one job's outputs. Both slices alias the workspace and
// are valid until its next Decode call.
type BatchResult struct {
	Info []byte
	LLR  []float64
}

// BatchWorkspace holds the structure-of-arrays planes of the lockstep batch
// decoder. Like Workspace it is owned by one goroutine at a time, performs
// zero heap allocations in steady state once warm, and reuse is
// contractually invisible in its outputs. Inside a DecodeBCJRBatch call it
// may lend one half of each phase to the package's helper goroutine; the
// call returns only after the helper is done with it.
type BatchWorkspace struct {
	llrP []float64 // [2*steps][lanes] transposed channel LLRs
	// alphaP and betaP are the forward and backward planes, stored
	// [(steps+1)*numStates][lanes] — or, on the narrow path, one
	// [(steps+1)*numStates] plane per lane, lane after lane.
	alphaP []float64
	betaP  []float64
	g      bcjrGroup
	half   [2]bcjrHalf
	task   splitTask

	infoFlat []byte
	llrFlat  []float64
	results  []BatchResult
	order    []int
}

// bcjrGroup is the BCJR group being decoded. decodeBCJRGroup writes it
// before the phases start; the halves only read it.
type bcjrGroup struct {
	lanes           []int // job index of each real lane
	mode            BCJRMode
	L, nInfo, steps int // L counts the pad lanes too
	mid             int // Phase 2 split, an appBlockT boundary
	path            groupPath
	nw              int // on the vector path, the leading lanes through the AVX-512 kernels
}

// groupPath is how a group's recursions and APP pass run.
type groupPath uint8

const (
	scalarPath groupPath = iota // stepCombineLanes and appLane, lane by lane
	narrowPath                  // the state-parallel kernels, frame by frame
	vectorPath                  // the frame-parallel kernels over all L lanes
)

// planGroup picks the path of a group of n frames and its plane width.
func planGroup(n int, mode BCJRMode) (path groupPath, L, nw int) {
	switch {
	case mode != LogMAP || !hasFastJacobian:
		return scalarPath, n, 0
	case n <= maxNarrowLanes:
		return narrowPath, n, 0
	}
	L = (n + 3) &^ 3
	if hasAVX512Jacobian {
		nw = L &^ 7
	}
	return vectorPath, L, nw
}

// bcjrHalf is one half's scratch: in Phase 1 half 0 runs the forward
// recursion on it and half 1 the backward one; in Phase 2 half 0
// accumulates the APP over [0, mid) and half 1 over [mid, nInfo).
type bcjrHalf struct {
	bm     []float64  // [4][lanes] recursion step branch metric rows
	maxP   []float64  // [lanes] normalizeLanes per-lane maxima
	fix    [64]uint64 // step kernel fixup lane masks, by table entry
	bmBlk  []float64  // [appBlockT*4][lanes] APP block branch metric rows
	numBlk []float64  // [appBlockT][lanes] APP accumulators, input 1
	denBlk []float64  // [appBlockT][lanes] APP accumulators, input 0
	appAcc []uint64   // [appBlockT*17] block kernel acc records + fix words
	// The narrow APP pass hands the block kernel four consecutive trellis
	// steps of one frame as its four lanes: alphaQ and betaQ are
	// [appBlockT][numStates][4] transposes of α_t and β_{t+1}, and bmBlk
	// holds [appBlockT][4][4] branch metrics.
	alphaQ, betaQ []float64
}

// splitTask hands half 1 of a phase to the helper goroutine. Each
// BatchWorkspace owns one, so the handoff allocates nothing.
type splitTask struct {
	w     *BatchWorkspace
	phase func(*BatchWorkspace, int)
	done  sync.WaitGroup
}

func (t *splitTask) run() {
	t.phase(t.w, 1)
	t.done.Done()
}

// The helper goroutine starts with the first split and lives for the rest
// of the process, parked in its receive while no decode needs it.
var (
	helperOnce  sync.Once
	helperTasks chan *splitTask // unbuffered: a send succeeds only while the helper waits
	helperRuns  atomic.Uint64   // halves the helper has run; tests read it
)

func splitHelper() {
	for t := range helperTasks {
		helperRuns.Add(1)
		t.run()
	}
}

// split runs phase over both halves and returns when both are done: half 1
// on the helper goroutine if it is idle, otherwise here, then half 0 here.
func (w *BatchWorkspace) split(phase func(*BatchWorkspace, int)) {
	helperOnce.Do(func() {
		helperTasks = make(chan *splitTask)
		go splitHelper()
	})
	t := &w.task
	t.w, t.phase = w, phase
	t.done.Add(1)
	select {
	case helperTasks <- t:
	default:
		t.run()
	}
	phase(w, 0)
	t.done.Wait()
}

// prepare sizes the per-job output buffers and sorts job indices by trellis
// length so equal-length frames run in lockstep. The sort is a stable
// insertion sort to stay allocation-free (batches are small).
func (w *BatchWorkspace) prepare(jobs []BatchJob) {
	tot := 0
	for i := range jobs {
		tot += jobs[i].NInfo
	}
	w.infoFlat = growB(w.infoFlat, tot)
	w.llrFlat = growF(w.llrFlat, tot)
	if cap(w.results) < len(jobs) {
		w.results = make([]BatchResult, len(jobs))
	}
	w.results = w.results[:len(jobs)]
	off := 0
	for i := range jobs {
		n := jobs[i].NInfo
		w.results[i] = BatchResult{
			Info: w.infoFlat[off : off+n : off+n],
			LLR:  w.llrFlat[off : off+n : off+n],
		}
		off += n
	}
	if cap(w.order) < len(jobs) {
		w.order = make([]int, len(jobs))
	}
	w.order = w.order[:len(jobs)]
	for i := range w.order {
		w.order[i] = i
	}
	for i := 1; i < len(w.order); i++ {
		j := w.order[i]
		k := i - 1
		for k >= 0 && jobs[w.order[k]].NInfo > jobs[j].NInfo {
			w.order[k+1] = w.order[k]
			k--
		}
		w.order[k+1] = j
	}
}

// groups invokes fn for each maximal run of equal-length jobs (chunked at
// maxBatchLanes) in w.order.
func (w *BatchWorkspace) groups(jobs []BatchJob, fn func(lanes []int)) {
	for lo := 0; lo < len(w.order); {
		hi := lo + 1
		n := jobs[w.order[lo]].NInfo
		for hi < len(w.order) && jobs[w.order[hi]].NInfo == n {
			hi++
		}
		for ; lo < hi; lo += maxBatchLanes {
			end := lo + maxBatchLanes
			if end > hi {
				end = hi
			}
			fn(w.order[lo:end])
		}
		lo = hi
	}
}

// transposeLLRs fills w.llrP with the group's LLRs in [t][lane] order over
// L lanes, zero-extending short inputs exactly like padLLRs; the pad lanes
// past len(lanes) get zeros.
func (w *BatchWorkspace) transposeLLRs(jobs []BatchJob, lanes []int, steps, L int) {
	w.llrP = growF(w.llrP, 2*steps*L)
	llrP := w.llrP
	for l := len(lanes); l < L; l++ {
		for t := 0; t < 2*steps; t++ {
			llrP[t*L+l] = 0
		}
	}
	for l, ji := range lanes {
		src := jobs[ji].LLRs
		if len(src) > 2*steps {
			src = src[:2*steps]
		}
		for t, v := range src {
			llrP[t*L+l] = v
		}
		for t := len(src); t < 2*steps; t++ {
			llrP[t*L+l] = 0
		}
	}
}

// stepBM fills the four branch-metric rows for trellis step t with exactly
// the branchMetrics arithmetic, lane by lane.
func stepBM(bmP, llrP []float64, t, L int) {
	r0 := llrP[2*t*L : (2*t+1)*L]
	r1 := llrP[(2*t+1)*L : (2*t+2)*L]
	b0 := bmP[0*L : 1*L]
	b1 := bmP[1*L : 2*L]
	b2 := bmP[2*L : 3*L]
	b3 := bmP[3*L : 4*L]
	for l := 0; l < L; l++ {
		l0, l1 := r0[l], r1[l]
		base := -0.5 * (l0 + l1)
		b0[l] = base
		b1[l] = base + l1
		b2[l] = base + l0
		b3[l] = (base + l0) + l1
	}
}

// anchorRow sets every element of a metric row to the sentinel except
// state 0 of the first n lanes, which anchors the terminated trellis at
// zero. A pad lane's row stays all sentinel, and so does every row its
// recursion builds from it: the kernels skip sentinel candidates without a
// Jacobian or a fixup, so pad lanes are inert.
func anchorRow(row []float64, n int) {
	for i := range row {
		row[i] = bcjrNegInf
	}
	for l := 0; l < n; l++ {
		row[l] = 0
	}
}

// normalizeLanes applies normalize to each lane of a [numStates][lanes]
// plane row: subtract the lane's maximum unless the lane is entirely
// sentinel. Full 4-lane groups run through the vector kernel on AVX2
// hardware (bit-identical; normalization is mode-independent arithmetic,
// so both BCJR modes use it); the ragged tail of a MaxLog group — and
// non-AVX2 configurations in full — run the scalar passes with the
// per-lane maxima staged in h.maxP. Per lane the comparison and
// subtraction order matches normalize exactly.
func (h *bcjrHalf) normalizeLanes(plane []float64, L int) {
	lo := 0
	if hasAVX512Jacobian {
		if nv := L &^ 7; nv > 0 {
			normalizeLanesAVX512(&plane[0], nv, L*8)
			lo = nv
		}
	}
	if hasFastJacobian {
		if nv := (L - lo) &^ 3; nv > 0 {
			normalizeLanesAVX2(&plane[lo], nv, L*8)
			lo += nv
		}
	}
	if lo == L {
		return
	}
	h.maxP = growF(h.maxP, L)
	maxP := h.maxP
	copy(maxP[lo:], plane[lo:L])
	for s := 1; s < numStates; s++ {
		row := plane[s*L : (s+1)*L : (s+1)*L]
		for l := lo; l < L; l++ {
			if x := row[l]; x > maxP[l] {
				maxP[l] = x
			}
		}
	}
	for s := 0; s < numStates; s++ {
		row := plane[s*L : (s+1)*L : (s+1)*L]
		for l := lo; l < L; l++ {
			if x := row[l]; x > bcjrNegInf && !(maxP[l] <= bcjrNegInf) {
				row[l] = x - maxP[l]
			}
		}
	}
}

// DecodeBCJRBatch decodes every job with the BCJR algorithm in lockstep and
// returns one result per job, in job order. Outputs are bit-identical to
// calling Workspace.DecodeBCJR per job. Results alias the workspace and are
// valid until the next Decode call on it.
func (w *BatchWorkspace) DecodeBCJRBatch(jobs []BatchJob, mode BCJRMode) []BatchResult {
	w.prepare(jobs)
	w.groups(jobs, func(lanes []int) {
		w.decodeBCJRGroup(jobs, lanes, mode)
	})
	return w.results
}

func (w *BatchWorkspace) decodeBCJRGroup(jobs []BatchJob, lanes []int, mode BCJRMode) {
	nInfo := jobs[lanes[0]].NInfo
	steps := nInfo + TailBits
	path, L, nw := planGroup(len(lanes), mode)
	w.transposeLLRs(jobs, lanes, steps, L)
	w.alphaP = growF(w.alphaP, (steps+1)*numStates*L)
	w.betaP = growF(w.betaP, (steps+1)*numStates*L)
	w.g = bcjrGroup{lanes: lanes, mode: mode, L: L, nInfo: nInfo, steps: steps,
		mid: nInfo / 2 / appBlockT * appBlockT, path: path, nw: nw}
	if path == narrowPath {
		w.split((*BatchWorkspace).recursionNarrow)
		w.split((*BatchWorkspace).appNarrow)
		return
	}
	w.split((*BatchWorkspace).recursion)
	w.split((*BatchWorkspace).app)
}

// recursion is Phase 1 for half h: the forward recursion over alphaP (h ==
// 0) or the backward one over betaP (h == 1). Each step's work depends on
// the step before, but the two directions never read each other's plane.
// Each step is one whole-step table walk, which rebuilds every destination
// row, so no sentinel initialization pass is needed: on the vector path
// the kernels walk the table's two 32-entry halves as their two legs,
// which keeps two independent Jacobian chains in the reorder window.
func (w *BatchWorkspace) recursion(h int) {
	g, hs := &w.g, &w.half[h]
	L, steps, rowSz := g.L, g.steps, numStates*g.L
	hs.bm = growF(hs.bm, 4*L)
	bm := hs.bm
	plane, table, anchor := w.alphaP, &fwdStepTable, 0
	if h == 1 {
		plane, table, anchor = w.betaP, &bwdStepTable, steps
	}
	anchorRow(plane[anchor*rowSz:(anchor+1)*rowSz], len(g.lanes))
	for k := 0; k < steps; k++ {
		t, src, dst := k, k, k+1
		if h == 1 {
			t = steps - 1 - k
			src, dst = t+1, t
		}
		stepBM(bm, w.llrP, t, L)
		s := plane[src*rowSz : (src+1)*rowSz : (src+1)*rowSz]
		d := plane[dst*rowSz : (dst+1)*rowSz : (dst+1)*rowSz]
		if g.path == scalarPath {
			stepCombineLanes(d, s, bm, table, 0, L, L, g.mode)
		} else {
			if g.nw > 0 && stepCombineDualAVX512(&d[0], &s[0], &bm[0], &d[0], &s[0], &bm[0],
				&table[0], &table[256], &hs.fix[0], &hs.fix[32], g.nw, L*8) != 0 {
				applyStepFixups(&hs.fix, d, s, bm, table, L, g.mode)
			}
			if lo := g.nw; lo < L && stepCombineDualAVX2(&d[lo], &s[lo], &bm[lo], &d[lo], &s[lo], &bm[lo],
				&table[0], &table[256], &hs.fix[0], &hs.fix[32], L-lo, L*8) != 0 {
				applyStepFixups(&hs.fix, d[lo:], s[lo:], bm[lo:], table, L, g.mode)
			}
		}
		hs.normalizeLanes(d, L)
	}
}

// app is Phase 2 for half h: APP accumulation over [0, mid) (h == 0) or
// [mid, nInfo) (h == 1), in blocks of appBlockT trellis steps. Each step's
// maxStar fold is serial by construction (the fold order is observable in
// the output bits), but the steps are mutually independent, so the block
// kernel interleaves them and hides the chain latency, and the two halves
// write disjoint outputs.
func (w *BatchWorkspace) app(h int) {
	g, hs := &w.g, &w.half[h]
	L, rowSz, stride := g.L, numStates*g.L, g.L*8
	lo, hi := 0, g.mid
	if h == 1 {
		lo, hi = g.mid, g.nInfo
	}
	alphaP, betaP := w.alphaP, w.betaP
	hs.growAPP(L)
	bmBlk, numBlk, denBlk := hs.bmBlk, hs.numBlk, hs.denBlk
	for t0 := lo; t0 < hi; t0 += appBlockT {
		ka := min(appBlockT, hi-t0)
		for j := 0; j < ka; j++ {
			stepBM(bmBlk[j*4*L:(j+1)*4*L:(j+1)*4*L], w.llrP, t0+j, L)
		}
		if g.path == scalarPath {
			for j := 0; j < ka; j++ {
				w.appRedo(hs, t0, j, 0, ^uint64(0)>>(64-L))
			}
		} else {
			if g.nw > 0 {
				stepAPPBlockAVX512(&numBlk[0], &denBlk[0], &alphaP[t0*rowSz], &betaP[(t0+1)*rowSz], &bmBlk[0], &appStepTable[0], &hs.appAcc[0], g.nw, stride, ka)
				for j := 0; j < ka; j++ {
					w.appRedo(hs, t0, j, 0, hs.appAcc[j*17+16]) // acc record {den[8], num[8], fix}
				}
			}
			if l0 := g.nw; l0 < L {
				stepAPPBlockAVX2(&numBlk[l0], &denBlk[l0], &alphaP[t0*rowSz+l0], &betaP[(t0+1)*rowSz+l0], &bmBlk[l0], &appStepTable[0], &hs.appAcc[0], L-l0, stride, ka)
				for j := 0; j < ka; j++ {
					w.appRedo(hs, t0, j, l0, hs.appAcc[j*9+8]) // acc record {den[4], num[4], fix}
				}
			}
		}
		for j := 0; j < ka; j++ {
			for l, ji := range g.lanes {
				w.results[ji].put(t0+j, numBlk[j*L+l]-denBlk[j*L+l])
			}
		}
	}
}

// growAPP sizes the APP block scratch for L lanes.
func (hs *bcjrHalf) growAPP(L int) {
	hs.bmBlk = growF(hs.bmBlk, appBlockT*4*L)
	hs.numBlk = growF(hs.numBlk, appBlockT*L)
	hs.denBlk = growF(hs.denBlk, appBlockT*L)
	if cap(hs.appAcc) < appBlockT*17 {
		hs.appAcc = make([]uint64, appBlockT*17)
	}
	hs.appAcc = hs.appAcc[:appBlockT*17]
}

// put stores information bit t's APP LLR and hard decision.
func (r *BatchResult) put(t int, llr float64) {
	r.LLR[t] = llr
	if llr >= 0 {
		r.Info[t] = 1
	} else {
		r.Info[t] = 0
	}
}

// appRedo recomputes with appLane the APP accumulators of block step j
// (trellis step t0+j) for the lanes l0+l with bit l set in mask.
func (w *BatchWorkspace) appRedo(hs *bcjrHalf, t0, j, l0 int, mask uint64) {
	g := &w.g
	L, rowSz, t := g.L, numStates*g.L, t0+j
	at := w.alphaP[t*rowSz : (t+1)*rowSz : (t+1)*rowSz]
	bt := w.betaP[(t+1)*rowSz : (t+2)*rowSz : (t+2)*rowSz]
	bmj := hs.bmBlk[j*4*L : (j+1)*4*L : (j+1)*4*L]
	for mask != 0 {
		l := l0 + bits.TrailingZeros64(mask)
		mask &= mask - 1
		hs.numBlk[j*L+l], hs.denBlk[j*L+l] = appLane(at, bt, bmj, L, l, g.mode)
	}
}

// stepNarrow runs one narrow recursion step over a frame's [state] rows,
// forward (dir 0) or backward (dir 1), and redoes the flagged states with
// stepCombineEntry.
func stepNarrow(dir int, dst, src []float64, bm *[4]float64) {
	_, _ = dst[numStates-1], src[numStates-1]
	table := &fwdStepTable
	var fixed uint64
	if dir == 0 {
		fixed = stepNarrowFwdAVX2(&dst[0], &src[0], &bm[0], &narrowPerm[0][0][0][0])
	} else {
		table = &bwdStepTable
		fixed = stepNarrowBwdAVX2(&dst[0], &src[0], &bm[0], &narrowPerm[1][0][0][0])
	}
	for ; fixed != 0; fixed &= fixed - 1 {
		ent := table[bits.TrailingZeros64(fixed)*8:][:8]
		dst[ent[0]] = stepCombineEntry(ent, src, bm[:], 1, 0, LogMAP)
	}
}

// recursionNarrow is Phase 1 on the narrow path: half h runs its direction
// frame after frame, each over the frame's own plane, with one narrow
// kernel call and one normalize per step.
func (w *BatchWorkspace) recursionNarrow(h int) {
	g := &w.g
	L, steps := g.L, g.steps
	planeSz := (steps + 1) * numStates
	planes, anchor := w.alphaP, 0
	if h == 1 {
		planes, anchor = w.betaP, steps
	}
	for l := 0; l < L; l++ {
		plane := planes[l*planeSz : (l+1)*planeSz : (l+1)*planeSz]
		anchorRow(plane[anchor*numStates:(anchor+1)*numStates], 1)
		for k := 0; k < steps; k++ {
			t, src, dst := k, k, k+1
			if h == 1 {
				t = steps - 1 - k
				src, dst = t+1, t
			}
			bm := branchMetrics(w.llrP[2*t*L+l], w.llrP[(2*t+1)*L+l])
			d := plane[dst*numStates : (dst+1)*numStates : (dst+1)*numStates]
			stepNarrow(h, d, plane[src*numStates:(src+1)*numStates], &bm)
			normalize(d)
		}
	}
}

// appNarrow is Phase 2 on the narrow path: half h accumulates its range
// frame after frame, in blocks of up to appBlockT quads of consecutive
// trellis steps. A quad's α_t and β_{t+1} rows are transposed so that its
// steps sit side by side like the lanes of a frame-parallel group; a block
// may run up to three steps past the range (the planes hold TailBits more)
// and those outputs are dropped.
func (w *BatchWorkspace) appNarrow(h int) {
	const q = 4 // consecutive trellis steps per block kernel lane group
	g, hs := &w.g, &w.half[h]
	L, planeSz := g.L, (g.steps+1)*numStates
	lo, hi := 0, g.mid
	if h == 1 {
		lo, hi = g.mid, g.nInfo
	}
	hs.growAPP(q)
	hs.alphaQ = growF(hs.alphaQ, appBlockT*numStates*q)
	hs.betaQ = growF(hs.betaQ, appBlockT*numStates*q)
	numBlk, denBlk := hs.numBlk, hs.denBlk
	for l, ji := range g.lanes {
		alpha := w.alphaP[l*planeSz : (l+1)*planeSz : (l+1)*planeSz]
		beta := w.betaP[l*planeSz : (l+1)*planeSz : (l+1)*planeSz]
		bmAt := func(t int) [4]float64 { return branchMetrics(w.llrP[2*t*L+l], w.llrP[(2*t+1)*L+l]) }
		r := &w.results[ji]
		for t0 := lo; t0 < hi; t0 += q * appBlockT {
			n := min(q*appBlockT, hi-t0)
			k := (n + q - 1) / q
			for i := 0; i < k*q; i++ {
				t, j, c := t0+i, i/q, i%q
				aq := hs.alphaQ[j*numStates*q : (j+1)*numStates*q]
				bq := hs.betaQ[j*numStates*q : (j+1)*numStates*q]
				for s, v := range alpha[t*numStates : (t+1)*numStates] {
					aq[s*q+c] = v
				}
				for s, v := range beta[(t+1)*numStates : (t+2)*numStates] {
					bq[s*q+c] = v
				}
				for o, v := range bmAt(t) {
					hs.bmBlk[(j*4+o)*q+c] = v
				}
			}
			stepAPPBlockAVX2(&numBlk[0], &denBlk[0], &hs.alphaQ[0], &hs.betaQ[0], &hs.bmBlk[0], &appStepTable[0], &hs.appAcc[0], q, q*8, k)
			for j := 0; j < k; j++ {
				for mask := hs.appAcc[j*9+8]; mask != 0; mask &= mask - 1 {
					i := j*q + bits.TrailingZeros64(mask)
					t := t0 + i
					bm := bmAt(t)
					numBlk[i], denBlk[i] = appLane(alpha[t*numStates:(t+1)*numStates], beta[(t+1)*numStates:(t+2)*numStates], bm[:], 1, 0, g.mode)
				}
			}
			for i := 0; i < n; i++ {
				r.put(t0+i, numBlk[i]-denBlk[i])
			}
		}
	}
}
