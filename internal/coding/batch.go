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
// A BCJR group runs in two phases of two halves each, over one trellis
// plane whose row r holds α_r for r ≤ mid and β_r above it: the forward and
// backward recursions meet in the middle. In Phase 1 half 0 runs α from the
// anchor to row mid and half 1 runs β from row steps down to row mid+1;
// neither reads the other's rows. In Phase 2 each half accumulates the APP
// over its own trellis range, stepping the other direction on from the
// meeting rows into a block buffer of its own: half 0 steps β backward
// from row mid+1 over [0, mid), half 1 steps α forward from row mid over
// [mid, nInfo). Each half has its own scratch (bcjrHalf), so the second
// half of each phase can run on a package-level helper goroutine while the
// caller runs the first: a decode uses two cores when the helper is idle
// and runs both halves itself when another workspace holds it. The
// arithmetic is the same either way, and each APP step reads the α_t and
// β_{t+1} that full α and β planes would hold, made by the same kernels.
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

// appBlockT is how many trellis steps Phase 2 steps on into a half's block
// buffer (and the APP block kernel interleaves) at a time.
const appBlockT = 8

// BatchJob describes one frame's decode within a batch: the rate-1/2
// channel LLR lattice (after DepunctureInto for punctured rates; short
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
	// llrP is the group's [2*steps][lanes] channel LLRs: llrT, or a lone
	// frame's own lattice read in place (transposeLLRs).
	llrP []float64
	llrT []float64 // the transposed LLRs of a group of two or more
	// plane is the group's trellis plane, stored
	// [(steps+1)*numStates][lanes] — or, on the narrow path, one
	// [(steps+1)*numStates] plane per lane, lane after lane. Row r holds
	// α_r for r ≤ mid and β_r for r > mid.
	plane []float64
	g     bcjrGroup
	half  [2]bcjrHalf
	task  Splitter
	phase phaseHalves

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
	mid             int // where α meets β and Phase 2 splits, an appBlockT boundary
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
	bm   []float64  // [4][lanes] recursion step branch metric rows
	maxP []float64  // [lanes] normalizeLanes per-lane maxima
	fix  [64]uint64 // step kernel fixup lane masks, by table entry
	// blk holds the rows Phase 2 steps on past the meeting rows (stepOn),
	// [appBlockT][numStates][lanes] — one frame's on the narrow path — with
	// trellis step t's row at t%appBlockT: β_{t+1} for half 0, α_t for
	// half 1.
	blk    []float64
	bmBlk  []float64 // [appBlockT*4][lanes] APP block branch metric rows
	numBlk []float64 // [appBlockT][lanes] APP accumulators, input 1
	denBlk []float64 // [appBlockT][lanes] APP accumulators, input 0
	appAcc []uint64  // [appBlockT*17] block kernel acc records + fix words
	// The narrow APP pass hands the block kernel four consecutive trellis
	// steps of one frame as its four lanes: alphaQ and betaQ are
	// [narrowQuads][numStates][4] transposes of α_t and β_{t+1}, and bmBlk
	// holds [narrowQuads][4][4] branch metrics.
	alphaQ, betaQ []float64
}

// Halves is work that runs as two independent halves, Half(0) and
// Half(1), which may run at the same time on two goroutines.
type Halves interface{ Half(h int) }

// Splitter hands half 1 of a Halves to the helper goroutine, one per
// process and shared by every package that splits work. Its zero value is
// ready; each owner keeps one, so a handoff allocates nothing, and runs
// one Split on it at a time.
type Splitter struct {
	x    Halves
	done sync.WaitGroup
}

func (s *Splitter) run() {
	s.x.Half(1)
	s.done.Done()
}

// The helper goroutine starts with the first split and lives for the rest
// of the process, parked in its receive while no split needs it.
var (
	helperOnce  sync.Once
	helperTasks chan *Splitter // unbuffered: a send succeeds only while the helper waits
	helperRuns  atomic.Uint64  // halves the helper has run; tests read it
)

func splitHelper() {
	for s := range helperTasks {
		helperRuns.Add(1)
		s.run()
	}
}

// Split runs x's two halves and returns when both are done: half 1 on the
// helper goroutine if it is idle, otherwise here, then half 0 here. It
// reports whether the helper ran half 1.
func (s *Splitter) Split(x Halves) (helped bool) {
	helperOnce.Do(func() {
		helperTasks = make(chan *Splitter)
		go splitHelper()
	})
	s.x = x
	s.done.Add(1)
	select {
	case helperTasks <- s:
		helped = true
	default:
		s.run()
	}
	x.Half(0)
	s.done.Wait()
	s.x = nil
	return helped
}

// phaseHalves is one phase of the group being decoded as a Halves.
type phaseHalves struct {
	w  *BatchWorkspace
	fn func(*BatchWorkspace, int)
}

func (p *phaseHalves) Half(h int) { p.fn(p.w, h) }

// split runs phase over both halves through the workspace's Splitter.
func (w *BatchWorkspace) split(phase func(*BatchWorkspace, int)) {
	w.phase = phaseHalves{w, phase}
	w.task.Split(&w.phase)
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

// transposeLLRs points w.llrP at the group's LLRs in [t][lane] order over
// L lanes, zero-extending short inputs exactly like padLLRs; the pad lanes
// past len(lanes) get zeros. A lone frame whose lattice is long enough is
// already in that order and is read in place; any other group is copied
// into w.llrT.
func (w *BatchWorkspace) transposeLLRs(jobs []BatchJob, lanes []int, steps, L int) {
	if src := jobs[lanes[0]].LLRs; L == 1 && len(src) >= 2*steps {
		w.llrP = src[:2*steps]
		return
	}
	w.llrT = growF(w.llrT, 2*steps*L)
	llrP := w.llrT
	w.llrP = llrP
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
	w.llrP = nil // may alias a job's lattice
	return w.results
}

func (w *BatchWorkspace) decodeBCJRGroup(jobs []BatchJob, lanes []int, mode BCJRMode) {
	nInfo := jobs[lanes[0]].NInfo
	steps := nInfo + TailBits
	path, L, nw := planGroup(len(lanes), mode)
	w.transposeLLRs(jobs, lanes, steps, L)
	w.plane = growF(w.plane, (steps+1)*numStates*L)
	w.g = bcjrGroup{lanes: lanes, mode: mode, L: L, nInfo: nInfo, steps: steps,
		mid: nInfo / 2 / appBlockT * appBlockT, path: path, nw: nw}
	w.split((*BatchWorkspace).recursion)
	if path == narrowPath {
		w.split((*BatchWorkspace).appNarrow)
		return
	}
	w.split((*BatchWorkspace).app)
}

// row returns plane row r: frame l's own row on the narrow path, the
// group's row (l is 0) on the others.
func (w *BatchWorkspace) row(l, r int) []float64 {
	n, off := numStates*w.g.L, 0
	if w.g.path == narrowPath {
		n, off = numStates, l*(w.g.steps+1)*numStates
	}
	off += r * n
	return w.plane[off : off+n : off+n]
}

// step runs one recursion step from row s into row d and normalizes d:
// forward from α_t to α_{t+1} (dir 0) or backward from β_{t+1} to β_t
// (dir 1), for the whole group or, on the narrow path, frame l. Each step
// is one whole-step table walk, which rebuilds every destination row, so
// no sentinel initialization pass is needed: on the vector path the
// kernels walk the table's two 32-entry halves as their two legs, which
// keeps two independent Jacobian chains in the reorder window.
func (w *BatchWorkspace) step(hs *bcjrHalf, dir, t, l int, d, s []float64) {
	g := &w.g
	L := g.L
	if g.path == narrowPath {
		bm := branchMetrics(w.llrP[2*t*L+l], w.llrP[(2*t+1)*L+l])
		stepNarrow(dir, d, s, &bm)
		normalize(d)
		return
	}
	table := &fwdStepTable
	if dir == 1 {
		table = &bwdStepTable
	}
	hs.bm = growF(hs.bm, 4*L)
	bm := hs.bm
	stepBM(bm, w.llrP, t, L)
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

// recursion is Phase 1 for half h: α from the anchor at row 0 up to row
// mid (h == 0), or β from the anchor at row steps down to row mid+1 (h ==
// 1), over the group's plane or frame after frame over the narrow path's.
// Each step depends on the one before, but the halves write disjoint rows
// and read none of each other's.
func (w *BatchWorkspace) recursion(h int) {
	g, hs := &w.g, &w.half[h]
	frames, anchored := 1, len(g.lanes)
	if g.path == narrowPath {
		frames, anchored = g.L, 1
	}
	for l := 0; l < frames; l++ {
		if h == 0 {
			anchorRow(w.row(l, 0), anchored)
			for t := 0; t < g.mid; t++ {
				w.step(hs, 0, t, l, w.row(l, t+1), w.row(l, t))
			}
			continue
		}
		anchorRow(w.row(l, g.steps), anchored)
		for t := g.steps - 1; t > g.mid; t-- {
			w.step(hs, 1, t, l, w.row(l, t), w.row(l, t+1))
		}
	}
}

// stepOn steps half h's Phase 2 recursion on to trellis step t and returns
// the row it made, hs.blk's row t%appBlockT: for half 0 β_{t+1}, stepped
// backward from β_{t+2} (the plane's row mid+1 at t = mid-1); for half 1
// α_t, stepped forward from α_{t-1} (at t = mid, a copy of the plane's
// row). Half 0 goes down from t = mid-1 and half 1 up from t = mid, one
// step at a time.
func (w *BatchWorkspace) stepOn(hs *bcjrHalf, h, l, t int) []float64 {
	n := len(w.row(l, 0))
	ring := func(t int) []float64 {
		r := t % appBlockT * n
		return hs.blk[r : r+n : r+n]
	}
	switch mid := w.g.mid; {
	case h == 0 && t == mid-1:
		w.step(hs, 1, t+1, l, ring(t), w.row(l, t+2))
	case h == 0:
		w.step(hs, 1, t+1, l, ring(t), ring(t+1))
	case t == mid:
		copy(ring(t), w.row(l, t))
	default:
		w.step(hs, 0, t-1, l, ring(t), ring(t-1))
	}
	return ring(t)
}

// blocks calls fn(t0, n) for each block [t0, t0+n) of half h's Phase 2
// range, n at most span, in the order its recursion runs: [0, mid) from
// the last block back, [mid, nInfo) from the first on.
func (g *bcjrGroup) blocks(h, span int, fn func(t0, n int)) {
	if h == 0 {
		for t0 := (g.mid - 1) &^ (span - 1); t0 >= 0; t0 -= span {
			fn(t0, min(span, g.mid-t0))
		}
		return
	}
	for t0 := g.mid; t0 < g.nInfo; t0 += span {
		fn(t0, min(span, g.nInfo-t0))
	}
}

// app is Phase 2 for half h on the vector and scalar paths, in blocks of
// appBlockT trellis steps whose stepped rows (stepOn) fill hs.blk in
// order, each block's over the one before's: half 0 reads its α_t from the
// plane and β_{t+1} from hs.blk, half 1 its α_t from hs.blk and β_{t+1}
// from the plane.
func (w *BatchWorkspace) app(h int) {
	g, hs := &w.g, &w.half[h]
	L, rowSz := g.L, numStates*g.L
	hs.growAPP(L)
	hs.blk = growF(hs.blk, appBlockT*rowSz)
	g.blocks(h, appBlockT, func(t0, n int) {
		alpha, beta := w.plane[t0*rowSz:], hs.blk
		if h == 1 {
			alpha, beta = hs.blk, w.plane[(t0+1)*rowSz:]
		}
		for i := 0; i < n; i++ {
			j := i // half 0 steps β down, half 1 α up
			if h == 0 {
				j = n - 1 - i
			}
			w.stepOn(hs, h, 0, t0+j)
			stepBM(hs.bmBlk[j*4*L:(j+1)*4*L:(j+1)*4*L], w.llrP, t0+j, L)
		}
		hs.appKernel(g.path == scalarPath, g.nw, L, n, alpha, beta, g.mode)
		for j := 0; j < n; j++ {
			for l, ji := range g.lanes {
				w.results[ji].put(t0+j, hs.numBlk[j*L+l]-hs.denBlk[j*L+l])
			}
		}
	})
}

// appKernel accumulates k APP steps of L lanes — α_t rows from alpha[0],
// β_{t+1} rows from beta[0], branch metric rows in hs.bmBlk — into
// hs.numBlk and hs.denBlk. Each step's maxStar fold is serial by
// construction (the fold order is observable in the output bits), but the
// steps are mutually independent, so the block kernels interleave them and
// hide the chain latency. Lanes they flag are redone with appLane, as is
// every lane when scalar is set; nw leading lanes go through the AVX-512
// kernel.
func (hs *bcjrHalf) appKernel(scalar bool, nw, L, k int, alpha, beta []float64, mode BCJRMode) {
	rowSz, stride := numStates*L, L*8
	redo := func(j, l0 int, mask uint64) {
		at := alpha[j*rowSz : (j+1)*rowSz : (j+1)*rowSz]
		bt := beta[j*rowSz : (j+1)*rowSz : (j+1)*rowSz]
		bmj := hs.bmBlk[j*4*L : (j+1)*4*L : (j+1)*4*L]
		for ; mask != 0; mask &= mask - 1 {
			l := l0 + bits.TrailingZeros64(mask)
			hs.numBlk[j*L+l], hs.denBlk[j*L+l] = appLane(at, bt, bmj, L, l, mode)
		}
	}
	if scalar {
		for j := 0; j < k; j++ {
			redo(j, 0, ^uint64(0)>>(64-L))
		}
		return
	}
	if nw > 0 {
		stepAPPBlockAVX512(&hs.numBlk[0], &hs.denBlk[0], &alpha[0], &beta[0], &hs.bmBlk[0], &appStepTable[0], &hs.appAcc[0], nw, stride, k)
		for j := 0; j < k; j++ {
			redo(j, 0, hs.appAcc[j*17+16]) // acc record {den[8], num[8], fix}
		}
	}
	if l0 := nw; l0 < L {
		stepAPPBlockAVX2(&hs.numBlk[l0], &hs.denBlk[l0], &alpha[l0], &beta[l0], &hs.bmBlk[l0], &appStepTable[0], &hs.appAcc[0], L-l0, stride, k)
		for j := 0; j < k; j++ {
			redo(j, l0, hs.appAcc[j*9+8]) // acc record {den[4], num[4], fix}
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

// narrowQuads is how many quads of trellis steps one narrow APP block
// kernel call interleaves.
const narrowQuads = 4

// appNarrow is Phase 2 on the narrow path: half h walks its range frame
// after frame, in blocks of up to narrowQuads quads of consecutive trellis
// steps, stepping its recursion on as app does. A quad's α_t and β_{t+1}
// rows are transposed so that its steps sit side by side like the lanes of
// a frame-parallel group. [0, mid) is a whole number of quads; a block of
// [mid, nInfo) may run up to three steps past nInfo — α is stepped on into
// them and the plane holds TailBits more rows of β — and those outputs are
// dropped.
func (w *BatchWorkspace) appNarrow(h int) {
	const q = 4 // consecutive trellis steps per block kernel lane group
	g, hs := &w.g, &w.half[h]
	L := g.L
	hs.growAPP(q)
	hs.alphaQ = growF(hs.alphaQ, narrowQuads*numStates*q)
	hs.betaQ = growF(hs.betaQ, narrowQuads*numStates*q)
	hs.blk = growF(hs.blk, appBlockT*numStates)
	for l, ji := range g.lanes {
		r := &w.results[ji]
		g.blocks(h, q*narrowQuads, func(t0, n int) {
			k := (n + q - 1) / q
			for x := 0; x < k*q; x++ {
				i := x // half 0 steps β down, half 1 α up
				if h == 0 {
					i = k*q - 1 - x
				}
				t, j, c := t0+i, i/q, i%q
				var at, bt []float64
				if h == 0 {
					at, bt = w.row(l, t), w.stepOn(hs, h, l, t)
				} else {
					at, bt = w.stepOn(hs, h, l, t), w.row(l, t+1)
				}
				aq := hs.alphaQ[j*numStates*q : (j+1)*numStates*q]
				bq := hs.betaQ[j*numStates*q : (j+1)*numStates*q]
				for s := 0; s < numStates; s++ {
					aq[s*q+c], bq[s*q+c] = at[s], bt[s]
				}
				for o, v := range branchMetrics(w.llrP[2*t*L+l], w.llrP[(2*t+1)*L+l]) {
					hs.bmBlk[(j*4+o)*q+c] = v
				}
			}
			hs.appKernel(false, 0, q, k, hs.alphaQ, hs.betaQ, g.mode)
			for i := 0; i < n; i++ {
				r.put(t0+i, hs.numBlk[i]-hs.denBlk[i])
			}
		})
	}
}
