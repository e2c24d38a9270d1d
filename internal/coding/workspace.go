package coding

// Workspace holds the scratch memory of the soft decoders so that the
// simulation hot path (one decode per received segment, thousands per
// experiment) performs zero heap allocations in steady state. A Workspace
// is owned by one goroutine at a time — the experiment engine hands one to
// each worker — and the slices returned by its Decode methods alias its
// internal buffers: they are valid until the next call on the same
// Workspace, so callers must consume (or copy) them before decoding again.
//
// Reuse is contractually invisible: for any input, a warm Workspace
// produces bit-for-bit the same output as the allocating package-level
// functions (FuzzDecodeWorkspaceReuse pins this).
type Workspace struct {
	// bcjr runs DecodeBCJR as a one-job batch: its planes are the BCJR
	// trellis planes and its results back the decoded-bit and APP-LLR
	// return values. job is that batch.
	bcjr BatchWorkspace
	job  [1]BatchJob
	// metric and next are the Viterbi path-metric rows.
	metric, next []float64
	// survivors is the Viterbi traceback plane, stored row-major:
	// survivors[t*numStates+s].
	survivors []uint8
	// padded holds zero-extended channel LLRs when a caller passes a short
	// slice to DecodeViterbi.
	padded []float64
	// info backs DecodeViterbi's return value.
	info []byte
}

// growF returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers fully initialize what
// they read.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growB is growF for byte slices.
func growB(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// padLLRs zero-extends llrs to 2*steps entries using the workspace pad
// buffer, mirroring the padding the package-level decoders apply.
func (w *Workspace) padLLRs(llrs []float64, steps int) []float64 {
	if len(llrs) >= 2*steps {
		return llrs
	}
	w.padded = growF(w.padded, 2*steps)
	n := copy(w.padded, llrs)
	for i := n; i < 2*steps; i++ {
		w.padded[i] = 0
	}
	return w.padded
}
