package phy

import (
	"softrate/internal/coding"
)

// Workspace holds the per-worker scratch memory of the PHY chain so that
// steady-state transmit and receive perform zero heap allocations. A
// Workspace is owned by one goroutine at a time — the experiment engine
// hands one to each worker — and the Transmission and Reception values
// produced through it alias its internal buffers: they are valid until the
// next TransmitWS / ReceiveWS call on the same Workspace.
//
// Reuse is contractually invisible: for identical inputs (including the
// noise stream), the workspace chain produces bit-for-bit the same frames,
// hints and verdicts as a fresh workspace (and as the allocating Transmit).
type Workspace struct {
	// Coding is the decoder scratch (BCJR/Viterbi planes), exported so
	// callers driving the decoders directly can share one set of planes
	// with the full receive chain.
	Coding coding.Workspace

	// Receive-side scratch.
	gains    []complex128
	ivar     []float64
	tones    []complex128 // one segment's received tones
	lattice  []float64    // its depunctured LLRs
	hints    []float64
	hdrBytes []byte
	body     []byte
	rec      Reception

	// Batched receive state (QueueReceive / FlushReceptions, batch.go).
	bq batchQueue

	// Transmit-side scratch.
	tx          Transmission
	hdrFrame    []byte
	bodyFrame   []byte
	hdrInfo     []byte
	info        []byte
	coded       []byte
	punct       []byte
	inter       []byte
	hdrSymFlat  []complex128
	dataSymFlat []complex128
	hdrSyms     [][]complex128
	dataSyms    [][]complex128
}

// NewWorkspace returns an empty workspace; buffers grow to their working
// sizes during the first frames and are reused thereafter.
func NewWorkspace() *Workspace { return &Workspace{} }

// growC returns buf resized to n complex entries, reallocating only when
// capacity is insufficient. Contents are unspecified.
func growC(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// growF is growC for float64 slices.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
