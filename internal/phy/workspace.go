package phy

// Workspace holds the per-worker scratch memory of the PHY chain so that
// steady-state transmit and receive perform zero heap allocations. A
// Workspace is owned by one goroutine at a time — the experiment engine
// hands one to each worker — and the Transmission and Reception values
// produced through it alias its internal buffers: a Transmission is valid
// until the next TransmitWS call on the same Workspace, a Reception until
// the next ReceiveWS or FlushReceptions call. Every reception, one frame
// or a batch, runs through the receive queue (batch.go).
//
// Reuse is contractually invisible: for identical inputs (including the
// noise stream), the workspace chain produces bit-for-bit the same frames,
// hints and verdicts as a fresh workspace (and as the allocating Transmit).
type Workspace struct {
	// Receive-side scratch: one delivery's per-symbol gains and
	// interference variances.
	gains []complex128
	ivar  []float64

	// The receive queue (QueueReceive / FlushReceptions, batch.go).
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
