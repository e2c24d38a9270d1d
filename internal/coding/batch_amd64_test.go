package coding

import "testing"

// TestAVX2WideDecodeMatchesSingle reruns the batch-vs-single suite with the
// AVX-512 kernels off, so that groups of eight or more lanes run wholly
// through the AVX2 kernels (nw == 0), as on an AVX2-only host. No decode
// runs between tests, so the helper goroutine is idle while the flag
// changes and reads it only in a later split.
func TestAVX2WideDecodeMatchesSingle(t *testing.T) {
	if !hasAVX512Jacobian {
		t.Skip("no AVX-512 kernels on this host: TestDecodeBCJRBatchMatchesSingle runs the AVX2 path")
	}
	hasAVX512Jacobian = false
	defer func() { hasAVX512Jacobian = true }()
	if path, L, nw := planGroup(12, LogMAP); path != vectorPath || L != 12 || nw != 0 {
		t.Fatalf("planGroup(12) = path %d, L %d, nw %d; want the vector path, 12 lanes, none wide", path, L, nw)
	}
	TestDecodeBCJRBatchMatchesSingle(t)
}
