//go:build !amd64

package channel

// Non-amd64 builds evaluate the fading process with the scalar loop.
const hasCosKernel = false

func cosLanesAVX2(dst, w, phi *float64, t float64, n int) uint64 {
	panic("channel: cosLanesAVX2 without amd64 vector support")
}
