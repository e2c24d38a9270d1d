//go:build !amd64

package vmath

// Off amd64 every lane runs package math.
const (
	expKernelOK  = false
	logKernelOK  = false
	addKernelOK  = false
	cos4KernelOK = false
	cos8KernelOK = false
)

func expLanesAVX2(dst, x *float64, n int) uint64 { panic("vmath: no vector kernels off amd64") }
func logLanesAVX2(dst, x *float64, n int) uint64 { panic("vmath: no vector kernels off amd64") }

func logAddLanesAVX2(dst, a, b *float64, n int) uint64 {
	panic("vmath: no vector kernels off amd64")
}

func cosLanesAVX2(dst, w, phi *float64, t float64, n int) uint64 {
	panic("vmath: no vector kernels off amd64")
}

func cosSumsAVX2(dst, ts, w, phi *float64, n, m int) uint64 {
	panic("vmath: no vector kernels off amd64")
}

func cosSumsAVX512(dst, ts, w, phi *float64, n, m int) uint64 {
	panic("vmath: no vector kernels off amd64")
}
