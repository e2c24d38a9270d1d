//go:build amd64

package channel

import "softrate/internal/cpufeat"

// hasCosKernel selects cosLanesAVX2 for Rayleigh.Gain. The kernel uses
// no FMA, so AVX2 alone is enough.
var hasCosKernel = cpufeat.AVX2

// cosLanesAVX2 sets dst[i] = math.Cos(w[i]*t + phi[i]) bit for bit over
// n lanes (n a multiple of 4, at most 64), except the lanes flagged in the
// returned mask (bit i = lane i), whose dst values are garbage.
//
//go:noescape
func cosLanesAVX2(dst, w, phi *float64, t float64, n int) uint64
