//go:build amd64

package vmath

import (
	"math"

	"softrate/internal/cpufeat"
)

// Each kernel runs only where its CPU features hold and its init probe
// returns package math's bits on every probe lane.
var (
	expKernelOK = cpufeat.AVX2 && cpufeat.FMA && probeUnary(expFn, math.Exp, expProbes())
	logKernelOK = cpufeat.AVX2 && probeUnary(logFn, math.Log, logProbes())
	addKernelOK = cpufeat.AVX2 && cpufeat.FMA && probeLogAdd()
	cosKernelOK = cpufeat.AVX2 && probeCos()
)

// expLanesAVX2 sets dst[i] = math.Exp(x[i]) over n lanes (n a multiple
// of 4, at most 64) and returns the fixup mask (bit i = lane i) of the
// lanes it left holding x[i].
//
//go:noescape
func expLanesAVX2(dst, x *float64, n int) uint64

// logLanesAVX2 is expLanesAVX2 for math.Log.
//
//go:noescape
func logLanesAVX2(dst, x *float64, n int) uint64

// logAddLanesAVX2 sets dst[i] = LogAdd(a[i], b[i]) over n lanes (n a
// multiple of 4, at most 64) and returns the fixup mask (bit i = lane i)
// of the lanes it left holding a[i].
//
//go:noescape
func logAddLanesAVX2(dst, a, b *float64, n int) uint64

// cosLanesAVX2 sets dst[i] = math.Cos(w[i]*t + phi[i]) over n lanes (n a
// multiple of 4, at most 64), except the lanes flagged in the returned
// mask (bit i = lane i), whose dst values are garbage.
//
//go:noescape
func cosLanesAVX2(dst, w, phi *float64, t float64, n int) uint64

// probeUnary reports whether k's kernel returns math's bits, f's, on
// every lane of xs.
func probeUnary(k fn, f func(float64) float64, xs []float64) bool {
	dst := make([]float64, len(xs))
	unary(k, dst, xs)
	for i, x := range xs {
		if math.Float64bits(dst[i]) != math.Float64bits(f(x)) {
			return false
		}
	}
	return true
}

// expProbes spans math.Exp's whole domain, past both ends.
func expProbes() []float64 {
	xs := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300}
	for i := range 256 {
		xs = append(xs, float64(i-128)*5.6+float64(i%13)*0.0123456789)
	}
	return xs
}

// logProbes spans the exponent range with mantissas across the √2/2
// adjustment.
func logProbes() []float64 {
	xs := []float64{1, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1)}
	for i := range 256 {
		xs = append(xs, math.Ldexp(0.5+float64(i)/512, i*8-1020))
	}
	return xs
}

// probeLogAdd reports whether the LogAdd kernel returns LogAdd's bits on
// differences across every branch it replays: zero, Log1p's k = 1 and k =
// 0 paths around √2-1, its x - x*x/2 path below 2^-29 (d above 20.1, and
// at 21.6146… where that path and the k = 0 one round apart), the cutoff
// at 30 and past it, both argument orders and negative sums.
func probeLogAdd() bool {
	var a, b, dst [64]float64
	for i := range a {
		d := float64(i) * 0.49
		if i == 63 {
			d = 30
		}
		a[i] = -float64(i%7) * 3.3
		b[i] = a[i] - d
		if i%2 == 1 {
			a[i], b[i] = b[i], a[i]
		}
	}
	b[5] = a[5] - math.Nextafter(-math.Log(math.Sqrt2-1), 0)
	a[6], b[6] = 0, -21.614653927312236
	addKernel(dst[:], a[:], b[:])
	for i := range dst {
		if math.Float64bits(dst[i]) != math.Float64bits(LogAdd(a[i], b[i])) {
			return false
		}
	}
	return true
}

// probeCos reports whether the cosine kernel and the sums kernel return
// math.Cos's bits, and its sums, on a spread of arguments in every octant.
func probeCos() bool {
	var dst, w, phi [64]float64
	for i := range w {
		w[i] = float64(i-32) * 97.3
		phi[i] = float64(i%17)*0.37 - 3
	}
	const t = 0.0123
	cosKernel(len(dst), dst[:], w[:], phi[:], t)
	for i, d := range dst {
		if math.Float64bits(d) != math.Float64bits(math.Cos(w[i]*t+phi[i])) {
			return false
		}
	}
	ts := [8]float64{0, t, 0.5, 1, 2.25, 3, 7.5, 9}
	cosSumsAVX2(&dst[0], &ts[0], &w[0], &phi[0], len(w), len(ts))
	for j, d := range dst[:len(ts)] {
		if math.Float64bits(d) != math.Float64bits(cosSum(ts[j], w[:], phi[:])) {
			return false
		}
	}
	return true
}

// cosSumsAVX2 sets dst[j] = Σ_{k<n} math.Cos(w[k]*ts[j] + phi[k]), added
// from zero in ascending k, over m lanes (m a multiple of 4, at most 64;
// n at least 1), except the lanes flagged in the returned mask (bit j =
// lane j), whose dst values are garbage.
//
//go:noescape
func cosSumsAVX2(dst, ts, w, phi *float64, n, m int) uint64
