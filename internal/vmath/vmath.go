// Package vmath evaluates package math's Exp, Log and Cos, and the
// log-sum-exp LogAdd built on Exp and Log1p, over slices of lanes. On
// amd64 the lanes run through vector kernels that replay, lane for lane,
// the operation sequence package math runs for one value, so every lane
// holds the exact float64 package math returns:
//
//   - ExpLanes replays exp_amd64.s's FMA path in AVX2 (math.Exp takes
//     that path on every CPU with AVX and FMA);
//   - LogLanes replays log_amd64.s in AVX2;
//   - LogAddLanes replays LogAdd in AVX2 and FMA: the swap, the d > 30
//     cutoff, ExpLanes' sequence for Exp(-d) and the pure-Go
//     math.Log1p's branches for its argument in [e^-30, 1];
//   - CosLanes and CosSums replay the pure-Go math.Cos (sin.go) in AVX2,
//     CosSums eight lanes a step with AVX-512.
//
// Each kernel returns a fixup mask of the lanes package math special-cases
// (non-finite input, overflow, a subnormal result, x ≤ 0, a huge cosine
// argument, a NaN or zero log-sum-exp difference), and those lanes are
// redone with package math. Everywhere else — off amd64, on 386, without
// the CPU features, or when the init probe against package math
// disagrees — every lane runs package math.
package vmath

import (
	"math"
	"math/bits"
)

// Level is the set of kernels the lane functions may use.
type Level uint8

const (
	// Scalar evaluates every lane with package math.
	Scalar Level = iota
	// AVX2 runs the four-lane kernels: the cosine and Log need AVX2, Exp
	// and LogAdd also FMA.
	AVX2
	// AVX512 is AVX2 with CosSums on eight lanes.
	AVX512
)

// Host is the highest level this CPU runs, and the level in force unless
// SetLevel lowers it. A kernel whose init probe disagreed with package
// math never runs, whatever the level.
var Host = hostLevel()

var (
	level                  Level
	cosWidth               int // lanes per CosSums kernel step; 0 runs math.Cos
	useExp, useLog, useAdd bool
)

func init() { SetLevel(Host) }

// SetLevel makes the lane functions use kernels up to level l (capped at
// Host) and returns the level in force before. The results are the same
// bits at every level; tests and benchmarks use it to compare the kernels
// with the scalar path. It must not run concurrently with a lane call.
func SetLevel(l Level) (prev Level) {
	prev, l = level, min(l, Host)
	level = l
	useExp = l >= AVX2 && expKernelOK
	useLog = l >= AVX2 && logKernelOK
	useAdd = l >= AVX2 && addKernelOK
	cosWidth = 0
	switch {
	case l >= AVX512 && cos8KernelOK:
		cosWidth = 8
	case l >= AVX2 && cos4KernelOK:
		cosWidth = 4
	}
	return prev
}

func hostLevel() Level {
	switch {
	case cos8KernelOK:
		return AVX512
	case cos4KernelOK || expKernelOK || logKernelOK || addKernelOK:
		return AVX2
	}
	return Scalar
}

// ExpLanes sets dst[i] = math.Exp(x[i]) for every i < len(dst). x must be
// at least as long as dst, and dst and x must be the same slice or not
// overlap.
func ExpLanes(dst, x []float64) {
	x = x[:len(dst)]
	i := 0
	if useExp {
		i = unary(expFn, dst, x)
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Exp(x[i])
	}
}

// LogLanes sets dst[i] = math.Log(x[i]) for every i < len(dst), with
// ExpLanes' rules for x's length and overlap.
func LogLanes(dst, x []float64) {
	x = x[:len(dst)]
	i := 0
	if useLog {
		i = unary(logFn, dst, x)
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Log(x[i])
	}
}

// LogAdd returns log(exp(a)+exp(b)) stably: the larger argument plus
// Log1p(Exp(-d)) of their difference d, the correction dropped when d >
// 30. It is the reference LogAddLanes replays.
func LogAdd(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	d := a - b
	if d > 30 {
		return a
	}
	return a + math.Log1p(math.Exp(-d))
}

// LogAddLanes sets dst[i] = LogAdd(a[i], b[i]) for every i < len(dst). a
// and b must be at least as long as dst; dst may be a itself but must not
// overlap b.
func LogAddLanes(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	if useAdd {
		i = addKernel(dst, a, b)
	}
	for ; i < len(dst); i++ {
		dst[i] = LogAdd(a[i], b[i])
	}
}

// addKernel runs the LogAdd kernel over the leading multiple of four
// lanes, at most 64 a call, redoes the lanes it flags with LogAdd, and
// returns how many lanes it covered. A flagged lane keeps a[j] in dst, so
// the redo reads it even when dst is a.
func addKernel(dst, a, b []float64) int {
	n := len(dst) &^ 3
	for i := 0; i < n; i += 64 {
		fix := logAddLanesAVX2(&dst[i], &a[i], &b[i], min(64, n-i))
		for ; fix != 0; fix &= fix - 1 {
			j := i + bits.TrailingZeros64(fix)
			dst[j] = LogAdd(a[j], b[j])
		}
	}
	return n
}

// fn names a unary kernel and its package math function.
type fn uint8

const (
	expFn fn = iota
	logFn
)

// unary runs fn's kernel over the leading multiple of four lanes, at most
// 64 a call, redoes the lanes it flags with package math, and returns how
// many lanes it covered. A kernel stores a flagged lane's input
// unchanged, so the redo reads the input even when dst is x. The kernels
// are called directly, not through a func value, so dst and x do not
// escape.
func unary(f fn, dst, x []float64) int {
	n := len(dst) &^ 3
	for i := 0; i < n; i += 64 {
		var fix uint64
		if f == expFn {
			fix = expLanesAVX2(&dst[i], &x[i], min(64, n-i))
		} else {
			fix = logLanesAVX2(&dst[i], &x[i], min(64, n-i))
		}
		for ; fix != 0; fix &= fix - 1 {
			j := i + bits.TrailingZeros64(fix)
			if f == expFn {
				dst[j] = math.Exp(x[j])
			} else {
				dst[j] = math.Log(x[j])
			}
		}
	}
	return n
}

// CosLanes sets dst[i] = math.Cos(w[i]*t + phi[i]) for every i < len(dst);
// w and phi must be at least as long as dst and not overlap it.
func CosLanes(dst, w, phi []float64, t float64) {
	w, phi = w[:len(dst)], phi[:len(dst)]
	i := 0
	if cosWidth != 0 {
		i = cosKernel(len(dst)&^3, dst, w, phi, t)
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Cos(w[i]*t + phi[i])
	}
}

// cosKernel runs the four-lane cosine kernel over the first n lanes, at
// most 64 a call, redoes the lanes it flags, and returns n.
func cosKernel(n int, dst, w, phi []float64, t float64) int {
	for i := 0; i < n; i += 64 {
		fix := cosLanesAVX2(&dst[i], &w[i], &phi[i], t, min(64, n-i))
		for ; fix != 0; fix &= fix - 1 {
			j := i + bits.TrailingZeros64(fix)
			dst[j] = math.Cos(w[j]*t + phi[j])
		}
	}
	return n
}

// CosSums sets dst[j] = Σ_k math.Cos(w[k]*ts[j] + phi[k]) over every k <
// len(w), each sum added from zero in ascending k, for every j < len(dst).
// ts must be at least as long as dst and phi as w, and none may overlap
// dst. The kernels take a lane per time, so the cosines of one (w, phi)
// pair run side by side and each lane keeps its own running sum.
func CosSums(dst, ts, w, phi []float64) {
	ts, phi = ts[:len(dst)], phi[:len(w)]
	if cosWidth == 0 || len(w) == 0 {
		for j, t := range ts {
			dst[j] = cosSum(t, w, phi)
		}
		return
	}
	n := len(dst) &^ (cosWidth - 1)
	for j := 0; j < n; j += 64 {
		m := min(64, n-j)
		fix := cosSumsKernel(cosWidth, &dst[j], &ts[j], w, phi, m)
		for ; fix != 0; fix &= fix - 1 {
			i := j + bits.TrailingZeros64(fix)
			dst[i] = cosSum(ts[i], w, phi)
		}
	}
	if rem := len(dst) - n; rem > 0 {
		// The tail through one kernel step, padded with its first time.
		var tt, out [8]float64
		copy(tt[:], ts[n:])
		for i := rem; i < cosWidth; i++ {
			tt[i] = ts[n]
		}
		fix := cosSumsKernel(cosWidth, &out[0], &tt[0], w, phi, cosWidth)
		copy(dst[n:], out[:rem])
		for fix &= 1<<rem - 1; fix != 0; fix &= fix - 1 {
			i := n + bits.TrailingZeros64(fix)
			dst[i] = cosSum(ts[i], w, phi)
		}
	}
}

// cosSumsKernel runs the width-lane cosine-sum kernel over m lanes and
// returns its fixup mask.
func cosSumsKernel(width int, dst, ts *float64, w, phi []float64, m int) uint64 {
	if width == 8 {
		return cosSumsAVX512(dst, ts, &w[0], &phi[0], len(w), m)
	}
	return cosSumsAVX2(dst, ts, &w[0], &phi[0], len(w), m)
}

// cosSum is one lane of CosSums with package math.
func cosSum(t float64, w, phi []float64) float64 {
	var s float64
	for k := range w {
		s += math.Cos(w[k]*t + phi[k])
	}
	return s
}
