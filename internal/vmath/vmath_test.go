package vmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"softrate/internal/cpufeat"
)

// nudge returns x moved by k ulps.
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// checkUnary runs lanes over xs, once into a fresh slice and once in
// place, and fails on the first lane whose bits differ from f's.
func checkUnary(t *testing.T, name string, lanes func(dst, x []float64), f func(float64) float64, xs []float64) {
	t.Helper()
	got := make([]float64, len(xs))
	lanes(got, xs)
	inPlace := append([]float64(nil), xs...)
	lanes(inPlace, inPlace)
	for i, x := range xs {
		want := math.Float64bits(f(x))
		if math.Float64bits(got[i]) != want || math.Float64bits(inPlace[i]) != want {
			t.Fatalf("lane %d of %d: %s(%v) = %v (%#x), in place %v, math %v (%#x)",
				i, len(xs), name, x, got[i], math.Float64bits(got[i]), inPlace[i], f(x), want)
		}
	}
}

// around returns the nine floats from x-4 to x+4 ulps: two kernel groups
// and a scalar tail.
func around(x float64) []float64 {
	xs := make([]float64, 9)
	for i := range xs {
		xs[i] = nudge(x, i-4)
	}
	return xs
}

// specials are the inputs package math special-cases, and their
// neighbours.
var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

func FuzzExpLanes(f *testing.F) {
	if !useExp {
		f.Skip("no Exp kernel on this host")
	}
	seeds := append([]float64{
		7.09782712893384e+02, // exp_amd64.s's Overflow bound
		709.436, 709.44,      // x*Log2e rounds to k = 1023, then 1024 (+Inf)
		-708.39641853226410622, // the smallest normal result
		-745.1332191019411,     // the smallest subnormal result
		-745.1332191019412,     // rounds to zero
		-720, -730, -740,       // subnormal results
		1022.5 * math.Ln2, -1022.5 * math.Ln2, // k rounds across ±1022.5
		0.5 * math.Ln2, -0.5 * math.Ln2,
	}, specials...)
	for e := -320; e <= 3; e++ {
		seeds = append(seeds, math.Pow(10, float64(e)), -2.3*math.Pow(10, float64(e)))
	}
	for _, x := range seeds {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkUnary(t, "ExpLanes", ExpLanes, math.Exp, around(x))
	})
}

func FuzzLogLanes(f *testing.F) {
	if !useLog {
		f.Skip("no Log kernel on this host")
	}
	h := math.Sqrt2 / 2
	seeds := append([]float64{
		h, nudge(h, -1), nudge(h, 1), 2 * h, nudge(2*h, 1), 4 * h,
		math.Ldexp(h, -1022), math.Ldexp(h, 1023), // √2/2 at the exponent ends
		math.Ldexp(h, 32),               // where f1 < √2/2 and f1 <= √2/2 round apart
		0.5, 2, math.E, 1e-310, -1e-310, // subnormals on both sides
		math.Float64frombits(0x7FF8000000000001), // log_amd64.s's NaN
		math.Float64frombits(0xFFF8000000000000), // a NaN with its sign bit set
	}, specials...)
	for e := -323; e <= 308; e += 7 {
		seeds = append(seeds, math.Pow(10, float64(e)), 3.7*math.Pow(10, float64(e)))
	}
	for _, x := range seeds {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkUnary(t, "LogLanes", LogLanes, math.Log, around(x))
	})
}

// checkLogAdd runs LogAddLanes over a and b, once into a fresh slice and
// once in place over a, and fails on the first lane whose bits differ
// from LogAdd's.
func checkLogAdd(t *testing.T, a, b []float64) {
	t.Helper()
	got := make([]float64, len(a))
	LogAddLanes(got, a, b)
	inPlace := append([]float64(nil), a...)
	LogAddLanes(inPlace, inPlace, b)
	for i := range a {
		want := math.Float64bits(LogAdd(a[i], b[i]))
		if math.Float64bits(got[i]) != want || math.Float64bits(inPlace[i]) != want {
			t.Fatalf("lane %d of %d: LogAdd(%v, %v) = %v (%#x), in place %v, scalar %v (%#x)",
				i, len(a), a[i], b[i], got[i], math.Float64bits(got[i]), inPlace[i], LogAdd(a[i], b[i]), want)
		}
	}
}

// logAddDiffs are differences d = hi - lo where LogAdd's kernel changes
// branch: zero (an exact tie), Log1p's switch at √2-1 and its x - x*x/2
// path from 2^-29 (d above 29·ln 2 ≈ 20.1) down to e^-30, the cutoff at
// 30, and past it. At 20.4388… and 21.6146… that path's result differs
// from the k = 0 path's, which it otherwise mostly matches.
var logAddDiffs = []float64{
	0, 5e-324, 1e-300, 1e-17, 1e-9, 0.5, 1, math.Ln2,
	-math.Log(math.Sqrt2 - 1), 29 * math.Ln2, 20.1, 20.438874088719786, 21.614653927312236,
	25, 29.999, 30, 30.001, 31, 745, 1e300,
}

// logAddLanes builds, from one base value and each difference nudged by
// up to two ulps either way, pairs in both argument orders.
func logAddLanes(base float64) (a, b []float64) {
	for _, d := range logAddDiffs {
		for k := -2; k <= 2; k++ {
			dd := nudge(d, k)
			if dd < 0 {
				continue
			}
			a = append(a, base, base-dd)
			b = append(b, base-dd, base)
		}
	}
	return a, b
}

func FuzzLogAddLanes(f *testing.F) {
	if !useAdd {
		f.Skip("no LogAdd kernel on this host")
	}
	for _, x := range append([]float64{-1e-300, -3.7, -30, -745, -1e300, 1e300}, specials...) {
		f.Add(x, x-30)
		f.Add(x, x-20.5)
		f.Add(x, x)
	}
	f.Fuzz(func(t *testing.T, a0, b0 float64) {
		a, b := logAddLanes(a0)
		ab, bb := logAddLanes(b0)
		a, b = append(a, ab...), append(b, bb...)
		for i := -4; i <= 4; i++ {
			a, b = append(a, nudge(a0, i), b0), append(b, b0, nudge(b0, i))
		}
		checkLogAdd(t, a, b)
	})
}

// TestLogAddLanesBranches holds LogAddLanes to LogAdd at every level on
// the branch edges, the special values in every pairing, random pairs
// and every length up to two 64-lane kernel calls.
func TestLogAddLanesBranches(t *testing.T) {
	atLevels(t, func(t *testing.T) {
		for _, base := range []float64{0, -3.3, -41.5, 1e-310, -1e200, 7e15} {
			a, b := logAddLanes(base)
			checkLogAdd(t, a, b)
		}
		var a, b []float64
		for _, x := range specials {
			for _, y := range specials {
				a, b = append(a, x), append(b, y)
			}
		}
		checkLogAdd(t, a, b)
		rng := rand.New(rand.NewSource(1))
		a, b = make([]float64, 140), make([]float64, 140)
		for n := 0; n <= len(a); n++ {
			for i := range a {
				a[i] = -rng.ExpFloat64() * 40
				b[i] = a[i] - rng.Float64()*35
				if rng.Intn(2) == 0 {
					a[i], b[i] = b[i], a[i]
				}
			}
			checkLogAdd(t, a[:n], b[:n])
		}
	})
}

// atLevels runs fn once at every level this host runs, restoring the
// level after.
func atLevels(t *testing.T, fn func(t *testing.T)) {
	prev := SetLevel(Host)
	defer SetLevel(prev)
	for l := Scalar; l <= Host; l++ {
		SetLevel(l)
		t.Run(fmt.Sprintf("level%d", l), fn)
	}
}

// TestLogLanesHalfSqrt2 runs √2/2 at every exponent: log_amd64.s halves
// its reduction at f1 <= √2/2, not f1 < √2/2, and the two differ there.
func TestLogLanesHalfSqrt2(t *testing.T) {
	var xs []float64
	for e := -1021; e <= 1024; e++ {
		xs = append(xs, math.Ldexp(math.Sqrt2/2, e))
	}
	atLevels(t, func(t *testing.T) {
		checkUnary(t, "LogLanes", LogLanes, math.Log, xs)
	})
}

func TestExpLanesRandomArguments(t *testing.T) {
	atLevels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		xs := make([]float64, 1000)
		for rep := 0; rep < 200; rep++ {
			scale := math.Pow(10, float64(rng.Intn(8)-5))
			for i := range xs {
				xs[i] = rng.NormFloat64() * scale * 300
			}
			checkUnary(t, "ExpLanes", ExpLanes, math.Exp, xs[:1+rep*5])
		}
	})
}

func TestLogLanesRandomArguments(t *testing.T) {
	atLevels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		xs := make([]float64, 1000)
		for rep := 0; rep < 200; rep++ {
			for i := range xs {
				xs[i] = math.Float64frombits(rng.Uint64() >> 1) // every positive float64, NaNs and +Inf
			}
			checkUnary(t, "LogLanes", LogLanes, math.Log, xs[:1+rep*5])
		}
	})
}

// TestCosLanesEveryWidth runs the four-lane and scalar paths over every
// length up to two 64-lane kernel calls, so each meets its own tail.
func TestCosLanesEveryWidth(t *testing.T) {
	atLevels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		w := make([]float64, 130)
		phi := make([]float64, 130)
		got := make([]float64, 130)
		for n := 0; n <= len(w); n++ {
			for i := range w {
				w[i] = rng.NormFloat64() * 3000
				phi[i] = (rng.Float64()*2 - 1) * math.Pi
			}
			w[rng.Intn(len(w))] = math.Inf(1) // one fixup somewhere
			tm := rng.ExpFloat64()
			CosLanes(got[:n], w, phi, tm)
			for i, g := range got[:n] {
				if want := math.Cos(w[i]*tm + phi[i]); math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("n=%d lane %d: %v, math.Cos %v", n, i, g, want)
				}
			}
		}
	})
}

// TestKernelsPassTheirProbes: on a CPU with a kernel's features the
// kernel must pass its init probe. One that fails is switched off, and
// every other test here would then hold package math to itself.
func TestKernelsPassTheirProbes(t *testing.T) {
	fma := cpufeat.AVX2 && cpufeat.FMA
	for _, k := range []struct {
		name    string
		has, ok bool
	}{
		{"Exp, AVX2", fma, expKernelOK},
		{"Log, AVX2", cpufeat.AVX2, logKernelOK},
		{"LogAdd, AVX2", fma, addKernelOK},
		{"cosine, AVX2", cpufeat.AVX2, cos4KernelOK},
		{"cosine sums, AVX-512", cpufeat.AVX2 && cpufeat.AVX512, cos8KernelOK},
	} {
		if k.has && !k.ok {
			t.Errorf("the %s kernel disagreed with package math at init", k.name)
		}
	}
}

func TestSetLevel(t *testing.T) {
	prev := SetLevel(Scalar)
	defer SetLevel(prev)
	if useExp || useLog || useAdd || cosWidth != 0 {
		t.Fatalf("Scalar level left kernels on: exp %v log %v logadd %v cos width %d", useExp, useLog, useAdd, cosWidth)
	}
	if got := SetLevel(AVX512 + 1); got != Scalar {
		t.Fatalf("SetLevel returned %d, want the Scalar level set before", got)
	}
	if level != Host {
		t.Fatalf("level %d above the host's %d", level, Host)
	}
	// On an AVX-512 host, level AVX2 still runs the four-lane sums.
	if SetLevel(AVX2); cos4KernelOK && cosWidth != 4 {
		t.Fatalf("level AVX2 runs CosSums %d lanes a step, want 4", cosWidth)
	}
}

// benchLanes times one 64-lane call of lanes at every level, the Scalar
// arm being package math one lane at a time.
func benchLanes(b *testing.B, lanes func(dst, x []float64), xs []float64) {
	dst := make([]float64, len(xs))
	for l := Scalar; l <= min(Host, AVX2); l++ {
		b.Run(fmt.Sprintf("level%d", l), func(b *testing.B) {
			prev := SetLevel(l)
			defer SetLevel(prev)
			for b.Loop() {
				lanes(dst, xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/lane")
		})
	}
}

func BenchmarkExpLanes(b *testing.B) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = -30 + float64(i)*0.77
	}
	benchLanes(b, ExpLanes, xs)
}

func BenchmarkLogLanes(b *testing.B) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 0.01 + float64(i)*13.7
	}
	benchLanes(b, LogLanes, xs)
}

func BenchmarkLogAddLanes(b *testing.B) {
	a, c := make([]float64, 64), make([]float64, 64)
	for i := range a {
		a[i] = -float64(i%9) * 2.5
		c[i] = a[i] - float64(i)*0.45
	}
	dst := make([]float64, 64)
	for l := Scalar; l <= min(Host, AVX2); l++ {
		b.Run(fmt.Sprintf("level%d", l), func(b *testing.B) {
			prev := SetLevel(l)
			defer SetLevel(prev)
			for b.Loop() {
				LogAddLanes(dst, a, c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(a)), "ns/lane")
		})
	}
}

func BenchmarkCosLanes(b *testing.B) {
	w := make([]float64, 32)
	phi := make([]float64, 32)
	dst := make([]float64, 32)
	for i := range w {
		w[i] = float64(i+1) * 2 * math.Pi * 40
		phi[i] = float64(i%7) - 3
	}
	for l := Scalar; l <= min(Host, AVX2); l++ {
		b.Run(fmt.Sprintf("level%d", l), func(b *testing.B) {
			prev := SetLevel(l)
			defer SetLevel(prev)
			tm := 0.0
			for b.Loop() {
				tm += 1e-5
				CosLanes(dst, w, phi, tm)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w)), "ns/lane")
		})
	}
}

// TestCosSumsEveryWidth holds CosSums to the scalar sum at every level,
// over every length up to two kernel calls and pair counts with tails.
func TestCosSumsEveryWidth(t *testing.T) {
	atLevels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		ts := make([]float64, 140)
		got := make([]float64, 140)
		for _, pairs := range []int{0, 1, 3, 16, 33} {
			w := make([]float64, pairs)
			phi := make([]float64, pairs)
			for n := 0; n <= len(ts); n++ {
				for i := range w {
					w[i] = rng.NormFloat64() * 3000
					phi[i] = (rng.Float64()*2 - 1) * math.Pi
				}
				for j := range ts {
					ts[j] = rng.ExpFloat64() * 3
				}
				ts[rng.Intn(len(ts))] = math.Inf(1) // one fixup somewhere
				CosSums(got[:n], ts, w, phi)
				for j, g := range got[:n] {
					if want := cosSum(ts[j], w, phi); math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%d pairs, n=%d lane %d: %v, scalar %v", pairs, n, j, g, want)
					}
				}
			}
		}
	})
}

func BenchmarkCosSums(b *testing.B) {
	w := make([]float64, 16)
	phi := make([]float64, 16)
	for i := range w {
		w[i] = float64(i+1) * 2 * math.Pi * 40
		phi[i] = float64(i%7) - 3
	}
	ts := make([]float64, 64)
	dst := make([]float64, 64)
	for l := Scalar; l <= Host; l++ {
		b.Run(fmt.Sprintf("level%d", l), func(b *testing.B) {
			prev := SetLevel(l)
			defer SetLevel(prev)
			tm := 0.0
			for b.Loop() {
				for j := range ts {
					tm += 1e-5
					ts[j] = tm
				}
				CosSums(dst, ts, w, phi)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)*len(w)), "ns/cos")
		})
	}
}
