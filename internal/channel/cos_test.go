package channel

import (
	"math"
	"math/rand"
	"testing"

	"softrate/internal/vmath"
)

// hasCosKernel reports whether vmath.CosLanes runs a vector kernel here.
var hasCosKernel = vmath.Host >= vmath.AVX2

// gainScalar is Gain as a plain loop over math.Cos, interleaving the
// rails: the reference Gain is held to bit for bit.
func (r *Rayleigh) gainScalar(t float64) complex128 {
	n := len(r.w) / 2
	var hi, hq float64
	for k := 0; k < n; k++ {
		hi += math.Cos(r.w[k]*t + r.phi[k])
		hq += math.Cos(r.w[n+k]*t + r.phi[n+k])
	}
	return complex(hi*r.scale, hq*r.scale)
}

// checkCosLanes runs vmath.CosLanes over lanes w[i]*t + phi[i] and fails on the
// first lane whose bits differ from math.Cos of the same argument.
func checkCosLanes(t *testing.T, w, phi []float64, tm float64) {
	t.Helper()
	got := make([]float64, len(w))
	vmath.CosLanes(got, w, phi, tm)
	for i, g := range got {
		x := w[i]*tm + phi[i]
		if want := math.Cos(x); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("lane %d of %d: cos(%v*%v + %v) = cos(%v) = %v (%#x), math.Cos %v (%#x)",
				i, len(got), w[i], tm, phi[i], x, g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
}

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

func FuzzCosLanes(f *testing.F) {
	if !hasCosKernel {
		f.Skip("no vector cosine kernel on this host")
	}
	seeds := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1 << 29, nudge(1<<29, -1), nudge(1<<29, 1), -(1 << 29), 1 << 30,
	}
	for k := 1; k <= 16; k++ {
		seeds = append(seeds, float64(k)*math.Pi/4, -float64(k)*math.Pi/4)
	}
	for _, k := range []float64{101, 12345, 1e6, 6.8e8} {
		seeds = append(seeds, k*math.Pi/4)
	}
	for e := -300; e <= 9; e++ {
		seeds = append(seeds, math.Pow(10, float64(e)), -1.7*math.Pow(10, float64(e)))
	}
	for _, x := range seeds {
		f.Add(x, 2*math.Pi*400, 0.0375)
		f.Add(x, -2*math.Pi*40, 1.5e-5)
	}
	f.Fuzz(func(t *testing.T, x, w, tm float64) {
		// Nine lanes straight from x (two kernel groups and a scalar
		// tail): 0*1 + phi is phi, or +0 for -0, whose cosine is the same.
		ws := make([]float64, 9)
		phis := make([]float64, 9)
		for i := range phis {
			phis[i] = nudge(x, i-4)
		}
		checkCosLanes(t, ws, phis, 1)
		// The argument path: the same phases on frequencies near w.
		for i := range ws {
			ws[i] = nudge(w, 4-i)
		}
		checkCosLanes(t, ws, phis, tm)
	})
}

func TestCosLanesRandomArguments(t *testing.T) {
	if !hasCosKernel {
		t.Skip("no vector cosine kernel on this host")
	}
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 64)
	phi := make([]float64, 64)
	for rep := 0; rep < 4000; rep++ {
		scale := math.Pow(10, float64(rng.Intn(40)-30))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
			phi[i] = (rng.Float64()*2 - 1) * math.Pi
		}
		checkCosLanes(t, w[:1+rep%64], phi[:1+rep%64], rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(12)-3)))
	}
}

func TestRayleighGainMatchesScalar(t *testing.T) {
	times := []float64{0, -0.25, 1 << 40, math.Inf(1), math.NaN()}
	for j := 0; j < 500; j++ {
		times = append(times, float64(j)*1.7e-4, float64(j)*3.3e3)
	}
	for n := 0; n <= 33; n++ { // 0 is DefaultOscillators
		for _, fd := range []float64{1, 40, 400, 4000} {
			r := NewRayleigh(rand.New(rand.NewSource(int64(n))), fd, n)
			for _, tm := range times {
				got, want := r.Gain(tm), r.gainScalar(tm)
				if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
					math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
					t.Fatalf("n=%d fd=%v: Gain(%v) = %v, scalar %v", n, fd, tm, got, want)
				}
			}
		}
	}
}

func TestRayleighGainAllocs(t *testing.T) {
	r := NewRayleigh(rand.New(rand.NewSource(1)), 400, DefaultOscillators)
	var sink complex128
	tm := 0.0
	if a := testing.AllocsPerRun(1000, func() {
		tm += 1e-5
		sink += r.Gain(tm)
	}); a != 0 {
		t.Fatalf("Gain allocates %v times per call", a)
	}
	_ = sink
}
