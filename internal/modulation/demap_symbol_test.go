package modulation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"softrate/internal/vmath"
)

// refDemap is the per-tone demapper as it stood before the per-symbol
// form, kept verbatim (with logAdd renamed refLogAdd) as the oracle
// Demapper.DemapSymbol must match bit for bit.
func refDemap(s Scheme, y, h complex128, noiseVar float64, exact bool, out []float64) []float64 {
	hm2 := real(h)*real(h) + imag(h)*imag(h)
	if hm2 < 1e-18 {
		// Channel gain effectively zero: no information in this sample.
		for i := 0; i < s.BitsPerSymbol(); i++ {
			out = append(out, 0)
		}
		return out
	}
	z := y / h
	sigma2 := noiseVar / hm2
	levels := s.axisLevels()
	bpa := s.bitsPerAxis()
	out = refDemapAxis(real(z), levels, bpa, sigma2, exact, out)
	if s != BPSK {
		out = refDemapAxis(imag(z), levels, bpa, sigma2, exact, out)
	}
	return out
}

// refDemapAxis computes LLRs for the bpa Gray bits of one constellation axis.
// For a complex Gaussian with total variance sigma2 the per-axis exponent
// is -(v - level)^2 / sigma2.
func refDemapAxis(v float64, levels []float64, bpa int, sigma2 float64, exact bool, out []float64) []float64 {
	inv := 1 / sigma2
	for j := 0; j < bpa; j++ {
		mask := 1 << (bpa - 1 - j)
		var m1, m0 float64 // log-domain accumulators
		first1, first0 := true, true
		for g, lv := range levels {
			d := v - lv
			metric := -d * d * inv
			if g&mask != 0 {
				if first1 {
					m1, first1 = metric, false
				} else if exact {
					m1 = refLogAdd(m1, metric)
				} else if metric > m1 {
					m1 = metric
				}
			} else {
				if first0 {
					m0, first0 = metric, false
				} else if exact {
					m0 = refLogAdd(m0, metric)
				} else if metric > m0 {
					m0 = metric
				}
			}
		}
		out = append(out, m1-m0)
	}
	return out
}

// refLogAdd returns log(exp(a)+exp(b)) stably.
func refLogAdd(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	d := a - b
	if d > 30 {
		return a
	}
	return a + math.Log1p(math.Exp(-d))
}

// refNoiseEVM is the receiver's per-symbol noise estimate as it stood
// before it moved into DemapSymbol (phy's estimateNoiseEVM), verbatim.
func refNoiseEVM(s Scheme, rx []complex128, h complex128) float64 {
	hm2 := real(h)*real(h) + imag(h)*imag(h)
	if hm2 < 1e-18 || len(rx) == 0 {
		return 1
	}
	var sum float64
	for _, y := range rx {
		z := y / h
		d := z - hardDecision(s, z)
		sum += real(d)*real(d) + imag(d)*imag(d)
	}
	// EVM is measured post-equalization (variance scaled by 1/|h|^2);
	// rescale back to the received plane.
	est := sum / float64(len(rx)) * hm2
	if est < 0.1 {
		est = 0.1
	}
	return est
}

// refDemapSymbol is what the receiver ran per OFDM symbol before
// DemapSymbol: the EVM estimate, then refDemap's exact branch tone by tone.
func refDemapSymbol(s Scheme, y []complex128, h complex128, out []float64) []float64 {
	noise := refNoiseEVM(s, y, h)
	for _, yk := range y {
		out = refDemap(s, yk, h, noise, true, out)
	}
	return out
}

// checkDemapSymbol runs DemapSymbol on y at every vmath level this host
// runs, on a warm and a fresh Demapper, and fails on the first LLR whose
// bits differ from refDemapSymbol's.
func checkDemapSymbol(t *testing.T, name string, s Scheme, y []complex128, h complex128) {
	t.Helper()
	want := refDemapSymbol(s, y, h, nil)
	prev := vmath.SetLevel(vmath.Host)
	defer vmath.SetLevel(prev)
	var warm Demapper
	warm.DemapSymbol(s, make([]complex128, 130), 1, nil)
	for _, l := range []vmath.Level{vmath.Scalar, vmath.Host} {
		vmath.SetLevel(l)
		for _, d := range []*Demapper{&warm, new(Demapper)} {
			got := d.DemapSymbol(s, y, h, []float64{7})[1:]
			if len(got) != len(want) {
				t.Fatalf("%s %v level %d: %d LLRs, want %d", name, s, l, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %v level %d: LLR %d (tone %d) = %v (%#x), per-tone %v (%#x)",
						name, s, l, i, i/s.BitsPerSymbol(), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// levelPoints returns every constellation point of s times h, the
// midpoints between adjacent levels on both axes (where hardDecision and
// the log-sum-exp both meet exact ties), and the origin.
func levelPoints(s Scheme, h complex128) []complex128 {
	lv := s.axisLevels()
	var axis []float64
	for _, a := range lv {
		axis = append(axis, a)
		for _, b := range lv {
			axis = append(axis, (a+b)/2)
		}
	}
	var y []complex128
	for _, re := range axis {
		if s == BPSK {
			y = append(y, complex(re, 0)*h)
			continue
		}
		for _, im := range axis {
			y = append(y, complex(re, im)*h)
		}
	}
	return y
}

// firstPairD returns, for each bit and set of one axis value v, the
// difference the first log-sum-exp of that set's fold sees, computed with
// refDemapAxis's arithmetic.
func firstPairD(s Scheme, v, inv float64) []float64 {
	lv := s.axisLevels()
	bpa := s.bitsPerAxis()
	var ds []float64
	for j := 0; j < bpa; j++ {
		mask := 1 << (bpa - 1 - j)
		for _, bit := range []int{0, mask} {
			var ms []float64
			for g, l := range lv {
				if g&mask == bit {
					d := v - l
					ms = append(ms, -d*d*inv)
				}
			}
			if len(ms) > 1 {
				ds = append(ds, math.Abs(ms[0]-ms[1]))
			}
		}
	}
	return ds
}

// toneWithD searches a tone at the last level, gain and tone stepped an
// ulp at a time, for one where the real axis's first log-sum-exp of some
// set meets a difference that ok accepts. The noise estimate sits at its
// floor there, so the differences grow with |h|²: the search starts just
// below the gain that puts the largest at target and walks up through it.
// It returns a symbol of nine copies of the tone, so that the kernel's
// lanes see it as well as the scalar tail's.
func toneWithD(t *testing.T, s Scheme, target float64, ok func(d float64) bool) ([]complex128, complex128) {
	lv := s.axisLevels()
	v0 := lv[len(lv)-1]
	d1 := 0.0
	for _, d := range firstPairD(s, v0, 1/noiseFloor) {
		d1 = max(d1, d)
	}
	hr := math.Sqrt(target/d1) * (1 - 2e-14)
	for range 256 {
		h := complex(hr, 0)
		v := v0
		for range 256 {
			y := []complex128{complex(v, v0) * h}
			hm2 := real(h) * real(h)
			inv := 1 / (refNoiseEVM(s, y, h) / hm2)
			for _, d := range firstPairD(s, real(y[0]/h), inv) {
				if ok(d) {
					for range 8 {
						y = append(y, y[0])
					}
					return y, h
				}
			}
			v = math.Nextafter(v, math.Inf(1))
		}
		hr = math.Nextafter(hr, math.Inf(1))
	}
	t.Fatalf("%v: no tone meets the difference", s)
	return nil, 0
}

// TestDemapSymbolMatchesPerTone holds DemapSymbol to refDemapSymbol bit
// for bit, for every scheme at vmath.Scalar and vmath.Host, on the
// inputs where the log-sum-exp kernel and the estimate change branch.
func TestDemapSymbolMatchesPerTone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	noisy := func(s Scheme, n int, h complex128, sd float64) []complex128 {
		lv := s.axisLevels()
		y := make([]complex128, n)
		for k := range y {
			z := complex(lv[rng.Intn(len(lv))], 0)
			if s != BPSK {
				z += complex(0, lv[rng.Intn(len(lv))])
			}
			y[k] = z*h + complex(rng.NormFloat64()*sd, rng.NormFloat64()*sd)
		}
		return y
	}
	for _, s := range allSchemes {
		cases := []struct {
			name string
			y    []complex128
			h    complex128
		}{
			{"level hits and ties", levelPoints(s, 1), 1},
			{"level hits and ties, rotated gain", levelPoints(s, complex(0.6, -0.8)), complex(0.6, -0.8)},
			{"high SNR, d above 30", noisy(s, 96, complex(8, 3), 0.01), complex(8, 3)},
			{"noise above the EVM floor", noisy(s, 96, complex(0.7, 0.2), 0.5), complex(0.7, 0.2)},
			{"EVM at the floor", noisy(s, 96, complex(1.2, -0.4), 1e-3), complex(1.2, -0.4)},
			{"one tone", noisy(s, 1, 1, 0.2), 1},
			{"no tones", nil, 1},
			{"hm2 below 1e-18", noisy(s, 48, 1e-10, 0.3), 1e-10},
			{"hm2 at 1e-18", noisy(s, 48, 1e-9, 1e-9), 1e-9},
			{"odd width", noisy(s, 53, complex(2, 1), 0.2), complex(2, 1)},
		}
		if s == QAM16 || s == QAM64 {
			y, h := toneWithD(t, s, 30, func(d float64) bool { return d == 30 })
			cases = append(cases, struct {
				name string
				y    []complex128
				h    complex128
			}{"d exactly 30", y, h})
			y, h = toneWithD(t, s, 25, func(d float64) bool { return d > 20.1 && d <= 30 })
			cases = append(cases, struct {
				name string
				y    []complex128
				h    complex128
			}{"d in (20.1, 30]", y, h})
		}
		for _, c := range cases {
			checkDemapSymbol(t, c.name, s, c.y, c.h)
		}
	}
}

// FuzzDemapSymbol holds DemapSymbol to refDemapSymbol over random
// symbols: a scheme, a width, a gain, a noise level and a seed for the
// tones.
func FuzzDemapSymbol(f *testing.F) {
	f.Add(uint8(2), uint8(96), 1.0, 0.0, 0.1, int64(1))
	f.Add(uint8(3), uint8(96), 0.3, -2.0, 0.01, int64(2))
	f.Add(uint8(0), uint8(48), 1e-9, 0.0, 1e-9, int64(3))
	f.Add(uint8(1), uint8(7), 5.0, 5.0, 3.0, int64(4))
	f.Add(uint8(3), uint8(1), 40.0, 0.0, 0.0, int64(5))
	f.Fuzz(func(t *testing.T, scheme, width uint8, hRe, hIm, sd float64, seed int64) {
		s := allSchemes[int(scheme)%len(allSchemes)]
		h := complex(hRe, hIm)
		rng := rand.New(rand.NewSource(seed))
		lv := s.axisLevels()
		y := make([]complex128, int(width)%130)
		for k := range y {
			z := complex(lv[rng.Intn(len(lv))], lv[rng.Intn(len(lv))])
			if s == BPSK {
				z = complex(real(z), 0)
			}
			y[k] = z*h + complex(rng.NormFloat64()*sd, rng.NormFloat64()*sd)
		}
		checkDemapSymbol(t, "fuzz", s, y, h)
	})
}

func BenchmarkDemapSymbol(b *testing.B) {
	for _, s := range []Scheme{QAM16, QAM64} {
		b.Run(fmt.Sprint(s), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			lv := s.axisLevels()
			h := complex(0.8, 0.5)
			y := make([]complex128, 96)
			for k := range y {
				z := complex(lv[rng.Intn(len(lv))], lv[rng.Intn(len(lv))])
				y[k] = z*h + complex(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15)
			}
			var d Demapper
			out := d.DemapSymbol(s, y, h, nil)
			for b.Loop() {
				out = d.DemapSymbol(s, y, h, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sym")
		})
	}
}
