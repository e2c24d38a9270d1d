package phy

import (
	"math"
	"testing"
)

// referenceInterp is BERModel's interpolation as it stood before the log
// tables were built once per model: it interpolates log(v) linearly over
// the dB grid, taking the logarithms on every call. Zeros in v are treated
// as the floor value; results at or below the floor return floor. It is
// the specification the table-driven core is pinned to, bit for bit.
func referenceInterp(g, v []float64, snrDB, ceil, floor float64) float64 {
	logv := func(i int) float64 {
		x := v[i]
		if x <= floor || x == 0 {
			if floor == 0 {
				return math.Inf(-1)
			}
			x = floor
		}
		return math.Log(x)
	}
	switch {
	case snrDB <= g[0]:
		return ceil
	case snrDB >= g[len(g)-1]:
		// Extrapolate with the slope of the last decade of grid.
		n := len(g)
		a, b := logv(n-6), logv(n-1)
		if math.IsInf(a, -1) || math.IsInf(b, -1) {
			return floor
		}
		slope := (b - a) / (g[n-1] - g[n-6])
		x := b + slope*(snrDB-g[n-1])
		val := math.Exp(x)
		if val < floor {
			return floor
		}
		if val > ceil {
			return ceil
		}
		return val
	}
	k := 0
	for k+1 < len(g) && g[k+1] < snrDB {
		k++
	}
	a, b := logv(k), logv(k+1)
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return floor
	}
	if math.IsInf(b, -1) {
		b = math.Log(math.Max(floor, 1e-15))
	}
	if math.IsInf(a, -1) {
		a = math.Log(math.Max(floor, 1e-15))
	}
	f := (snrDB - g[k]) / (g[k+1] - g[k])
	val := math.Exp(a + f*(b-a))
	if val > ceil {
		return ceil
	}
	if val < floor {
		return floor
	}
	return val
}

func referenceBERAt(m *BERModel, ri int, snrDB float64) float64 {
	return referenceInterp(m.SNRdB, m.BER[ri], snrDB, 0.5, 1e-12)
}

func referenceLambdaAt(m *BERModel, ri int, snrDB float64) float64 {
	return referenceInterp(m.SNRdB, m.Lambda[ri], snrDB, 1e-2, 0)
}

// sameFloat is bit equality, except that any NaN equals any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// withOddRows returns the default calibration plus rows that reach the
// branches the embedded table does not: λ with leading and trailing
// zeros (a zero end makes the above-grid extrapolation return the floor),
// λ with isolated zeros between non-zeros, a BER row that rises above its
// ceiling and dips below its floor, and a BER row entirely below its floor.
func withOddRows() *BERModel {
	d := DefaultBERModel
	n := len(d.SNRdB)
	zeroEnds := make([]float64, n)
	holes := make([]float64, n)
	wild := make([]float64, n)
	sunk := make([]float64, n)
	for k := range zeroEnds {
		if k >= 3 && k < n-8 {
			zeroEnds[k] = 1e-3 * math.Exp(-float64(k))
		}
		if k%3 != 1 {
			holes[k] = 5e-2 * math.Exp(-0.4*float64(k))
		}
		wild[k] = 0.9 * math.Exp(-0.7*float64(k))
		sunk[k] = 1e-13
	}
	wild[n-1], wild[n-3] = 0, 1e-14
	return &BERModel{
		SNRdB:  d.SNRdB,
		BER:    append(append([][]float64{}, d.BER...), wild, sunk),
		Lambda: append(append([][]float64{}, d.Lambda...), zeroEnds, holes),
	}
}

// TestInterpolationMatchesReference sweeps every rate of the default
// calibration and the odd rows across and beyond the grid.
func TestInterpolationMatchesReference(t *testing.T) {
	m := withOddRows()
	var snrs []float64
	for i := -1000; i <= 4000; i++ {
		snrs = append(snrs, float64(i)/100)
	}
	snrs = append(snrs, m.SNRdB...)
	for _, g := range m.SNRdB {
		snrs = append(snrs, math.Nextafter(g, math.Inf(-1)), math.Nextafter(g, math.Inf(1)))
	}
	snrs = append(snrs, math.Inf(-1), math.Inf(1), math.NaN(), 1e300, -1e300)
	for ri := range m.BER {
		for _, s := range snrs {
			if got, want := m.BERAt(ri, s), referenceBERAt(m, ri, s); !sameFloat(got, want) {
				t.Fatalf("BERAt(%d, %v) = %v, reference %v", ri, s, got, want)
			}
			if got, want := m.LambdaAt(ri, s), referenceLambdaAt(m, ri, s); !sameFloat(got, want) {
				t.Fatalf("LambdaAt(%d, %v) = %v, reference %v", ri, s, got, want)
			}
		}
	}
}

// TestFrameSumsMatchReference pins FrameOver's mean BER and DeliverProb — and so the
// reuse of a repeated sample's value — to per-sample reference sums.
func TestFrameSumsMatchReference(t *testing.T) {
	m := withOddRows()
	frames := map[string][]float64{
		"empty":    nil,
		"constant": {17.3, 17.3, 17.3, 17.3, 17.3},
		"runs":     {4, 4, 9.5, 9.5, 9.5, 4, 31, 31, -3, -3, 30, 30},
		"nan":      {12, math.NaN(), math.NaN(), 12},
	}
	var ramp []float64
	for i := 0; i < 300; i++ {
		ramp = append(ramp, -6+0.137*float64(i))
	}
	frames["ramp"] = ramp
	// Jumps down and up the grid, so the scan leaves its predecessor's
	// segment in both directions.
	var zigzag []float64
	for i := 0; i < 200; i++ {
		zigzag = append(zigzag, 14+float64(i%17)*float64(1-2*(i%2))*0.93)
	}
	frames["zigzag"] = zigzag
	for name, snrs := range frames {
		for ri := range m.BER {
			var sum, lam float64
			for _, s := range snrs {
				sum += referenceBERAt(m, ri, s)
				lam += referenceLambdaAt(m, ri, s) * 144
			}
			wantBER := 0.0
			if len(snrs) > 0 {
				wantBER = sum / float64(len(snrs))
			}
			if got, _ := m.FrameOver(ri, m.Locate(nil, snrs), len(snrs), 0); !sameFloat(got, wantBER) {
				t.Errorf("%s: FrameOver(%d) mean BER = %v, reference %v", name, ri, got, wantBER)
			}
			if got, want := m.DeliverProb(ri, snrs, 144), math.Exp(-lam); !sameFloat(got, want) {
				t.Errorf("%s: DeliverProb(%d) = %v, reference %v", name, ri, got, want)
			}
		}
	}
}

// TestTablesBuiltOnceConcurrently queries a fresh model from many
// goroutines; under -race it checks the lazy table build.
func TestTablesBuiltOnceConcurrently(t *testing.T) {
	m := withOddRows()
	done := make(chan float64)
	for i := 0; i < 8; i++ {
		go func() { done <- m.BERAt(2, 4.5) + m.LambdaAt(3, 7.25) }()
	}
	want := referenceBERAt(m, 2, 4.5) + referenceLambdaAt(m, 3, 7.25)
	for i := 0; i < 8; i++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent first query = %v, want %v", got, want)
		}
	}
}
