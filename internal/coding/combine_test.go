package coding

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports bit-identity, with any-NaN == any-NaN: IEEE addition is
// free to propagate either operand's NaN payload, and the compiler may
// commute operands differently at different sites, so NaN payload bits are
// not stable across otherwise identical expressions.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// adversarialValue draws from a pool of values chosen to hit every branch of
// the combine: sentinels, ±Inf, NaN, exact ties (d == ±0 so exp(-d) == 1,
// the Log1p u == 2 fixup), differences straddling the maxStar range cutoff
// by ulps, and magnitudes spanning the Jacobian's whole input range.
func adversarialValue(rng *rand.Rand, base float64) float64 {
	switch rng.Intn(16) {
	case 0:
		return bcjrNegInf
	case 1:
		return bcjrNegInf * 2
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	case 5:
		return base // exact tie with the other operand
	case 6:
		return base + maxStarRange // exactly at the cutoff
	case 7:
		return base + math.Nextafter(maxStarRange, 0)
	case 8:
		return base + math.Nextafter(maxStarRange, 20)
	case 9:
		return base + 5e-324 // subnormal difference
	case 10:
		return base + rng.Float64()*1e-15 // u within ulps of 2 inside Log1p
	case 11:
		return base - rng.Float64()*1e-15
	case 12:
		return 0.0
	case 13:
		return math.Copysign(0, -1)
	default:
		return base + (rng.Float64()*30 - 15)
	}
}

// stepCombineVector runs one whole-step log-MAP combine the way the batch
// decoder's recursion does on this host: a vector step kernel (the
// 8-lane one if wide) over the leading lanes, the scalar redo of its
// flagged lanes, then the scalar walk over the ragged tail.
func stepCombineVector(dst, src, bm []float64, table *[512]uint8, L int, wide bool) {
	nv := L &^ 3
	if wide {
		nv = L &^ 7
	}
	if nv > 0 {
		var fix [64]uint64
		var fixed uint64
		if wide {
			fixed = stepCombineDualAVX512(&dst[0], &src[0], &bm[0], &dst[0], &src[0], &bm[0],
				&table[0], &table[256], &fix[0], &fix[32], nv, L*8)
		} else {
			fixed = stepCombineDualAVX2(&dst[0], &src[0], &bm[0], &dst[0], &src[0], &bm[0],
				&table[0], &table[256], &fix[0], &fix[32], nv, L*8)
		}
		if fixed != 0 {
			applyStepFixups(&fix, dst, src, bm, table, L, LogMAP)
		}
	}
	if nv < L {
		stepCombineLanes(dst, src, bm, table, nv, L, L, LogMAP)
	}
}

// kernelWidths lists the step kernels this host runs: false for the
// 4-lane AVX2 kernel, true for the 8-lane AVX-512 one.
func kernelWidths(t *testing.T) []bool {
	if !hasFastJacobian {
		t.Skip("no vector Jacobian on this host")
	}
	if hasAVX512Jacobian {
		return []bool{false, true}
	}
	return []bool{false}
}

// checkStepCombine holds stepCombineVector to the scalar walk over every
// lane, bit for bit.
func checkStepCombine(t *testing.T, src, bm []float64, table *[512]uint8, L int, wide bool) {
	t.Helper()
	want := make([]float64, numStates*L)
	stepCombineLanes(want, src, bm, table, 0, L, L, LogMAP)
	got := make([]float64, numStates*L)
	for i := range got {
		got[i] = math.NaN() // every destination row must be rebuilt
	}
	stepCombineVector(got, src, bm, table, L, wide)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("L=%d wide=%v row %d lane %d: got %x (%v), scalar %x (%v)",
				L, wide, i/L, i%L, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestStepCombineMatchesScalar(t *testing.T) {
	widths := kernelWidths(t)
	rng := rand.New(rand.NewSource(61))
	iters := 300
	if testing.Short() {
		iters = 30
	}
	for _, wide := range widths {
		for _, L := range []int{4, 5, 8, 12, 16, 31, 64} {
			src := make([]float64, numStates*L)
			bm := make([]float64, 4*L)
			for it := 0; it < iters; it++ {
				for l := 0; l < L; l++ {
					base := rng.NormFloat64() * 20
					for r := 0; r < numStates; r++ {
						src[r*L+l] = adversarialValue(rng, base)
					}
					for r := 0; r < 4; r++ {
						bm[r*L+l] = adversarialValue(rng, rng.NormFloat64()*5)
					}
				}
				checkStepCombine(t, src, bm, &fwdStepTable, L, wide)
				checkStepCombine(t, src, bm, &bwdStepTable, L, wide)
			}
		}
	}
}

// TestStepCombineDenseSweep sweeps the candidates' difference d through a
// dense grid focused on the Jacobian's sensitive regions, so every
// exponent of exp(-d) and both Log1p normalization branches get exercised.
// Its table pairs source row e with row e±32 over zero branch metrics:
// rows 0..31 carry the grid and rows 32..63 zero, so each entry combines
// d with 0, in both orders.
func TestStepCombineDenseSweep(t *testing.T) {
	widths := kernelWidths(t)
	var table [512]uint8
	for e := 0; e < numStates; e++ {
		ent := table[e*8 : e*8+8]
		ent[0], ent[1], ent[2], ent[3], ent[4] = uint8(e), uint8(e), 0, uint8((e+32)%numStates), 1
	}
	var ds []float64
	for d := -12.0; d <= 12.0; d += 0.00097 {
		ds = append(ds, d)
	}
	// Dense ulp-level scan around the exp(-d) = Sqrt2M1 path split and the
	// range cutoff.
	for _, center := range []float64{0, 0.8813735870195429, maxStarRange, -maxStarRange} {
		d := center
		for i := 0; i < 64; i++ {
			ds = append(ds, d)
			d = math.Nextafter(d, 100)
		}
		d = center
		for i := 0; i < 64; i++ {
			ds = append(ds, d)
			d = math.Nextafter(d, -100)
		}
	}
	const L = 8
	src := make([]float64, numStates*L)
	bm := make([]float64, 4*L)
	for _, wide := range widths {
		for base := 0; base < len(ds); base += 32 * L {
			for i := 0; i < 32*L; i++ {
				src[i] = ds[(base+i)%len(ds)]
			}
			checkStepCombine(t, src, bm, &table, L, wide)
		}
	}
}

// TestStepNarrowMatchesScalar holds the narrow step kernels, with their
// scalar redo of flagged states (stepNarrow), to stepCombineEntry on every
// destination state of one frame's rows. Sources and branch metrics come
// from adversarialValue (sentinels, ±Inf, NaN, ties, differences at and
// around the maxStar cutoff); every other round uses an integer base and
// zero branch metrics, so candidate pairs differ by exactly 10 where
// adversarialValue puts the cutoff.
func TestStepNarrowMatchesScalar(t *testing.T) {
	if !hasFastJacobian {
		t.Skip("no vector Jacobian on this host")
	}
	rng := rand.New(rand.NewSource(67))
	iters := 3000
	if testing.Short() {
		iters = 300
	}
	src := make([]float64, numStates)
	got := make([]float64, numStates)
	var bm [4]float64
	for it := 0; it < iters; it++ {
		exact := it%2 == 1
		base := rng.NormFloat64() * 20
		if exact {
			base = float64(rng.Intn(41) - 20)
		}
		for s := range src {
			src[s] = adversarialValue(rng, base)
		}
		for r := range bm {
			bm[r] = 0
			if !exact {
				bm[r] = adversarialValue(rng, rng.NormFloat64()*5)
			}
		}
		for dir, table := range []*[512]uint8{&fwdStepTable, &bwdStepTable} {
			for i := range got {
				got[i] = math.NaN() // every destination state must be rebuilt
			}
			stepNarrow(dir, got, src, &bm)
			for e := 0; e < numStates; e++ {
				ent := table[e*8 : e*8+8]
				want := stepCombineEntry(ent, src, bm[:], 1, 0, LogMAP)
				if g := got[ent[0]]; !sameBits(g, want) {
					t.Fatalf("iter %d dir %d state %d: got %x (%v), scalar %x (%v)",
						it, dir, ent[0], math.Float64bits(g), g, math.Float64bits(want), want)
				}
			}
		}
	}
}
