package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestRayleighUnitPower(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 50
	const samples = 2000
	for i := 0; i < n; i++ {
		r := NewRayleigh(rng, 100, DefaultOscillators)
		for j := 0; j < samples; j++ {
			g := r.Gain(float64(j) * 1e-3)
			sum += real(g)*real(g) + imag(g)*imag(g)
		}
	}
	mean := sum / (n * samples)
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("E[|h|^2] = %v, want 1", mean)
	}
}

func TestRayleighEnvelopeStatistics(t *testing.T) {
	// For a Rayleigh envelope with E[r^2]=1, E[r] = sqrt(pi)/2 ≈ 0.8862.
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 50
	const samples = 2000
	for i := 0; i < n; i++ {
		r := NewRayleigh(rng, 50, DefaultOscillators)
		for j := 0; j < samples; j++ {
			sum += cmplx.Abs(r.Gain(float64(j) * 2e-3))
		}
	}
	mean := sum / (n * samples)
	want := math.Sqrt(math.Pi) / 2
	if math.Abs(mean-want) > 0.03 {
		t.Fatalf("E[|h|] = %v, want %v", mean, want)
	}
}

func TestRayleighDeterministicInTime(t *testing.T) {
	r := NewRayleigh(rand.New(rand.NewSource(3)), 200, 0)
	a := r.Gain(0.123)
	b := r.Gain(0.456)
	if r.Gain(0.123) != a || r.Gain(0.456) != b {
		t.Fatal("Gain is not a pure function of time")
	}
	if a == b {
		t.Fatal("distinct times produced identical gains")
	}
}

func TestRayleighSeedsDiffer(t *testing.T) {
	r1 := NewRayleigh(rand.New(rand.NewSource(4)), 100, 0)
	r2 := NewRayleigh(rand.New(rand.NewSource(5)), 100, 0)
	if r1.Gain(0.05) == r2.Gain(0.05) {
		t.Fatal("different seeds produced identical processes")
	}
}

func TestRayleighDecorrelatesAtCoherenceTime(t *testing.T) {
	// Autocorrelation of the Jakes process is J0(2*pi*fd*tau); at
	// tau = coherence time (0.4/fd), J0(2.51) ≈ -0.05, i.e. nearly
	// uncorrelated, while at tau = Tc/20 it stays above 0.9.
	rng := rand.New(rand.NewSource(6))
	fd := 100.0
	tc := CoherenceTime(fd)
	corrAt := func(tau float64) float64 {
		var num, den float64
		for i := 0; i < 200; i++ {
			r := NewRayleigh(rng, fd, DefaultOscillators)
			for j := 0; j < 20; j++ {
				t0 := float64(j) * 7 * tc
				a, b := r.Gain(t0), r.Gain(t0+tau)
				num += real(a)*real(b) + imag(a)*imag(b)
				den += real(a)*real(a) + imag(a)*imag(a)
			}
		}
		return num / den
	}
	short := corrAt(tc / 20)
	long := corrAt(tc)
	if short < 0.85 {
		t.Errorf("correlation at Tc/20 = %.3f, want > 0.85", short)
	}
	if math.Abs(long) > 0.25 {
		t.Errorf("correlation at Tc = %.3f, want ~0", long)
	}
}

func TestCoherenceTimeRoundTrip(t *testing.T) {
	for _, fd := range []float64{40, 400, 4000} {
		tc := CoherenceTime(fd)
		if math.Abs(DopplerForCoherence(tc)-fd) > 1e-9 {
			t.Fatalf("coherence time round trip failed at %v Hz", fd)
		}
	}
	if !math.IsInf(CoherenceTime(0), 1) {
		t.Fatal("zero Doppler must give infinite coherence time")
	}
}

func TestPathLossMonotonic(t *testing.T) {
	pl := PathLoss{RefSNRdB: 30, RefDist: 1, Exponent: 3}
	prev := math.Inf(1)
	for d := 1.0; d < 100; d *= 1.5 {
		s := pl.SNRdB(d)
		if s >= prev {
			t.Fatalf("path loss not monotonic at d=%v", d)
		}
		prev = s
	}
	// 10x distance at exponent 3 = 30 dB drop.
	if diff := pl.SNRdB(1) - pl.SNRdB(10); math.Abs(diff-30) > 1e-9 {
		t.Fatalf("10x distance dropped %v dB, want 30", diff)
	}
	// Below reference distance, clamp.
	if pl.SNRdB(0.01) != 30 {
		t.Fatal("distances under RefDist must clamp to RefSNRdB")
	}
}

func TestLinearTrajectory(t *testing.T) {
	traj := LinearTrajectory{StartDist: 2, Speed: 1.5}
	if d := traj.Distance(4); math.Abs(d-8) > 1e-12 {
		t.Fatalf("Distance(4) = %v, want 8", d)
	}
	// Never collapses to zero.
	back := LinearTrajectory{StartDist: 1, Speed: -10}
	if d := back.Distance(100); d != 0.1 {
		t.Fatalf("clamped distance = %v, want 0.1", d)
	}
}

func TestDopplerAt24GHzWalking(t *testing.T) {
	// Walking pace ~1.4 m/s is ~11 Hz; the paper's "walking" simulations
	// use 40 Hz (brisker, includes environment motion). Just sanity-check
	// the scale.
	fd := DopplerAt24GHz(1.4)
	if fd < 8 || fd > 15 {
		t.Fatalf("walking Doppler %v Hz out of plausible range", fd)
	}
}

func TestModelAWGNOnly(t *testing.T) {
	m := NewStaticModel(10, nil)
	if snr := m.SNR(0.5); math.Abs(snr-10.0) > 1e-9 && math.Abs(LinearToDB(snr)-10) > 1e-9 {
		t.Fatalf("static AWGN model SNR = %v dB, want 10", LinearToDB(snr))
	}
}

func TestModelFadingMeanSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		m := NewStaticModel(7, NewRayleigh(rng, 100, 0))
		for j := 0; j < 100; j++ {
			sum += m.SNR(float64(j) * 1e-3)
		}
	}
	meanDB := LinearToDB(sum / (n * 100))
	if math.Abs(meanDB-7) > 0.5 {
		t.Fatalf("fading model mean SNR %v dB, want 7", meanDB)
	}
}

func TestWalkingModelSNRDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewWalkingModel(rng,
		LinearTrajectory{StartDist: 1, Speed: 1.4},
		PathLoss{RefSNRdB: 25, RefDist: 1, Exponent: 3})
	// Average instantaneous SNR over windows early vs late: must drop.
	avg := func(t0 float64) float64 {
		var s float64
		for i := 0; i < 500; i++ {
			s += m.SNR(t0 + float64(i)*1e-3)
		}
		return s / 500
	}
	early, late := avg(0), avg(9)
	if LinearToDB(early)-LinearToDB(late) < 6 {
		t.Fatalf("walking SNR early %.1f dB late %.1f dB: expected a clear drop",
			LinearToDB(early), LinearToDB(late))
	}
}

func TestSampleSNRdBMatchesPointwise(t *testing.T) {
	// The batched sweep is the per-symbol evaluation, bit for bit — also
	// where a static model answers from its one constant, and after a
	// static model is given fading.
	fadedLater := NewStaticModel(12, nil)
	fadedLater.Fading = NewRayleigh(rand.New(rand.NewSource(3)), 60, 0)
	models := map[string]*Model{
		"static":       NewStaticModel(-5, nil),
		"static+fade":  NewStaticModel(18, NewRayleigh(rand.New(rand.NewSource(1)), 400, 0)),
		"faded later":  fadedLater,
		"time-varying": {MeanSNRdB: func(t float64) float64 { return 20 - 3*t }},
		"walking": NewWalkingModel(rand.New(rand.NewSource(2)),
			LinearTrajectory{StartDist: 2, Speed: 1.2}, PathLoss{RefSNRdB: 26, RefDist: 1, Exponent: 2.2}),
	}
	const T = 8e-6
	for name, m := range models {
		for _, t0 := range []float64{0, 0.0375, 7.5} {
			got := make([]float64, 37)
			m.SampleSNRdB(got, t0, T)
			for j, g := range got {
				want := LinearToDB(m.SNR(t0 + (float64(j)+0.5)*T))
				if math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("%s: sample %d from t0=%v is %v, pointwise %v", name, j, t0, g, want)
				}
			}
		}
	}
}

func TestDBConversions(t *testing.T) {
	if DBToLinear(20) != 100 {
		t.Fatal("20 dB != 100x")
	}
	if math.Abs(LinearToDB(1000)-30) > 1e-12 {
		t.Fatal("1000x != 30 dB")
	}
	if !math.IsInf(LinearToDB(0), -1) {
		t.Fatal("0 linear must be -inf dB")
	}
}

// dbSeeds are decibel values on every branch of DBToLinear and of the
// math.Pow it replays: Pow's special cases, a fraction either side of
// one half, the squaring loop's long runs, overflow to +Inf, underflow
// through the subnormals to 0, and |db/10| at and past 2^63.
func dbSeeds() []float64 {
	seeds := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		10, -10, 5, -5, 15, -15, 4.999999999999999, 5.000000000000001,
		20, -20, 3, -3, 0.1, -0.1, 1e-300, -1e-300, 5e-324,
		3080, 3082.5, 3083, 3090, -3070, -3079, -3083, -3240, -3250, -3300,
		20480, -20480, 40960, -40960, 1e5, -1e5, 9.223372036854775e19, -9.223372036854775e19, 1e30, -1e30,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for db := -60.0; db <= 60; db += 0.37 {
		seeds = append(seeds, db)
	}
	return seeds
}

func checkDBToLinear(t *testing.T, db float64) {
	t.Helper()
	got, want := DBToLinear(db), math.Pow(10, db/10)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("DBToLinear(%v) = %v (%#x), math.Pow(10, db/10) = %v (%#x)",
			db, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestDBToLinearMatchesPow(t *testing.T) {
	for _, db := range dbSeeds() {
		checkDBToLinear(t, db)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		checkDBToLinear(t, (rng.Float64()*2-1)*80)
	}
}

func FuzzDBToLinear(f *testing.F) {
	for _, db := range dbSeeds() {
		f.Add(db)
	}
	f.Fuzz(checkDBToLinear)
}

var dbSink float64

func BenchmarkDBToLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dbSink += DBToLinear(float64(i%4096)*0.01 - 5)
	}
}

func BenchmarkRayleighGain(b *testing.B) {
	r := NewRayleigh(rand.New(rand.NewSource(1)), 100, DefaultOscillators)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Gain(float64(i) * 1e-5)
	}
}
