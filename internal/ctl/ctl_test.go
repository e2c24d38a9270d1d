package ctl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"softrate/internal/core"
	"softrate/internal/rate"
	"softrate/internal/ratectl"
)

func TestRegistryInvariants(t *testing.T) {
	specs := Specs()
	if len(specs) < 5 {
		t.Fatalf("only %d registered algorithms, want the §6.1 set (softrate, samplerate, rraa, snr, charm)", len(specs))
	}
	seenName := map[string]bool{}
	for i, s := range specs {
		if i > 0 && specs[i-1].ID >= s.ID {
			t.Fatalf("Specs not in strict ID order: %d then %d", specs[i-1].ID, s.ID)
		}
		if seenName[s.Name] {
			t.Fatalf("duplicate name %q", s.Name)
		}
		seenName[s.Name] = true
		if got, ok := Lookup(s.ID); !ok || got.Name != s.Name {
			t.Fatalf("Lookup(%d) = %+v, %v", s.ID, got, ok)
		}
		if got, ok := ByName(s.Name); !ok || got.ID != s.ID {
			t.Fatalf("ByName(%q) = %+v, %v", s.Name, got, ok)
		}
		c := New(s.ID)
		if c.StateLen() != s.StateLen {
			t.Fatalf("%s: built controller state width %d != spec %d", s.Name, c.StateLen(), s.StateLen)
		}
	}
	if _, ok := Lookup(AlgoDefault); ok {
		t.Fatal("AlgoDefault must not resolve to a registered algorithm")
	}
	for _, want := range []struct {
		id   Algo
		name string
	}{
		{AlgoSoftRate, "softrate"}, {AlgoSampleRate, "samplerate"},
		{AlgoRRAA, "rraa"}, {AlgoSNR, "snr"}, {AlgoCHARM, "charm"},
	} {
		if s, ok := Lookup(want.id); !ok || s.Name != want.name {
			t.Fatalf("wire ID %d should be %q, got %+v (these IDs are protocol — never renumber)", want.id, want.name, s)
		}
	}
}

func TestRegisteredAgreesWithLookup(t *testing.T) {
	for id := 0; id < 256; id++ {
		if _, ok := Lookup(Algo(id)); Registered(Algo(id)) != ok {
			t.Fatalf("Registered(%d) = %v, Lookup says %v", id, !ok, ok)
		}
	}
}

func TestFreshControllersEncodeIdentically(t *testing.T) {
	for _, spec := range Specs() {
		a := make([]byte, spec.StateLen)
		b := make([]byte, spec.StateLen)
		spec.New().EncodeState(a)
		spec.New().EncodeState(b)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two fresh controllers encode differently — the Spec constructor is not canonical", spec.Name)
		}
	}
}

// randFeedback draws one service-side feedback for the closed loop: the
// rate is whatever the controller last decided, the rest is randomized
// across the full kind/BER/SNR/airtime space.
func randFeedback(rng *rand.Rand, rateIndex int) Feedback {
	fb := Feedback{
		Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
		RateIndex: rateIndex,
		BER:       math.Pow(10, -8*rng.Float64()), // 1e-8 .. 1
		SNRdB:     rng.Float64()*30 - 2,
		Delivered: rng.Intn(3) > 0,
	}
	if rng.Intn(4) == 0 {
		fb.SNRdB = math.NaN()
	}
	if rng.Intn(3) > 0 {
		fb.Airtime = 2e-4 + rng.Float64()*2e-3
	}
	return fb
}

// TestRelocationPreservesDecisions is the contract at the center of the
// store: for every registered algorithm, encode → decode through a
// *different* instance at every step must yield the decision stream of a
// long-lived controller.
func TestRelocationPreservesDecisions(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			longLived := spec.New()
			hopA, hopB := spec.New(), spec.New()
			buf := make([]byte, spec.StateLen)
			hopA.EncodeState(buf)

			rate := 0
			for step := 0; step < 5000; step++ {
				fb := randFeedback(rng, rate)
				want := longLived.Apply(fb)

				// Relocate: restore into whichever hop is "cold",
				// alternating instances like shards alternate scratch
				// controllers.
				c := hopA
				if step%2 == 1 {
					c = hopB
				}
				if err := c.DecodeState(buf); err != nil {
					t.Fatalf("step %d: decode: %v", step, err)
				}
				got := c.Apply(fb)
				c.EncodeState(buf)

				if got != want {
					t.Fatalf("step %d: relocated %s decided %d, long-lived %d (fb %+v)",
						step, spec.Name, got, want, fb)
				}
				rate = want
			}
		})
	}
}

// TestInPlaceMatchesCodecPath extends the relocation contract to the
// in-slab path: for every registered algorithm that advertises in-place
// execution, driving a state buffer through ApplyInPlace must yield (a)
// the decision stream of a long-lived controller and (b) a buffer that
// stays byte-identical to one driven through the DecodeState → Apply →
// EncodeState cycle — including the stale bytes beyond each ring's live
// length, which neither path may touch.
func TestInPlaceMatchesCodecPath(t *testing.T) {
	covered := 0
	for _, spec := range Specs() {
		ip, ok := spec.New().(InPlace)
		if !ok || !ip.InPlaceOK() {
			continue
		}
		covered++
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			longLived := spec.New()
			hopA, hopB := spec.New(), spec.New() // codec-path scratch, alternating
			inplace := spec.New().(InPlace)      // in-place scratch

			bufIP := make([]byte, spec.StateLen)
			bufCodec := make([]byte, spec.StateLen)
			inplace.EncodeState(bufIP)
			hopA.EncodeState(bufCodec)
			if !bytes.Equal(bufIP, bufCodec) {
				t.Fatal("fresh snapshots differ before any feedback")
			}

			rate := 0
			for step := 0; step < 5000; step++ {
				fb := randFeedback(rng, rate)
				want := longLived.Apply(fb)

				got, ok := inplace.ApplyInPlace(bufIP, fb)
				if !ok {
					t.Fatalf("step %d: in-place apply refused a valid buffer", step)
				}

				c := hopA
				if step%2 == 1 {
					c = hopB
				}
				if err := c.DecodeState(bufCodec); err != nil {
					t.Fatalf("step %d: decode: %v", step, err)
				}
				gotCodec := c.Apply(fb)
				c.EncodeState(bufCodec)

				if got != want || gotCodec != want {
					t.Fatalf("step %d: in-place %d, codec %d, long-lived %d (fb %+v)",
						step, got, gotCodec, want, fb)
				}
				if !bytes.Equal(bufIP, bufCodec) {
					t.Fatalf("step %d: in-place buffer diverged from the codec-path buffer", step)
				}
				rate = want
			}
		})
	}
	if covered == 0 {
		t.Fatal("no registered algorithm advertises in-place execution (SampleRate should)")
	}
}

// TestInPlaceGating pins which configurations run in place: the serving
// SampleRate does; unbounded or shared-PRNG SampleRates and the other
// clocked algorithms fall back to the codec path.
func TestInPlaceGating(t *testing.T) {
	if ip, ok := New(AlgoSampleRate).(InPlace); !ok || !ip.InPlaceOK() {
		t.Fatal("serving SampleRate must advertise in-place execution")
	}
	for _, id := range []Algo{AlgoRRAA, AlgoSNR, AlgoCHARM} {
		if ip, ok := New(id).(InPlace); ok && ip.InPlaceOK() {
			t.Fatalf("algorithm %d claims in-place execution without an engine", id)
		}
	}
	// A SampleRate on a shared *rand.Rand has no relocatable PRNG state.
	s := ratectl.NewSampleRate(rate.Evaluation(), ratectl.NominalAirtimes(), rand.New(rand.NewSource(1)))
	s.WindowCap = servingWindowCap
	if s.InPlaceOK() {
		t.Fatal("shared-PRNG SampleRate must not run in place")
	}
	// And the unbounded simulator configuration has no fixed-width state.
	u := ratectl.NewSampleRate(rate.Evaluation(), ratectl.NominalAirtimes(), ratectl.NewSplitMix(1))
	if u.InPlaceOK() {
		t.Fatal("unbounded SampleRate must not run in place")
	}
	if _, ok := New(AlgoSoftRate).(InPlace); ok {
		t.Fatal("SoftRate has its own 8-byte fast path; it should not pass through the InPlace probe")
	}
}

// TestFeedbackKindMapping pins the Apply → OnResult translation against
// the MAC's (mac.resToRatectl): same kinds, same flags.
func TestFeedbackKindMapping(t *testing.T) {
	probe := &recordingAdapter{}
	c := &clocked{a: probe, nominal: ratectl.NominalAirtimes()}

	c.Apply(Feedback{Kind: core.KindBER, RateIndex: 2, BER: 1e-4, SNRdB: 17, Delivered: true})
	r := probe.last
	if !r.FeedbackReceived || r.PostambleOnly || r.Collision || !r.Delivered || r.BER != 1e-4 || r.SNRdB != 17 {
		t.Fatalf("KindBER mapped to %+v", r)
	}
	c.Apply(Feedback{Kind: core.KindCollision, RateIndex: 2, BER: 2e-3, SNRdB: 9})
	r = probe.last
	if !r.FeedbackReceived || !r.Collision || r.Delivered || r.BER != 2e-3 {
		t.Fatalf("KindCollision mapped to %+v", r)
	}
	c.Apply(Feedback{Kind: core.KindPostamble, RateIndex: 2, SNRdB: 9})
	r = probe.last
	if !r.FeedbackReceived || !r.PostambleOnly || !math.IsNaN(r.SNRdB) {
		t.Fatalf("KindPostamble mapped to %+v (postambles carry no SNR)", r)
	}
	c.Apply(Feedback{Kind: core.KindSilentLoss, RateIndex: 2, SNRdB: 9})
	r = probe.last
	if r.FeedbackReceived || !math.IsNaN(r.SNRdB) {
		t.Fatalf("KindSilentLoss mapped to %+v", r)
	}
	if probe.times[0] <= 0 || probe.times[1] <= probe.times[0] {
		t.Fatalf("virtual clock not advancing: %v", probe.times)
	}
}

type recordingAdapter struct {
	last  ratectl.Result
	times []float64
}

func (a *recordingAdapter) Name() string             { return "probe" }
func (a *recordingAdapter) NextRate(float64) int     { return 0 }
func (a *recordingAdapter) WantRTS() bool            { return false }
func (a *recordingAdapter) StateLen() int            { return 0 }
func (a *recordingAdapter) EncodeState([]byte)       {}
func (a *recordingAdapter) DecodeState([]byte) error { return nil }
func (a *recordingAdapter) OnResult(res ratectl.Result) {
	a.last = res
	a.times = append(a.times, res.Time)
}

func TestServingSNRThresholds(t *testing.T) {
	th := ServingSNRThresholds()
	if len(th) != len(rate.Evaluation()) {
		t.Fatalf("%d thresholds for %d rates", len(th), len(rate.Evaluation()))
	}
	if math.IsInf(th[0], 1) {
		t.Fatal("rate 0 must always be usable")
	}
	for i := 1; i < len(th); i++ {
		if th[i] < th[i-1] {
			t.Fatalf("thresholds not monotone: th[%d]=%v < th[%d]=%v", i, th[i], i-1, th[i-1])
		}
	}
	// The lowest rate must be usable at a clearly workable SNR, and the
	// fastest must require more than the slowest.
	if th[0] > 15 || th[len(th)-1] <= th[0] {
		t.Fatalf("implausible thresholds %v", th)
	}
}

// TestSoftRateParityWithCoreApply pins the served SoftRate to
// core.SoftRate.Apply.
func TestSoftRateParityWithCoreApply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(AlgoSoftRate)
	bare := core.New(core.DefaultConfig())
	rate := 0
	for i := 0; i < 2000; i++ {
		kind := core.FeedbackKind(rng.Intn(int(core.NumKinds)))
		ber := rng.Float64() * 0.01
		got := c.Apply(Feedback{Kind: kind, RateIndex: rate, BER: ber, SNRdB: 10, Airtime: 1e-3, Delivered: true})
		want := bare.Apply(kind, rate, ber)
		if got != want {
			t.Fatalf("step %d: served %d != core %d", i, got, want)
		}
		rate = got
	}
}
