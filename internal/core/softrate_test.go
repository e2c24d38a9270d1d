package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"softrate/internal/rate"
)

func TestFrameARQThresholdsMatchPaperExample(t *testing.T) {
	// §3.3: "For a packet size of 10000 bits, that BER would be of the
	// order 1e-5" (frame loss rate 1/3), and the optimal thresholds for
	// 18 Mbps would be (1e-7, 1e-5).
	cfg := DefaultConfig()
	cfg.FrameBits = 10000
	s := New(cfg)
	alpha, beta := s.Thresholds(3) // QPSK 3/4 = 18 Mbps
	if beta < 1e-5/3 || beta > 1e-4 {
		t.Errorf("beta = %v, want order 1e-5", beta)
	}
	if alpha < 1e-7/3 || alpha > 1e-6 {
		t.Errorf("alpha = %v, want order 1e-7", alpha)
	}
	if math.Abs(alpha*upMargin-beta) > 1e-15 {
		t.Errorf("alpha must be beta/upMargin")
	}
}

func TestHybridARQShiftsThresholdsUp(t *testing.T) {
	// §3.3: a smarter ARQ tolerates BER up to ~1e-3 for 10^4-bit frames.
	cfg := DefaultConfig()
	cfg.FrameBits = 10000
	cfg.Recovery = HybridARQ{}
	s := New(cfg)
	_, beta := s.Thresholds(3)
	if beta != 1e-3 {
		t.Errorf("H-ARQ beta = %v, want 1e-3", beta)
	}
	frame := New(DefaultConfig())
	_, betaFrame := frame.Thresholds(3)
	if beta <= betaFrame*10 {
		t.Errorf("H-ARQ thresholds (%v) must sit well above frame-ARQ (%v)", beta, betaFrame)
	}
}

func TestStartsAtLowestRate(t *testing.T) {
	s := New(DefaultConfig())
	if s.CurrentRate().Mbps != 6 {
		t.Fatalf("start rate %v, want 6 Mbps", s.CurrentRate())
	}
}

func TestRateHoldsInsideOptimalBand(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 3
	alpha, beta := s.Thresholds(3)
	mid := math.Sqrt(alpha * beta)
	s.OnFeedback(Feedback{RateIndex: 3, BER: mid})
	if s.CurrentIndex() != 3 {
		t.Fatalf("rate moved to %d on in-band BER", s.CurrentIndex())
	}
}

func TestRateStepsUpOnLowBER(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 2
	alpha, _ := s.Thresholds(2)
	s.OnFeedback(Feedback{RateIndex: 2, BER: alpha / 2})
	if s.CurrentIndex() != 3 {
		t.Fatalf("index %d after slightly-low BER, want 3", s.CurrentIndex())
	}
}

func TestRateJumpsTwoUpOnVeryLowBER(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 2
	_, beta := s.Thresholds(2)
	// BER below beta/upMargin^2 justifies a two-level jump (e.g. 1e-9
	// against an 1e-5 threshold, the paper's example).
	s.OnFeedback(Feedback{RateIndex: 2, BER: beta / (100 * 100 * 10)})
	if s.CurrentIndex() != 4 {
		t.Fatalf("index %d after very low BER, want 4", s.CurrentIndex())
	}
}

func TestRateStepsDownOnHighBER(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 3
	_, beta := s.Thresholds(3)
	s.OnFeedback(Feedback{RateIndex: 3, BER: beta * 5})
	if s.CurrentIndex() != 2 {
		t.Fatalf("index %d after high BER, want 2", s.CurrentIndex())
	}
}

func TestRateJumpsTwoDownOnVeryHighBER(t *testing.T) {
	// The paper's example: threshold 1e-5, observed BER above 1e-2 ⇒ jump
	// two rates down.
	cfg := DefaultConfig()
	cfg.FrameBits = 10000
	s := New(cfg)
	s.st.RateIndex = 3
	s.OnFeedback(Feedback{RateIndex: 3, BER: 0.05})
	if s.CurrentIndex() != 1 {
		t.Fatalf("index %d after BER 0.05, want 1", s.CurrentIndex())
	}
}

func TestJumpsClampAtTableEdges(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 0
	s.OnFeedback(Feedback{RateIndex: 0, BER: 0.4})
	if s.CurrentIndex() != 0 {
		t.Fatal("fell below the lowest rate")
	}
	s.st.RateIndex = int32(len(s.cfg.Rates) - 1)
	s.OnFeedback(Feedback{RateIndex: s.CurrentIndex(), BER: 0})
	if s.CurrentIndex() != len(s.cfg.Rates)-1 {
		t.Fatal("climbed past the highest rate")
	}
}

func TestMaxJumpBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxJump = 1
	s := New(cfg)
	s.st.RateIndex = 4
	s.OnFeedback(Feedback{RateIndex: 4, BER: 0.4})
	if s.CurrentIndex() != 3 {
		t.Fatalf("MaxJump=1 moved %d levels", 4-s.CurrentIndex())
	}
}

func TestSilentLossRule(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 4
	s.OnSilentLoss()
	s.OnSilentLoss()
	if s.CurrentIndex() != 4 {
		t.Fatal("rate dropped before the third silent loss")
	}
	s.OnSilentLoss()
	if s.CurrentIndex() != 3 {
		t.Fatalf("rate %d after 3 silent losses, want 3", s.CurrentIndex())
	}
	// The run counter must reset after the drop.
	s.OnSilentLoss()
	s.OnSilentLoss()
	if s.CurrentIndex() != 3 {
		t.Fatal("counter did not reset after stepping down")
	}
}

func TestFeedbackResetsSilentRun(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 4
	alpha, beta := s.Thresholds(4)
	s.OnSilentLoss()
	s.OnSilentLoss()
	s.OnFeedback(Feedback{RateIndex: 4, BER: math.Sqrt(alpha * beta)})
	s.OnSilentLoss()
	s.OnSilentLoss()
	if s.CurrentIndex() != 4 {
		t.Fatal("silent-loss run not reset by feedback")
	}
}

func TestPostambleFeedbackKeepsRate(t *testing.T) {
	// Postamble-only receptions indicate collisions; the rate must hold
	// and the silent-run counter reset.
	s := New(DefaultConfig())
	s.st.RateIndex = 4
	s.OnSilentLoss()
	s.OnSilentLoss()
	s.OnPostambleFeedback()
	s.OnSilentLoss()
	s.OnSilentLoss()
	if s.CurrentIndex() != 4 {
		t.Fatal("postamble feedback did not reset the silent-loss run")
	}
}

func TestCollisionFeedbackUsesInterferenceFreeBER(t *testing.T) {
	// A collision-flagged feedback carrying a clean interference-free BER
	// must not lower the rate — this is the core robustness property
	// versus frame-level schemes (§6.4).
	s := New(DefaultConfig())
	s.st.RateIndex = 4
	alpha, beta := s.Thresholds(4)
	for i := 0; i < 20; i++ {
		s.OnFeedback(Feedback{RateIndex: 4, BER: math.Sqrt(alpha * beta), Collision: true})
	}
	if s.CurrentIndex() != 4 {
		t.Fatalf("rate fell to %d under pure collision losses", s.CurrentIndex())
	}
}

func TestFeedbackForStaleRateAdjustsRelativeToIt(t *testing.T) {
	// Feedback is interpreted relative to the rate the frame was actually
	// sent at, not the sender's current rate.
	s := New(DefaultConfig())
	s.st.RateIndex = 5
	_, beta2 := s.Thresholds(2)
	s.OnFeedback(Feedback{RateIndex: 2, BER: beta2 * 2}) // rate 2 too fast
	if s.CurrentIndex() != 1 {
		t.Fatalf("index %d, want 1 (one below the frame's rate)", s.CurrentIndex())
	}
}

func TestConvergenceFromConstantChannelBER(t *testing.T) {
	// Simulate a channel with a fixed BER-vs-rate profile obeying the
	// factor-10 heuristic; from any start, the algorithm must converge to
	// the optimal rate and stay there.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(DefaultConfig())
		// Channel: BER at rate i = base * 10^i with random base.
		base := math.Pow(10, -12+6*rng.Float64()) // 1e-12 .. 1e-6
		berAt := func(i int) float64 {
			b := base * math.Pow(10, float64(i)*1.5)
			if b > 0.5 {
				b = 0.5
			}
			return b
		}
		// Optimal rate: the highest one whose BER is below its beta.
		opt := 0
		for i := range s.cfg.Rates {
			if berAt(i) < s.bands[i].beta {
				opt = i
			}
		}
		s.st.RateIndex = int32(rng.Intn(len(s.cfg.Rates)))
		for step := 0; step < 20; step++ {
			s.OnFeedback(Feedback{RateIndex: s.CurrentIndex(), BER: berAt(s.CurrentIndex())})
		}
		// Must sit at opt or at most one step below (alpha margins are
		// deliberately conservative).
		return s.CurrentIndex() == opt || s.CurrentIndex() == opt-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictBER(t *testing.T) {
	cases := []struct {
		name     string
		ber      float64
		from, to int
		want     float64
	}{
		{"up two steps", 1e-6, 2, 4, 1e-4},
		{"down two steps", 1e-4, 3, 1, 1e-6},
		{"same index is identity", 3e-5, 3, 3, 3e-5},
		{"caps at 0.5", 0.1, 0, 5, 0.5},
		{"BER exactly 1 caps at 0.5", 1.0, 2, 2, 0.5},
		{"BER above 1 caps at 0.5", 7.0, 2, 3, 0.5},
		{"BER above 0.5 clamps before scaling down", 3.0, 5, 0, 0.5 * 1e-5},
		{"BER zero stays zero", 0, 0, 5, 0},
		{"BER zero stepping down stays zero", 0, 5, 0, 0},
		{"negative BER clamps to zero", -1e-3, 1, 4, 0},
		{"indices far past the table still finite", 1e-9, 0, 40, 0.5},
		{"indices far below the table clamp to zero-ish", 1e-9, 40, 0, 1e-49},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := PredictBER(c.ber, c.from, c.to)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("PredictBER(%v, %d, %d) = %v, want finite", c.ber, c.from, c.to, got)
			}
			if diff := math.Abs(got - c.want); diff > c.want*1e-9+1e-60 {
				t.Fatalf("PredictBER(%v, %d, %d) = %v, want %v", c.ber, c.from, c.to, got, c.want)
			}
		})
	}
}

func TestCollisionFeedbackPreservesSilentRun(t *testing.T) {
	// §3.3 interplay: collision-tagged feedback must not reset the
	// silent-loss counter. Two silent losses, a collision verdict, then a
	// third silent loss must still complete the run of three and drop the
	// rate — otherwise sporadic interference could mask a weak link forever.
	s := New(DefaultConfig())
	s.st.RateIndex = 4
	alpha, beta := s.Thresholds(4)
	inBand := math.Sqrt(alpha * beta)
	s.OnSilentLoss()
	s.OnSilentLoss()
	s.OnFeedback(Feedback{RateIndex: 4, BER: inBand, Collision: true})
	if s.CurrentIndex() != 4 {
		t.Fatalf("in-band collision feedback moved the rate to %d", s.CurrentIndex())
	}
	s.OnSilentLoss()
	if s.CurrentIndex() != 3 {
		t.Fatalf("rate %d after silent,silent,collision,silent — want 3 (run not reset)", s.CurrentIndex())
	}
}

func TestCleanFeedbackStillResetsSilentRunAmongCollisions(t *testing.T) {
	// The counterpart: one clean reception is positive evidence the signal
	// is fine, and clears the run even when collisions surround it.
	s := New(DefaultConfig())
	s.st.RateIndex = 4
	alpha, beta := s.Thresholds(4)
	inBand := math.Sqrt(alpha * beta)
	s.OnSilentLoss()
	s.OnSilentLoss()
	s.OnFeedback(Feedback{RateIndex: 4, BER: inBand, Collision: true})
	s.OnFeedback(Feedback{RateIndex: 4, BER: inBand}) // clean: resets
	s.OnSilentLoss()
	s.OnSilentLoss()
	if s.CurrentIndex() != 4 {
		t.Fatalf("rate %d, want 4: clean feedback must reset the run", s.CurrentIndex())
	}
	s.OnSilentLoss()
	if s.CurrentIndex() != 3 {
		t.Fatalf("rate %d, want 3 after a fresh run of three", s.CurrentIndex())
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(DefaultConfig())
	s.st.RateIndex = 4
	s.OnSilentLoss()
	s.OnSilentLoss()
	st := s.Snapshot()
	if st.RateIndex != 4 || st.SilentRun != 2 {
		t.Fatalf("snapshot = %+v, want {4 2}", st)
	}

	// Restoring into a fresh controller must reproduce behaviour exactly:
	// the third silent loss completes the run.
	r := New(DefaultConfig())
	r.Restore(st)
	if r.CurrentIndex() != 4 {
		t.Fatalf("restored index %d, want 4", r.CurrentIndex())
	}
	r.OnSilentLoss()
	if r.CurrentIndex() != 3 {
		t.Fatalf("restored controller lost the silent run: index %d, want 3", r.CurrentIndex())
	}
}

func TestRestoreClampsOutOfRangeState(t *testing.T) {
	s := New(DefaultConfig())
	s.Restore(State{RateIndex: 99, SilentRun: 99})
	if s.CurrentIndex() != len(rate.Evaluation())-1 {
		t.Fatalf("rate index not clamped: %d", s.CurrentIndex())
	}
	if got := s.Snapshot().SilentRun; int(got) >= s.cfg.SilentLossRun {
		t.Fatalf("silent run not clamped below the threshold: %d", got)
	}
	s.Restore(State{RateIndex: -5, SilentRun: -5})
	if s.CurrentIndex() != 0 || s.Snapshot().SilentRun != 0 {
		t.Fatalf("negative state not clamped: %+v", s.Snapshot())
	}
}

func TestApplyDispatchMatchesMethods(t *testing.T) {
	// Apply(kind, ...) must behave identically to calling the individual
	// methods — it is the decision service's single entry point.
	type ev struct {
		kind FeedbackKind
		ri   int
		ber  float64
	}
	alphaAt := func(s *SoftRate, i int) float64 { a, _ := s.Thresholds(i); return a }
	seq := []ev{
		{KindBER, 0, 0},
		{KindBER, 1, 0},
		{KindSilentLoss, 0, 0},
		{KindCollision, 3, 0.2},
		{KindSilentLoss, 0, 0},
		{KindSilentLoss, 0, 0},
		{KindPostamble, 0, 0},
		{KindBER, 2, 1e-9},
	}
	a, b := New(DefaultConfig()), New(DefaultConfig())
	for i, e := range seq {
		ber := e.ber
		if e.kind == KindBER && ber == 0 {
			ber = alphaAt(a, e.ri) / 2 // climb
		}
		got := a.Apply(e.kind, e.ri, ber)
		switch e.kind {
		case KindBER:
			b.OnFeedback(Feedback{RateIndex: e.ri, BER: ber})
		case KindCollision:
			b.OnFeedback(Feedback{RateIndex: e.ri, BER: ber, Collision: true})
		case KindSilentLoss:
			b.OnSilentLoss()
		case KindPostamble:
			b.OnPostambleFeedback()
		}
		if got != b.CurrentIndex() || a.Snapshot() != b.Snapshot() {
			t.Fatalf("step %d (%v): Apply=%d state=%+v, methods state=%+v",
				i, e.kind, got, a.Snapshot(), b.Snapshot())
		}
	}
	// Unknown kinds degrade to silent losses.
	c := New(DefaultConfig())
	c.st.RateIndex = 3
	for i := 0; i < 3; i++ {
		c.Apply(FeedbackKind(200), 0, 0)
	}
	if c.CurrentIndex() != 2 {
		t.Fatalf("unknown kind not treated as silent loss: index %d", c.CurrentIndex())
	}
}

func TestPrecomputedJumpThresholdsMatchFormula(t *testing.T) {
	// The hot path reads precomputed tables; they must equal the formulas
	// they replaced bit-for-bit so decisions are unchanged.
	cfg := DefaultConfig()
	cfg.MaxJump = 4
	s := New(cfg)
	stride := cfg.MaxJump - 1
	for i := range s.cfg.Rates {
		for n := 1; n < cfg.MaxJump; n++ {
			wantDown := s.bands[i].beta * math.Pow(downMargin, float64(n))
			wantUp := s.bands[i].beta / math.Pow(upMargin, float64(n+1))
			if s.downJump[i*stride+n-1] != wantDown {
				t.Fatalf("downJump[%d][%d] = %v, want %v", i, n-1, s.downJump[i*stride+n-1], wantDown)
			}
			if s.upJump[i*stride+n-1] != wantUp {
				t.Fatalf("upJump[%d][%d] = %v, want %v", i, n-1, s.upJump[i*stride+n-1], wantUp)
			}
		}
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	s := New(Config{})
	if len(s.cfg.Rates) != len(rate.Evaluation()) {
		t.Fatal("default rates not applied")
	}
	if s.cfg.MaxJump != 2 || s.cfg.SilentLossRun != 3 {
		t.Fatal("default jump/silent-loss parameters not applied")
	}
}

func TestThresholdsMonotoneAcrossFrameSize(t *testing.T) {
	// Bigger frames are more fragile: beta must decrease with frame size.
	small := New(Config{FrameBits: 1000})
	big := New(Config{FrameBits: 100000})
	_, bs := small.Thresholds(3)
	_, bb := big.Thresholds(3)
	if bb >= bs {
		t.Fatalf("beta(100k bits)=%v not below beta(1k bits)=%v", bb, bs)
	}
}

// TestDefaultFrameBitsPinsBeta pins both recoveries' β_i at New's default
// frame size (NominalFrameBytes*8 = 11 200 bits), bit for bit: the
// recoveries take the frame size from New and have no default of their own.
func TestDefaultFrameBitsPinsBeta(t *testing.T) {
	cases := []struct {
		rec  ErrorRecovery
		bits uint64
	}{
		{FrameARQ{}, 0x3f02fafb8e71ce79},  // -ln(2/3)/11200 ≈ 3.62e-05
		{HybridARQ{}, 0x3f4d41d41d41d41d}, // 10/11200 ≈ 8.93e-04
	}
	for _, c := range cases {
		s := New(Config{Recovery: c.rec})
		if s.cfg.FrameBits != NominalFrameBytes*8 {
			t.Fatalf("%T: FrameBits %d, want %d", c.rec, s.cfg.FrameBits, NominalFrameBytes*8)
		}
		for i := range s.cfg.Rates {
			if _, beta := s.Thresholds(i); math.Float64bits(beta) != c.bits {
				t.Errorf("%T rate %d: beta %v (%#x), want %v", c.rec, i, beta, math.Float64bits(beta), math.Float64frombits(c.bits))
			}
		}
	}
}
