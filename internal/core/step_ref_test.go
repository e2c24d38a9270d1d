package core

import (
	"math"
	"testing"

	"softrate/internal/rate"
)

// refSoftRate is the §3.3 rule as it was written before Step existed: a
// mutable controller with one method per feedback kind, driven through
// Restore → Apply → Snapshot. It is kept verbatim as the reference Step
// and its wrappers are pinned to; thresholds come from the controller
// under test.
type refSoftRate struct {
	*SoftRate
	cur, silentRun int
}

func (s *refSoftRate) OnFeedback(fb Feedback) {
	if !fb.Collision {
		s.silentRun = 0
	}
	i := fb.RateIndex
	if i < 0 || i >= len(s.cfg.Rates) {
		i = s.cur
	}
	b := fb.BER
	th := s.bands[i]
	stride := s.cfg.MaxJump - 1
	switch {
	case b > th.beta:
		n := 1
		for n < s.cfg.MaxJump && b > s.downJump[i*stride+n-1] {
			n++
		}
		s.cur = clamp(i-n, 0, len(s.cfg.Rates)-1)
	case b < th.alpha:
		n := 1
		for n < s.cfg.MaxJump && b < s.upJump[i*stride+n-1] {
			n++
		}
		s.cur = clamp(i+n, 0, len(s.cfg.Rates)-1)
	default:
		s.cur = clamp(i, 0, len(s.cfg.Rates)-1)
	}
}

func (s *refSoftRate) OnSilentLoss() {
	s.silentRun++
	if s.silentRun >= s.cfg.SilentLossRun {
		s.silentRun = 0
		s.cur = clamp(s.cur-1, 0, len(s.cfg.Rates)-1)
	}
}

func (s *refSoftRate) OnPostambleFeedback() {
	s.silentRun = 0
}

func (s *refSoftRate) Apply(kind FeedbackKind, rateIndex int, ber float64) int {
	switch kind {
	case KindBER:
		s.OnFeedback(Feedback{RateIndex: rateIndex, BER: ber})
	case KindCollision:
		s.OnFeedback(Feedback{RateIndex: rateIndex, BER: ber, Collision: true})
	case KindPostamble:
		s.OnPostambleFeedback()
	default:
		s.OnSilentLoss()
	}
	return s.cur
}

func (s *refSoftRate) Snapshot() State {
	return State{RateIndex: int32(s.cur), SilentRun: int32(s.silentRun)}
}

func (s *refSoftRate) Restore(st State) {
	s.cur = clamp(int(st.RateIndex), 0, len(s.cfg.Rates)-1)
	s.silentRun = clamp(int(st.SilentRun), 0, s.cfg.SilentLossRun-1)
}

// berGrid is every value the rule's comparisons can tell apart for sr:
// each α, β and jump threshold with its two float64 neighbours, plus the
// values a hostile or broken receiver can echo.
func berGrid(sr *SoftRate) []float64 {
	grid := []float64{0, 1, math.NaN(), math.Inf(1), math.Inf(-1), -1e-3, 0.5}
	around := func(x float64) {
		grid = append(grid, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for _, b := range sr.bands {
		around(b.alpha)
		around(b.beta)
	}
	for i := range sr.downJump {
		around(sr.downJump[i])
		around(sr.upJump[i])
	}
	return grid
}

// TestStepMatchesReference pins Step, and every wrapper over it, to the
// reference above over the whole input space the rule distinguishes:
// every stored rate index (−1 and out-of-range included) × silent run ×
// feedback kind (an unknown one included) × echoed rate index × BER grid.
func TestStepMatchesReference(t *testing.T) {
	three := DefaultConfig()
	three.MaxJump = 3
	three.Recovery = HybridARQ{}
	three.Rates = rate.Evaluation()[:4]
	for _, cfg := range []Config{DefaultConfig(), three} {
		sr := New(cfg)
		ref := &refSoftRate{SoftRate: sr}
		wrapped := New(cfg)
		n := len(sr.cfg.Rates)
		grid := berGrid(sr)
		kinds := []FeedbackKind{KindBER, KindCollision, KindSilentLoss, KindPostamble, NumKinds, 200}
		for cur := -1; cur <= n+1; cur++ {
			for run := -1; run <= sr.cfg.SilentLossRun+1; run++ {
				st := State{RateIndex: int32(cur), SilentRun: int32(run)}
				for _, kind := range kinds {
					for ri := -1; ri <= n+1; ri++ {
						for _, ber := range grid {
							ref.Restore(st)
							wantRate := ref.Apply(kind, ri, ber)
							want := ref.Snapshot()

							if got := sr.Step(st, kind, ri, ber); got != want {
								t.Fatalf("Step(%+v, %v, %d, %g) = %+v, reference %+v", st, kind, ri, ber, got, want)
							}
							if sr.Snapshot() != (State{}) {
								t.Fatalf("Step wrote to its receiver: %+v", sr.Snapshot())
							}

							wrapped.Restore(st)
							if got := wrapped.Apply(kind, ri, ber); got != wantRate || wrapped.Snapshot() != want {
								t.Fatalf("Apply(%+v, %v, %d, %g) = %d %+v, reference %d %+v",
									st, kind, ri, ber, got, wrapped.Snapshot(), wantRate, want)
							}

							wrapped.Restore(st)
							switch kind {
							case KindBER, KindCollision:
								wrapped.OnFeedback(Feedback{RateIndex: ri, BER: ber, Collision: kind == KindCollision})
							case KindPostamble:
								wrapped.OnPostambleFeedback()
							default:
								wrapped.OnSilentLoss()
							}
							if wrapped.Snapshot() != want {
								t.Fatalf("On* wrapper for (%+v, %v, %d, %g) left %+v, reference %+v",
									st, kind, ri, ber, wrapped.Snapshot(), want)
							}
						}
					}
				}
			}
		}
	}
}
