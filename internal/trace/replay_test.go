package trace

import (
	"math"
	"testing"

	"softrate/internal/core"
)

// synthTrace builds a small trace by hand: nRates rates, nSlots slots,
// detection and BER patterned so tests can predict every event.
func synthTrace(nRates, nSlots int) *LinkTrace {
	snaps := make([][]Snapshot, nRates)
	for ri := range snaps {
		snaps[ri] = make([]Snapshot, nSlots)
		for s := range snaps[ri] {
			snaps[ri][s] = Snapshot{
				Detected:  s%5 != 4, // every fifth slot is a silent loss
				Delivered: s%2 == 0,
				BER:       math.Pow(10, float64(ri))*1e-8 + float64(s)*1e-12,
				SNRdB:     20 - float64(ri),
			}
		}
	}
	return NewSynthetic(1e-3, 1400*8, snaps)
}

func TestFramesWalksEverySlotOnce(t *testing.T) {
	lt := synthTrace(3, 50)
	it := lt.Frames(7)
	if it.Len() != 50 {
		t.Fatalf("Len = %d, want 50", it.Len())
	}
	seen := make([]int, 50)
	for i := 0; i < it.Len(); i++ {
		ev, ok := it.Next(1)
		if !ok {
			t.Fatal("Next returned !ok on a non-empty trace")
		}
		seen[ev.Slot]++
	}
	for s, c := range seen {
		if c != 1 {
			t.Fatalf("slot %d visited %d times in one pass, want exactly 1", s, c)
		}
	}
}

func TestFramesEventsMatchSnapshots(t *testing.T) {
	lt := synthTrace(3, 40)
	it := lt.Frames(3)
	for i := 0; i < 2*it.Len(); i++ {
		ri := i % 3
		ev, _ := it.Next(ri)
		snap := lt.Snapshots[ri][ev.Slot]
		if !snap.Detected {
			if ev.Kind != core.KindSilentLoss {
				t.Fatalf("slot %d: undetected frame produced %v, want silent loss", ev.Slot, ev.Kind)
			}
			continue
		}
		if ev.Kind != core.KindBER || ev.BER != snap.BER || ev.Delivered != snap.Delivered || ev.SNRdB != snap.SNRdB {
			t.Fatalf("slot %d rate %d: event %+v does not match snapshot %+v", ev.Slot, ri, ev, snap)
		}
	}
	if it.Epoch() != 2 {
		t.Fatalf("Epoch = %d after two passes, want 2", it.Epoch())
	}
}

func TestFramesDeterministicPerSeed(t *testing.T) {
	lt := synthTrace(4, 64)
	mix := Mix{CollisionProb: 0.3, PreambleLossProb: 0.4, PostambleProb: 0.5}
	a := lt.FramesMix(42, mix)
	b := lt.FramesMix(42, mix)
	c := lt.FramesMix(43, mix)
	diff := 0
	for i := 0; i < 3*a.Len(); i++ {
		ri := (i * 7) % 4
		ea, _ := a.Next(ri)
		eb, _ := b.Next(ri)
		ec, _ := c.Next(ri)
		if ea != eb {
			t.Fatalf("same seed diverged at step %d: %+v vs %+v", i, ea, eb)
		}
		if ea != ec {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical mixed replays")
	}
}

func TestFramesSeedOffsetsDecorrelateClients(t *testing.T) {
	lt := synthTrace(2, 200)
	starts := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		ev, _ := lt.Frames(seed).Next(0)
		starts[ev.Slot] = true
	}
	if len(starts) < 5 {
		t.Fatalf("20 seeds produced only %d distinct start slots — replays walk in lockstep", len(starts))
	}
}

func TestFramesMixProducesAllCollisionKinds(t *testing.T) {
	lt := synthTrace(2, 100)
	it := lt.FramesMix(1, Mix{CollisionProb: 0.5, PreambleLossProb: 0.5, PostambleProb: 0.5})
	counts := map[core.FeedbackKind]int{}
	deliveredUnderCollision := 0
	for i := 0; i < 4000; i++ {
		ev, _ := it.Next(1)
		counts[ev.Kind]++
		if ev.Kind == core.KindCollision && ev.Delivered {
			deliveredUnderCollision++
		}
	}
	for _, k := range []core.FeedbackKind{core.KindBER, core.KindCollision, core.KindSilentLoss, core.KindPostamble} {
		if counts[k] == 0 {
			t.Fatalf("mix never produced kind %v (counts %v)", k, counts)
		}
	}
	if deliveredUnderCollision != 0 {
		t.Fatal("collision events must never deliver the frame body")
	}
}

func TestFramesClampsRateIndex(t *testing.T) {
	lt := synthTrace(3, 10)
	it := lt.Frames(0)
	if ev, ok := it.Next(99); !ok || ev.RateIndex != 2 {
		t.Fatalf("rate index not clamped down: %+v", ev)
	}
	if ev, ok := it.Next(-3); !ok || ev.RateIndex != 0 {
		t.Fatalf("rate index not clamped up: %+v", ev)
	}
}

func TestFramesEmptyTrace(t *testing.T) {
	lt := NewSynthetic(1e-3, 1400*8, nil)
	it := lt.Frames(1)
	if _, ok := it.Next(0); ok {
		t.Fatal("Next on an empty trace must report !ok")
	}
}

func TestFramesDrivesControllerLikeDirectReplay(t *testing.T) {
	// Closing the loop through the iterator must be equivalent to walking
	// the snapshots by hand — the property a closed-loop replay through
	// the decision service builds on.
	lt := synthTrace(6, 80)
	it := lt.Frames(9)

	viaIter := core.New(core.DefaultConfig())
	var itRates []int
	cur := viaIter.CurrentIndex()
	startSlot := -1
	for i := 0; i < it.Len(); i++ {
		ev, _ := it.Next(cur)
		if startSlot < 0 {
			startSlot = ev.Slot
		}
		cur = viaIter.Apply(ev.Kind, ev.RateIndex, ev.BER)
		itRates = append(itRates, cur)
	}

	byHand := core.New(core.DefaultConfig())
	var handRates []int
	cur = byHand.CurrentIndex()
	for i := 0; i < it.Len(); i++ {
		slot := (startSlot + i) % it.Len()
		snap := lt.Snapshots[cur][slot]
		if snap.Detected {
			byHand.OnFeedback(core.Feedback{RateIndex: cur, BER: snap.BER})
		} else {
			byHand.OnSilentLoss()
		}
		cur = byHand.CurrentIndex()
		handRates = append(handRates, cur)
	}

	for i := range itRates {
		if itRates[i] != handRates[i] {
			t.Fatalf("step %d: iterator-driven rate %d != hand-walked rate %d", i, itRates[i], handRates[i])
		}
	}
}
