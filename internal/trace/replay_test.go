package trace

import (
	"math"
	"math/rand"
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
	start := it.pos
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
	if it.pos != start {
		t.Fatalf("next slot %d after two passes, want the start slot %d", it.pos, start)
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

// refFramesMix is FramesMix as it was before the start slot had a closed
// form: every iterator seeds its own math/rand source and draws the start
// slot from it. Kept verbatim as the oracle for FramesMix.
func refFramesMix(lt *LinkTrace, seed int64, mix Mix) *FrameIter {
	rng := rand.New(rand.NewSource(seed))
	it := &FrameIter{lt: lt, mix: mix, rng: rng}
	if n := it.Len(); n > 0 {
		it.pos = rng.Intn(n)
	}
	return it
}

func TestFramesMixMatchesReference(t *testing.T) {
	mixes := []Mix{{}, {CollisionProb: 0.3, PreambleLossProb: 0.4, PostambleProb: 0.5}}
	var seeds []int64
	for s := int64(-100); s <= 300; s++ {
		seeds = append(seeds, s)
	}
	seeds = append(seeds, math.MinInt64, math.MaxInt64, 1<<31-1, 89482311, 1+19999*7919)
	for _, nSlots := range []int{1, 7, 64, 250} {
		lt := synthTrace(4, nSlots)
		for _, mix := range mixes {
			for _, seed := range seeds {
				got, want := lt.FramesMix(seed, mix), refFramesMix(lt, seed, mix)
				for i := 0; i < 2*nSlots; i++ {
					ri := (i*7 + int(seed&3)) % 5 // 4 clamps to the top rate
					eg, _ := got.Next(ri)
					ew, _ := want.Next(ri)
					if eg != ew || got.pos != want.pos {
						t.Fatalf("slots %d mix %+v seed %d step %d: got %+v next slot %d, reference %+v next slot %d",
							nSlots, mix, seed, i, eg, got.pos, ew, want.pos)
					}
				}
			}
		}
	}
}

// startSizes are the slot counts TestFramesStartMatchesMathRand and the
// fuzz corpus cover: powers of two (masked), small and benchmark-sized
// counts, 2^30+1 (about half of all first draws rejected), the largest
// Int31n argument, and counts that take Int63n. Counts above the platform's
// int are skipped.
var startSizes = []int64{1, 2, 3, 64, 250, 10000, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1 << 40}

// checkStart compares firstIntn with math/rand's first Intn for one case
// and reports whether Int31n rejected that first draw (checked only for
// sizes where that is likely enough to see).
func checkStart(t *testing.T, seed, n int64) (rejected bool) {
	t.Helper()
	if n != int64(int(n)) {
		return false
	}
	if got, want := firstIntn(seed, int(n)), rand.New(rand.NewSource(seed)).Intn(int(n)); got != want {
		t.Fatalf("seed %d n %d: start %d, math/rand %d", seed, n, got, want)
	}
	if n <= 1<<30 || n > 1<<31-1 {
		return false
	}
	return rand.New(rand.NewSource(seed)).Int31() > int32(1<<31-1-(1<<31)%uint32(n))
}

func TestFramesStartMatchesMathRand(t *testing.T) {
	// One math/rand seeding per case keeps the test near a second; the two
	// halves run on two cores.
	t.Run("near-zero-and-edges", func(t *testing.T) {
		t.Parallel()
		rejected := 0
		check := func(seed int64, sizes []int64) {
			for _, n := range sizes {
				if checkStart(t, seed, n) {
					rejected++
				}
			}
		}
		for _, seed := range []int64{1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1), math.MinInt64, math.MaxInt64, 89482311} {
			check(seed, startSizes)
		}
		for seed := int64(-2000); seed <= 2000; seed++ {
			check(seed, startSizes[:8]) // n ≥ 2^31 is the fallback expression itself
		}
		if rejected == 0 {
			t.Fatal("no first draw was rejected: the math/rand fallback never ran")
		}
	})
	// The benchmark's per-sender seeds at its trace length, and random
	// int64 seeds spread over the sizes.
	t.Run("benchmark-and-random", func(t *testing.T) {
		t.Parallel()
		for i := int64(0); i < 20000; i++ {
			checkStart(t, 1+i*7919, 250)
		}
		r := rand.New(rand.NewSource(46))
		for i := 0; i < 20000; i++ {
			checkStart(t, int64(r.Uint64()), startSizes[i%len(startSizes)])
		}
	})
}

func FuzzFramesStart(f *testing.F) {
	for _, n := range startSizes {
		f.Add(int64(1), n)
		f.Add(int64(-7), n)
		f.Add(int64(math.MinInt64), n)
	}
	f.Fuzz(func(t *testing.T, seed, n int64) {
		if n <= 0 {
			return
		}
		checkStart(t, seed, n)
	})
}

func TestFramesMixAllocations(t *testing.T) {
	lt := synthTrace(2, 250)
	seed := int64(1)
	var it *FrameIter
	allocs := testing.AllocsPerRun(200, func() {
		it = lt.FramesMix(seed, Mix{})
		seed += 7919
	})
	if allocs != 1 {
		t.Fatalf("zero-Mix FramesMix allocates %v times per iterator, want 1", allocs)
	}
	if it.rng != nil {
		t.Fatal("zero-Mix FramesMix retained a math/rand generator")
	}
}

var iterSink *FrameIter

// BenchmarkFramesMix times one zero-Mix replay iterator over a
// benchmark-sized trace, as the load generator builds one per sender.
func BenchmarkFramesMix(b *testing.B) {
	lt := synthTrace(2, 250)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iterSink = lt.FramesMix(1+int64(i)*7919, Mix{})
	}
}
