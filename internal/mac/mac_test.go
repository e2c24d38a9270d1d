package mac

import (
	"math"
	"math/rand"
	"testing"

	"softrate/internal/core"
	"softrate/internal/ratectl"
	"softrate/internal/sim"
	"softrate/internal/trace"
)

func coreDefaultForTest() core.Config { return core.DefaultConfig() }

// perfectTrace builds a synthetic trace where rates 0..good deliver with
// certainty and rates above never do.
func perfectTrace(nRates, good int, dur, interval float64) *trace.LinkTrace {
	nSlots := int(dur / interval)
	snaps := make([][]trace.Snapshot, nRates)
	for ri := 0; ri < nRates; ri++ {
		row := make([]trace.Snapshot, nSlots)
		for s := range row {
			ok := ri <= good
			// A physically-shaped BER ladder: two decades per rate step
			// (within the paper's ">= factor 10" observation), centered
			// so the optimal rate sits inside SoftRate's (alpha, beta)
			// band for 1400-byte frames.
			ber := 1e-6 * math.Pow(100, float64(ri-good))
			if ber > 0.3 {
				ber = 0.3
			}
			row[s] = trace.Snapshot{
				Detected:    true,
				Delivered:   ok,
				DeliverProb: boolProb(ok),
				BER:         ber,
				SNRdB:       15,
			}
		}
		snaps[ri] = row
	}
	return trace.NewSynthetic(interval, 1400*8, snaps)
}

func boolProb(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// saturate keeps a station's queue topped up.
func saturate(eng *sim.Engine, s *Station, bytes int, until float64) {
	var seq int64
	var feed func()
	feed = func() {
		for s.QueueLen() < 4 {
			seq++
			s.Enqueue(Packet{Bytes: bytes, Seq: seq})
		}
		if eng.Now() < until {
			eng.Schedule(1e-3, feed)
		}
	}
	eng.Schedule(0, feed)
}

func TestSingleStationDelivers(t *testing.T) {
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(1)))
	tr := perfectTrace(6, 3, 1, 1e-3)
	st := m.NewStation(&ratectl.Fixed{Index: 3}, tr)
	delivered := 0
	st.OnDeliver = func(p Packet, at float64) { delivered++ }
	saturate(&eng, st, 1400, 0.5)
	eng.Run(0.5)
	if delivered == 0 {
		t.Fatal("nothing delivered on a perfect channel")
	}
	if st.Stats.Delivered != delivered {
		t.Fatal("stats and callback disagree")
	}
	if st.Stats.Dropped != 0 {
		t.Fatalf("%d drops on a perfect channel", st.Stats.Dropped)
	}
	// Throughput sanity: 1400B frames at 18 Mbps with MAC overhead should
	// land in the 6..18 Mbps goodput range.
	goodput := float64(st.Stats.BytesDelivered) * 8 / 0.5
	if goodput < 6e6 || goodput > 18e6 {
		t.Fatalf("goodput %.1f Mbps implausible", goodput/1e6)
	}
}

func TestBadRateRetriesAndDrops(t *testing.T) {
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(2)))
	tr := perfectTrace(6, 2, 1, 1e-3) // rate 5 never delivers
	st := m.NewStation(&ratectl.Fixed{Index: 5}, tr)
	dropped := 0
	st.OnDrop = func(p Packet, at float64) { dropped++ }
	st.Enqueue(Packet{Bytes: 1400, Seq: 1})
	eng.Run(1)
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	if st.Stats.Attempts != retryLimit+1 {
		t.Fatalf("attempts %d, want %d", st.Stats.Attempts, retryLimit+1)
	}
}

func TestAdapterSeesFeedbackBER(t *testing.T) {
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(3)))
	tr := perfectTrace(6, 3, 1, 1e-3)
	sr := ratectl.NewSoftRate(coreDefaultForTest())
	st := m.NewStation(sr, tr)
	saturate(&eng, st, 1400, 0.3)
	eng.Run(0.3)
	// SoftRate starts at rate 0 with BER 1e-12 feedback -> must climb to
	// the optimal rate 3 and stay (trace BER at 3 is 1e-9, within band).
	if got := sr.NextRate(0); got != 3 {
		t.Fatalf("SoftRate settled at %d, want 3", got)
	}
	if st.Stats.Delivered == 0 {
		t.Fatal("no deliveries")
	}
}

func TestHiddenTerminalsCollide(t *testing.T) {
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(4)))
	m.CSProb = func(a, b int) float64 { return 0 } // perfect hidden terminals
	tr1 := perfectTrace(6, 5, 1, 1e-3)
	tr2 := perfectTrace(6, 5, 1, 1e-3)
	s1 := m.NewStation(&ratectl.Fixed{Index: 3}, tr1)
	s2 := m.NewStation(&ratectl.Fixed{Index: 3}, tr2)
	s1.RecordTx = true
	s2.RecordTx = true
	saturate(&eng, s1, 1400, 0.5)
	saturate(&eng, s2, 1400, 0.5)
	eng.Run(0.5)
	collisions := 0
	for _, r := range s1.Stats.Records {
		if r.Collided {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatal("hidden terminals never collided")
	}
	// Collided frames must not be delivered.
	for _, r := range s1.Stats.Records {
		if r.Collided && r.Delivered {
			t.Fatal("collided frame delivered")
		}
	}
}

func TestPerfectCarrierSensePreventsMostCollisions(t *testing.T) {
	run := func(cs float64, seed int64) float64 {
		var eng sim.Engine
		m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(seed)))
		m.CSProb = func(a, b int) float64 { return cs }
		var sts []*Station
		for i := 0; i < 3; i++ {
			st := m.NewStation(&ratectl.Fixed{Index: 3}, perfectTrace(6, 5, 1, 1e-3))
			st.RecordTx = true
			saturate(&eng, st, 1400, 0.5)
			sts = append(sts, st)
		}
		eng.Run(0.5)
		coll, total := 0, 0
		for _, st := range sts {
			for _, r := range st.Stats.Records {
				total++
				if r.Collided {
					coll++
				}
			}
		}
		return float64(coll) / float64(total)
	}
	withCS := run(1, 5)
	withoutCS := run(0, 6)
	if withCS >= withoutCS/2 {
		t.Fatalf("collision rate with CS (%v) not well below without (%v)", withCS, withoutCS)
	}
}

func TestRTSSemantics(t *testing.T) {
	// RTS/CTS under hidden terminals: the data portion is shielded (a
	// protected frame is never received-with-errors — overlaps kill the
	// RTS exchange and the loss is silent), but the exchange itself is
	// collision-vulnerable, so RTS is no free lunch (§6.4 finds RRAA's
	// adaptive RTS ineffective under unpredictable interference).
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(7)))
	m.CSProb = func(a, b int) float64 { return 0 }
	rts := &alwaysRTS{inner: &ratectl.Fixed{Index: 3}}
	s1 := m.NewStation(rts, perfectTrace(6, 5, 1, 1e-3))
	s2 := m.NewStation(&ratectl.Fixed{Index: 3}, perfectTrace(6, 5, 1, 1e-3))
	s1.RecordTx = true
	saturate(&eng, s1, 1400, 0.5)
	saturate(&eng, s2, 1400, 0.5)
	eng.Run(0.5)
	for _, r := range s1.Stats.Records {
		if r.Collided && r.Delivered {
			t.Fatal("a collided protected frame must not be delivered")
		}
		if r.Collided && !r.Silent {
			t.Fatal("protected-frame collisions must be silent (the RTS died, not the data)")
		}
	}
	if s1.Stats.Delivered == 0 {
		t.Fatal("protected station starved entirely")
	}
}

// TestRTSShieldsDataWhenExchangeClean verifies the other half: with no
// contention during the exchange, the reservation protects the data.
func TestRTSShieldsDataWhenExchangeClean(t *testing.T) {
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(8)))
	m.CSProb = func(a, b int) float64 { return 0 }
	rts := &alwaysRTS{inner: &ratectl.Fixed{Index: 3}}
	s1 := m.NewStation(rts, perfectTrace(6, 5, 1, 1e-3))
	s2 := m.NewStation(&ratectl.Fixed{Index: 3}, perfectTrace(6, 5, 1, 1e-3))
	s1.RecordTx = true
	// Only s1 transmits: its frames must all deliver despite CSProb 0.
	saturate(&eng, s1, 1400, 0.3)
	_ = s2
	eng.Run(0.3)
	if s1.Stats.Delivered == 0 || s1.Stats.Dropped > 0 {
		t.Fatalf("clean RTS exchange failed: delivered %d dropped %d",
			s1.Stats.Delivered, s1.Stats.Dropped)
	}
}

// alwaysRTS wraps an adapter and always requests RTS.
type alwaysRTS struct{ inner ratectl.Adapter }

func (a *alwaysRTS) Name() string              { return "RTS+" + a.inner.Name() }
func (a *alwaysRTS) NextRate(now float64) int  { return a.inner.NextRate(now) }
func (a *alwaysRTS) WantRTS() bool             { return true }
func (a *alwaysRTS) OnResult(r ratectl.Result) { a.inner.OnResult(r) }

func TestSilentLossOnUndetectedFrame(t *testing.T) {
	// A trace slot with Detected=false must produce a silent result.
	nSlots := 100
	snaps := make([][]trace.Snapshot, 6)
	for ri := range snaps {
		row := make([]trace.Snapshot, nSlots)
		for s := range row {
			row[s] = trace.Snapshot{Detected: false}
		}
		snaps[ri] = row
	}
	tr := trace.NewSynthetic(1e-3, 1400*8, snaps)
	var eng sim.Engine
	rec := &recordingAdapter{}
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(8)))
	st := m.NewStation(rec, tr)
	st.Enqueue(Packet{Bytes: 1400})
	eng.Run(1)
	if len(rec.results) == 0 {
		t.Fatal("no results recorded")
	}
	for _, r := range rec.results {
		if r.FeedbackReceived || r.Delivered {
			t.Fatal("undetected frame produced feedback")
		}
		if !math.IsNaN(r.SNRdB) {
			t.Fatal("silent loss must carry NaN SNR")
		}
	}
}

// recordingAdapter logs every result at a fixed rate.
type recordingAdapter struct {
	results []ratectl.Result
}

func (r *recordingAdapter) Name() string                { return "rec" }
func (r *recordingAdapter) NextRate(float64) int        { return 2 }
func (r *recordingAdapter) WantRTS() bool               { return false }
func (r *recordingAdapter) OnResult(res ratectl.Result) { r.results = append(r.results, res) }

func TestCollisionFeedbackGeometry(t *testing.T) {
	// Force a full overlap of a short and a long frame and verify the
	// preamble/postamble flags behave: the long frame keeps both clean
	// (interferer inside), the short frame loses both.
	cfg := DefaultConfig()
	cfg.Postamble = true
	var eng sim.Engine
	m := NewMedium(&eng, cfg, rand.New(rand.NewSource(9)))
	m.CSProb = func(a, b int) float64 { return 0 }
	long := m.NewStation(&ratectl.Fixed{Index: 0}, perfectTrace(6, 5, 1, 1e-3))
	short := m.NewStation(&ratectl.Fixed{Index: 0}, perfectTrace(6, 5, 1, 1e-3))
	long.RecordTx = true
	short.RecordTx = true
	// Long frame starts at ~0; short frame starts inside it.
	long.Enqueue(Packet{Bytes: 1400})
	eng.Run(0.0008)
	short.Enqueue(Packet{Bytes: 60})
	eng.Run(1)
	if len(long.Stats.Records) == 0 || len(short.Stats.Records) == 0 {
		t.Fatal("missing records")
	}
	lr := long.Stats.Records[0]
	sr := short.Stats.Records[0]
	if !lr.Collided || !sr.Collided {
		t.Fatalf("expected both to collide: %+v %+v", lr, sr)
	}
	if lr.PreambleLost {
		t.Fatal("long frame's preamble should be clean (interferer started later)")
	}
	if !sr.PreambleLost || !sr.PostambleLost {
		t.Fatalf("short frame fully inside the long one must lose both: %+v", sr)
	}
	if sr.Silent != true {
		t.Fatal("fully-overlapped short frame must be a silent loss")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, int) {
		var eng sim.Engine
		m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(42)))
		m.CSProb = func(a, b int) float64 { return 0.5 }
		s1 := m.NewStation(&ratectl.Fixed{Index: 2}, perfectTrace(6, 4, 1, 1e-3))
		s2 := m.NewStation(&ratectl.Fixed{Index: 3}, perfectTrace(6, 4, 1, 1e-3))
		saturate(&eng, s1, 1400, 0.4)
		saturate(&eng, s2, 1400, 0.4)
		eng.Run(0.4)
		return s1.Stats.Delivered, s2.Stats.Delivered
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", a1, a2, b1, b2)
	}
}

func TestQueueBound(t *testing.T) {
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(10)))
	st := m.NewStation(&ratectl.Fixed{Index: 3}, perfectTrace(6, 5, 1, 1e-3))
	st.MaxQueue = 5
	drops := 0
	st.OnDrop = func(Packet, float64) { drops++ }
	for i := 0; i < 10; i++ {
		st.Enqueue(Packet{Bytes: 1400, Seq: int64(i)})
	}
	if drops != 5 {
		t.Fatalf("dropped %d at enqueue, want 5", drops)
	}
	if st.QueueLen() != 5 {
		t.Fatalf("queue %d, want 5", st.QueueLen())
	}
}

// TestAllocsPerFrame pins that a transmitted frame costs the heap nothing
// once the station is warm: onAir records come back through the medium's
// free list, the interface queue is a ring that stops growing, airtimes
// are memoised, the frame's parameters ride on the Station and its engine
// callbacks are bound once. A record, closure or method value per frame
// or per backoff would show here.
func TestAllocsPerFrame(t *testing.T) {
	var eng sim.Engine
	m := NewMedium(&eng, DefaultConfig(), rand.New(rand.NewSource(1)))
	st := m.NewStation(&ratectl.Fixed{Index: 3}, perfectTrace(6, 3, 1, 1e-3))
	// Every delivered packet goes straight back on the queue, so the
	// station stays busy with four packets queued.
	st.OnDeliver = func(p Packet, at float64) { st.Enqueue(p) }
	for seq := int64(0); seq < 4; seq++ {
		st.Enqueue(Packet{Bytes: 1400, Seq: seq})
	}
	const frames = 256
	batch := func() {
		for end := st.Stats.Attempts + frames; st.Stats.Attempts < end; {
			eng.Run(eng.Now() + 1e-3)
		}
	}
	batch() // warm: the event queue and medium reach their working size
	start := st.Stats.Attempts
	allocs := testing.AllocsPerRun(20, batch)
	perFrame := allocs * 21 / float64(st.Stats.Attempts-start)
	t.Logf("%.3f allocations per frame", perFrame)
	if perFrame != 0 {
		t.Fatalf("%.3f allocations per transmitted frame, want 0", perFrame)
	}
}
