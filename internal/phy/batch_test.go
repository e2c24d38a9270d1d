package phy

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"softrate/internal/channel"
	"softrate/internal/coding"
	"softrate/internal/rate"
)

// rxSnapshot deep-copies a Reception out of workspace-aliased storage so
// sequential and batched runs can be compared after their buffers are
// reused.
type rxSnapshot struct {
	Detected, HeaderOK, PayloadOK, PostambleDetected bool
	Header, Payload                                  []byte
	Hints                                            []float64
	InfoBitsPerSymbol, BitErrors                     int
	SNREstDB, TrueBER                                float64
}

func snapshotRx(rx *Reception) rxSnapshot {
	return rxSnapshot{
		Detected:          rx.Detected,
		HeaderOK:          rx.HeaderOK,
		PayloadOK:         rx.PayloadOK,
		PostambleDetected: rx.PostambleDetected,
		Header:            append([]byte(nil), rx.Header...),
		Payload:           append([]byte(nil), rx.Payload...),
		Hints:             append([]float64(nil), rx.Hints...),
		InfoBitsPerSymbol: rx.InfoBitsPerSymbol,
		BitErrors:         rx.BitErrors,
		SNREstDB:          rx.SNREstDB,
		TrueBER:           rx.TrueBER,
	}
}

func sameRx(a, b rxSnapshot) bool {
	if a.Detected != b.Detected || a.HeaderOK != b.HeaderOK ||
		a.PayloadOK != b.PayloadOK || a.PostambleDetected != b.PostambleDetected ||
		a.InfoBitsPerSymbol != b.InfoBitsPerSymbol || a.BitErrors != b.BitErrors {
		return false
	}
	if math.Float64bits(a.SNREstDB) != math.Float64bits(b.SNREstDB) ||
		math.Float64bits(a.TrueBER) != math.Float64bits(b.TrueBER) {
		return false
	}
	if string(a.Header) != string(b.Header) || string(a.Payload) != string(b.Payload) {
		return false
	}
	if len(a.Hints) != len(b.Hints) {
		return false
	}
	for i := range a.Hints {
		if math.Float64bits(a.Hints[i]) != math.Float64bits(b.Hints[i]) {
			return false
		}
	}
	return true
}

// batchTestFrame describes one frame of the equivalence scenario.
type batchTestFrame struct {
	payloadLen int
	rateIdx    int
	snrDB      float64
	postamble  bool
	burst      bool
}

// batchScenario mixes rates, payload lengths, SNRs (including frames below
// the detection threshold), postambles and interference bursts so the
// queued path must reproduce every branch of ReceiveWS.
func batchScenario() []batchTestFrame {
	return []batchTestFrame{
		{240, 0, 12, false, false},
		{240, 3, 17, false, false},
		{100, 5, 25, true, false},
		{240, 3, -9, false, false}, // below detection threshold: silent loss
		{64, 1, 9, false, false},
		{240, 3, 17, false, true}, // interference burst over the payload
		{240, 4, 21, true, false},
		{32, 2, 11, false, false},
		{240, 3, 2, false, false}, // marginal SNR: errored frames likely
	}
}

// runScenario pushes the scenario through one link, either sequentially or
// queued with the given flush interval, and returns per-frame snapshots.
func runScenario(ws *Workspace, cfg Config, frames []batchTestFrame, seed int64, flushEvery int) []rxSnapshot {
	rng := rand.New(rand.NewSource(seed + 1))
	payload := make([]byte, 512)
	out := make([]rxSnapshot, 0, len(frames))
	queued := 0
	var link *Link
	for i, f := range frames {
		// One static-SNR link per frame keeps per-frame SNR control while
		// the noise stream stays a single sequential source.
		if link == nil {
			link = &Link{Cfg: cfg, Rng: rand.New(rand.NewSource(seed)), WS: ws}
		}
		link.Model = channel.NewStaticModel(f.snrDB, nil)
		rng.Read(payload[:f.payloadLen])
		tx := TransmitWS(ws, cfg, Frame{
			Header:    []byte{byte(i), 0xA5},
			Payload:   payload[:f.payloadLen],
			Rate:      rate.ByIndex(f.rateIdx),
			Postamble: f.postamble,
		})
		start := float64(i) * 0.02
		var bursts []Burst
		if f.burst {
			air := tx.Airtime()
			bursts = []Burst{{Start: start + air*0.3, End: start + air*0.9, Power: 40}}
		}
		if flushEvery <= 0 {
			out = append(out, snapshotRx(link.Deliver(tx, start, bursts)))
			continue
		}
		link.QueueDeliver(tx, start, bursts)
		queued++
		if queued == flushEvery {
			for _, rx := range link.FlushDeliveries() {
				out = append(out, snapshotRx(rx))
			}
			queued = 0
		}
	}
	if flushEvery > 0 && queued > 0 {
		for _, rx := range link.FlushDeliveries() {
			out = append(out, snapshotRx(rx))
		}
	}
	return out
}

// TestQueueReceiveMatchesSequential pins the batched receive path's
// bit-identity contract: for the same noise stream, QueueDeliver +
// FlushReceptions must reproduce Deliver's Receptions exactly — every
// verdict, every hint bit pattern — at any flush interval, on a dirty
// workspace, for both decoder modes, with the queued tails split onto the
// helper goroutine while it is idle and run here while it is busy.
func TestQueueReceiveMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	frames := batchScenario()
	check := func(t *testing.T) {
		for _, mode := range []coding.BCJRMode{coding.LogMAP, coding.MaxLog} {
			cfg := DefaultConfig()
			cfg.Decoder = mode
			want := runScenario(NewWorkspace(), cfg, frames, 42, 0)
			for _, flushEvery := range []int{1, 3, len(frames), 100} {
				ws := NewWorkspace()
				// Dirty the workspace (including the batch queue) with a
				// different scenario first; reuse must be invisible.
				runScenario(ws, cfg, frames[:4], 7, 2)
				got := runScenario(ws, cfg, frames, 42, flushEvery)
				if len(got) != len(want) {
					t.Fatalf("mode %v flush %d: got %d receptions, want %d", mode, flushEvery, len(got), len(want))
				}
				for i := range want {
					if !sameRx(got[i], want[i]) {
						t.Errorf("mode %v flush %d: frame %d reception differs from sequential:\n got %+v\nwant %+v",
							mode, flushEvery, i, got[i], want[i])
					}
				}
			}
		}
	}
	t.Run("helper idle", func(t *testing.T) {
		before := tailsHelped.Load()
		check(t)
		if tailsHelped.Load() == before {
			t.Fatal("the helper goroutine never ran half of a flush's tails")
		}
	})
	t.Run("helper busy", func(t *testing.T) {
		release := holdHelper(t)
		defer release()
		before := tailsHelped.Load()
		check(t)
		if n := tailsHelped.Load() - before; n != 0 {
			t.Fatalf("the held helper goroutine ran the tails of %d flushes", n)
		}
	})
}

// holdHelper occupies the coding package's helper goroutine until the
// returned release is called: a split whose half 1 waits is handed to it
// and held there. A try that finds the helper busy runs that half inline
// instead; holdHelper then lets it go and tries again.
func holdHelper(t *testing.T) (release func()) {
	for range 100 {
		h := &heldHalf{started: make(chan struct{}), release: make(chan struct{})}
		done := make(chan struct{})
		go func() {
			var s coding.Splitter
			s.Split(h)
			close(done)
		}()
		<-h.started
		held := h.onHelper()
		if held {
			return func() {
				close(h.release)
				<-done
			}
		}
		close(h.release)
		<-done
	}
	t.Fatal("the helper goroutine was never idle")
	return nil
}

// heldHalf is a Halves whose half 1 blocks until release, and whose half
// 0 records that it ran.
type heldHalf struct {
	started, release chan struct{}
	half0            atomic.Bool
}

func (h *heldHalf) Half(i int) {
	if i == 0 {
		h.half0.Store(true)
		return
	}
	close(h.started)
	<-h.release
}

// onHelper reports whether the waiting half 1 runs on the helper
// goroutine: Split runs an inline half 1 before half 0, so half 0 runs
// while half 1 waits only when the helper took it.
func (h *heldHalf) onHelper() bool {
	for range 1000 {
		if h.half0.Load() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestQueueReceiveScenarioCoverage guards the scenario itself: it must
// exercise silent losses, postamble detections, errored-and-clean frames,
// failed CRCs — otherwise the equivalence test proves less than it claims.
func TestQueueReceiveScenarioCoverage(t *testing.T) {
	got := runScenario(NewWorkspace(), DefaultConfig(), batchScenario(), 42, 4)
	var silent, post, clean, errored int
	for _, rx := range got {
		switch {
		case !rx.Detected:
			silent++
		case rx.BitErrors == 0:
			clean++
		default:
			errored++
		}
		if rx.PostambleDetected {
			post++
		}
	}
	if silent == 0 || post == 0 || clean == 0 || errored == 0 {
		t.Fatalf("scenario lacks coverage: silent=%d postamble=%d clean=%d errored=%d",
			silent, post, clean, errored)
	}
}

// TestQueuedDeliveriesSurviveRequeue pins the documented lifetime: the
// Receptions returned by one flush stay intact while the next batch is
// being queued.
func TestQueuedDeliveriesSurviveRequeue(t *testing.T) {
	cfg := DefaultConfig()
	frames := batchScenario()
	ws := NewWorkspace()
	want := runScenario(NewWorkspace(), cfg, frames, 9, 0)

	rng := rand.New(rand.NewSource(10))
	payload := make([]byte, 512)
	link := &Link{Cfg: cfg, Rng: rand.New(rand.NewSource(9)), WS: ws}
	var snaps []rxSnapshot
	var lastFlush []*Reception
	for i, f := range frames {
		link.Model = channel.NewStaticModel(f.snrDB, nil)
		rng.Read(payload[:f.payloadLen])
		tx := TransmitWS(ws, cfg, Frame{
			Header:    []byte{byte(i), 0xA5},
			Payload:   payload[:f.payloadLen],
			Rate:      rate.ByIndex(f.rateIdx),
			Postamble: f.postamble,
		})
		start := float64(i) * 0.02
		var bursts []Burst
		if f.burst {
			air := tx.Airtime()
			bursts = []Burst{{Start: start + air*0.3, End: start + air*0.9, Power: 40}}
		}
		// Queue frame i on top of frame i-1's flushed reception, and only
		// then snapshot it: queueing must not disturb flushed results.
		link.QueueDeliver(tx, start, bursts)
		if lastFlush != nil {
			snaps = append(snaps, snapshotRx(lastFlush[0]))
		}
		lastFlush = link.FlushDeliveries()
	}
	snaps = append(snaps, snapshotRx(lastFlush[0]))
	if len(snaps) != len(want) {
		t.Fatalf("got %d receptions, want %d", len(snaps), len(want))
	}
	for i := range want {
		if !sameRx(snaps[i], want[i]) {
			t.Errorf("frame %d reception mutated by queueing the next batch", i)
		}
	}
}

// TestBatchReceiveDoesNotAllocateSteadyState pins the zero-allocation
// contract of the queued receive path once the workspace is warm.
func TestBatchReceiveDoesNotAllocateSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short")
	}
	cfg := DefaultConfig()
	ws := NewWorkspace()
	link := &Link{
		Cfg:   cfg,
		Model: channel.NewStaticModel(17, nil),
		Rng:   rand.New(rand.NewSource(3)),
		WS:    ws,
	}
	payload := make([]byte, 240)
	frame := Frame{Header: []byte{1, 2}, Payload: payload, Rate: rate.ByIndex(3)}
	rng := rand.New(rand.NewSource(4))
	round := func() {
		for i := 0; i < 4; i++ {
			rng.Read(payload)
			tx := TransmitWS(ws, cfg, frame)
			link.QueueDeliver(tx, float64(i)*0.02, nil)
		}
		if got := link.FlushDeliveries(); len(got) != 4 {
			t.Fatalf("flushed %d receptions, want 4", len(got))
		}
	}
	round() // warm all buffers
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("queued receive allocates %v times per 4-frame batch in steady state", allocs)
	}
}

// BenchmarkReceiveSequential and BenchmarkReceiveBatched measure the full
// receive chain (front end + decode) per frame with and without batching.
func benchReceive(b *testing.B, batch int) {
	cfg := DefaultConfig()
	ws := NewWorkspace()
	link := &Link{
		Cfg:   cfg,
		Model: channel.NewStaticModel(17, nil),
		Rng:   rand.New(rand.NewSource(3)),
		WS:    ws,
	}
	payload := make([]byte, 240)
	rand.New(rand.NewSource(4)).Read(payload)
	frame := Frame{Header: []byte{1, 2}, Payload: payload, Rate: rate.ByIndex(3)}
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		tx := TransmitWS(ws, cfg, frame)
		if batch <= 0 {
			link.Deliver(tx, float64(i)*0.02, nil)
			i++
			continue
		}
		link.QueueDeliver(tx, float64(i)*0.02, nil)
		i++
		if ws.PendingReceives() == batch {
			link.FlushDeliveries()
		}
	}
	if batch > 0 {
		link.FlushDeliveries()
	}
}

func BenchmarkReceiveSequential(b *testing.B) { benchReceive(b, 0) }
func BenchmarkReceiveBatched8(b *testing.B)   { benchReceive(b, 8) }
