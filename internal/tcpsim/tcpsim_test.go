package tcpsim

import (
	"math"
	"math/rand"
	"testing"

	"softrate/internal/sim"
)

// pipe wires a sender and receiver through a one-way-delay lossy
// bottleneck link with a fixed rate and queue, entirely on the event
// engine — a miniature network for unit-testing TCP behaviour.
type pipe struct {
	eng      *sim.Engine
	delay    float64
	rateBps  float64
	queueCap int
	lossFn   func(seg Segment) bool

	sndQ     []Segment
	sndBusy  bool
	deliver  func(Segment) // forward direction sink
	ackPath  func(Segment) // reverse direction sink (delay only)
	dropped  int
	enqueued int
}

func newPipe(eng *sim.Engine, delay, rateBps float64, queueCap int) *pipe {
	return &pipe{eng: eng, delay: delay, rateBps: rateBps, queueCap: queueCap,
		lossFn: func(Segment) bool { return false }}
}

func (p *pipe) sendData(seg Segment) {
	if len(p.sndQ) >= p.queueCap {
		p.dropped++
		return
	}
	p.enqueued++
	p.sndQ = append(p.sndQ, seg)
	if !p.sndBusy {
		p.pump()
	}
}

func (p *pipe) pump() {
	if len(p.sndQ) == 0 {
		p.sndBusy = false
		return
	}
	p.sndBusy = true
	seg := p.sndQ[0]
	p.sndQ = p.sndQ[1:]
	txTime := float64(seg.Len+40) * 8 / p.rateBps
	p.eng.Schedule(txTime, func() {
		if !p.lossFn(seg) {
			s := seg
			p.eng.Schedule(p.delay, func() { p.deliver(s) })
		}
		p.pump()
	})
}

func (p *pipe) sendAck(seg Segment) {
	s := seg
	p.eng.Schedule(p.delay, func() { p.ackPath(s) })
}

func setup(eng *sim.Engine, delay, rateBps float64, queueCap int) (*Sender, *Receiver, *pipe) {
	snd := NewSender(eng)
	rcv := NewReceiver()
	p := newPipe(eng, delay, rateBps, queueCap)
	snd.Output = p.sendData
	p.deliver = rcv.OnSegment
	rcv.Output = p.sendAck
	p.ackPath = func(seg Segment) { snd.OnAck(seg.AckNo, seg.SentAt) }
	return snd, rcv, p
}

func TestBulkTransferFillsPipe(t *testing.T) {
	var eng sim.Engine
	// 10 Mbps, 20 ms RTT: BDP = 25 KB ≈ 18 segments; queue 40.
	snd, rcv, _ := setup(&eng, 0.01, 10e6, 40)
	snd.Start()
	eng.Run(10)
	goodput := float64(rcv.BytesDelivered) * 8 / 10
	if goodput < 8e6 {
		t.Fatalf("goodput %.2f Mbps, want > 8 on a clean 10 Mbps pipe", goodput/1e6)
	}
	if snd.Timeouts > 2 {
		t.Fatalf("%d timeouts on a clean pipe", snd.Timeouts)
	}
}

func TestSlowStartDoubles(t *testing.T) {
	var eng sim.Engine
	snd, _, _ := setup(&eng, 0.05, 100e6, 1000)
	snd.Start()
	// After ~3 RTTs of slow start, cwnd should have grown well beyond
	// the initial window and below the (infinite) ssthresh.
	eng.Run(0.32)
	if snd.cwnd < 8*MSS {
		t.Fatalf("cwnd %.0f after 3 RTTs, want >= 8 MSS", snd.cwnd/MSS)
	}
}

func TestLossTriggersFastRetransmit(t *testing.T) {
	var eng sim.Engine
	snd, rcv, p := setup(&eng, 0.01, 10e6, 100)
	dropOnce := true
	n := 0
	p.lossFn = func(seg Segment) bool {
		if seg.IsAck {
			return false
		}
		n++
		if n == 20 && dropOnce {
			dropOnce = false
			return true
		}
		return false
	}
	snd.Start()
	eng.Run(5)
	if snd.FastRetx < 1 {
		t.Fatal("dropped segment did not trigger fast retransmit")
	}
	if snd.Timeouts > 0 {
		t.Fatalf("single loss caused %d timeouts; dupACKs should have handled it", snd.Timeouts)
	}
	if rcv.BytesDelivered == 0 {
		t.Fatal("no data delivered")
	}
}

func TestBurstLossCausesTimeout(t *testing.T) {
	// Losing a whole window leaves no dupACK source: only the RTO can
	// recover — exactly the TCP pathology that unresponsive rate
	// adaptation causes in fading channels (§6.2).
	var eng sim.Engine
	snd, _, p := setup(&eng, 0.01, 10e6, 100)
	blackout := false
	p.lossFn = func(seg Segment) bool { return blackout && !seg.IsAck }
	snd.Start()
	eng.Schedule(2, func() { blackout = true })
	eng.Schedule(2.5, func() { blackout = false })
	eng.Run(6)
	if snd.Timeouts == 0 {
		t.Fatal("whole-window blackout did not cause an RTO")
	}
}

func TestThroughputDropsWithLossRate(t *testing.T) {
	run := func(loss float64, seed int64) float64 {
		var eng sim.Engine
		snd, rcv, p := setup(&eng, 0.01, 10e6, 100)
		rng := rand.New(rand.NewSource(seed))
		p.lossFn = func(seg Segment) bool { return !seg.IsAck && rng.Float64() < loss }
		snd.Start()
		eng.Run(20)
		return float64(rcv.BytesDelivered) * 8 / 20
	}
	clean := run(0, 1)
	lossy := run(0.05, 2)
	if lossy >= clean/2 {
		t.Fatalf("5%% loss throughput %.2f Mbps not well below clean %.2f", lossy/1e6, clean/1e6)
	}
}

func TestCongestionNotCollapse(t *testing.T) {
	// A queue below the BDP forces loss-based operation; Reno suffers
	// (classic sub-BDP-buffer underutilization) but must not collapse to
	// a trickle.
	var eng sim.Engine
	snd, rcv, _ := setup(&eng, 0.01, 5e6, 8)
	snd.Start()
	eng.Run(20)
	goodput := float64(rcv.BytesDelivered) * 8 / 20
	if goodput < 0.8e6 {
		t.Fatalf("goodput %.2f Mbps with a small queue, want > 0.8", goodput/1e6)
	}
}

func TestReceiverReordersOutOfOrder(t *testing.T) {
	rcv := NewReceiver()
	var acks []int64
	rcv.Output = func(seg Segment) { acks = append(acks, seg.AckNo) }
	mss := 100
	// Deliver 2, 0, 1 (in units of MSS).
	rcv.OnSegment(Segment{Seq: int64(2 * mss), Len: mss})
	rcv.OnSegment(Segment{Seq: 0, Len: mss})
	rcv.OnSegment(Segment{Seq: int64(mss), Len: mss})
	wantAcks := []int64{0, int64(mss), int64(3 * mss)}
	if len(acks) != 3 {
		t.Fatalf("acks %v", acks)
	}
	for i := range wantAcks {
		if acks[i] != wantAcks[i] {
			t.Fatalf("acks %v, want %v", acks, wantAcks)
		}
	}
	if rcv.BytesDelivered != int64(3*mss) {
		t.Fatalf("delivered %d, want %d", rcv.BytesDelivered, 3*mss)
	}
}

func TestDuplicateSegmentHarmless(t *testing.T) {
	rcv := NewReceiver()
	var lastAck int64
	rcv.Output = func(seg Segment) { lastAck = seg.AckNo }
	rcv.OnSegment(Segment{Seq: 0, Len: 100})
	rcv.OnSegment(Segment{Seq: 0, Len: 100}) // duplicate
	if rcv.BytesDelivered != 100 {
		t.Fatalf("duplicate counted twice: %d", rcv.BytesDelivered)
	}
	if lastAck != 100 {
		t.Fatalf("lastAck %d, want 100", lastAck)
	}
}

func TestRTTEstimation(t *testing.T) {
	var eng sim.Engine
	snd, _, _ := setup(&eng, 0.025, 50e6, 1000) // RTT 50 ms + tx time
	snd.Start()
	// Stop before the lossless window builds a large standing queue,
	// which would (correctly) inflate the measured RTT.
	eng.Run(0.4)
	if !snd.haveRTT {
		t.Fatal("no RTT samples")
	}
	if snd.srtt < 0.045 || snd.srtt > 0.12 {
		t.Fatalf("SRTT %v, want ~0.05-0.1", snd.srtt)
	}
	if snd.rto < minRTO {
		t.Fatalf("RTO %v below floor", snd.rto)
	}
}

func TestAIMDSawtooth(t *testing.T) {
	// With periodic single losses, cwnd must repeatedly halve (multiplicative
	// decrease) and re-grow (additive increase) rather than collapse.
	var eng sim.Engine
	snd, rcv, p := setup(&eng, 0.01, 10e6, 60)
	rng := rand.New(rand.NewSource(3))
	p.lossFn = func(seg Segment) bool { return !seg.IsAck && rng.Float64() < 0.003 }
	snd.Start()
	var cwndSamples []float64
	var sample func()
	sample = func() {
		cwndSamples = append(cwndSamples, snd.cwnd)
		eng.Schedule(0.1, sample)
	}
	eng.Schedule(1, sample)
	eng.Run(30)
	if rcv.BytesDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	mean := 0.0
	for _, c := range cwndSamples {
		mean += c
	}
	mean /= float64(len(cwndSamples))
	variance := 0.0
	for _, c := range cwndSamples {
		variance += (c - mean) * (c - mean)
	}
	variance /= float64(len(cwndSamples))
	if math.Sqrt(variance) < MSS {
		t.Fatal("cwnd shows no sawtooth variation under periodic loss")
	}
}
