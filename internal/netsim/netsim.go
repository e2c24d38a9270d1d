// Package netsim assembles the end-to-end evaluation topology of the
// paper's Figure 12: N 802.11 clients associate with an access point; the
// AP connects over a 50 Mbps, 10 ms point-to-point link to wired LAN
// hosts; N TCP flows transfer 1400-byte segments between the clients and
// the corresponding wired nodes. Every wireless hop runs through the
// trace-driven MAC; TCP ACKs ride the wireless medium back through the AP
// and contend for airtime like any other frame.
package netsim

import (
	"math/rand"

	"softrate/internal/mac"
	"softrate/internal/ratectl"
	"softrate/internal/sim"
	"softrate/internal/tcpsim"
	"softrate/internal/trace"
)

// Config parameterizes a simulation run.
type Config struct {
	// MAC is the link-layer configuration.
	MAC mac.Config
	// Duration is the simulated time in seconds.
	Duration float64
	// CSProb is the pairwise carrier sense probability between client
	// stations (the AP hears and is heard by everyone). Default 1.
	CSProb float64
	// RecordTx enables per-attempt logs on the client stations.
	RecordTx bool
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{
		MAC:      mac.DefaultConfig(),
		Duration: 10,
		CSProb:   1,
		Seed:     1,
	}
}

// The topology's fixed parameters (§6.1, Figure 12).
const (
	// wiredRate and wiredDelay describe the AP↔LAN point-to-point link:
	// 50 Mbps, 10 ms.
	wiredRate  float64 = 50e6
	wiredDelay float64 = 10e-3
	// clientQueue and apQueue bound the MAC queues in packets; the paper
	// sizes them slightly above the wireless BDP.
	clientQueue = 30
	apQueue     = 60
)

// AdapterFactory builds the rate adaptation algorithm for one link. The
// factory receives the link's forward trace so oracle- and training-based
// algorithms can be constructed; honest algorithms must only use it for
// training, never for lookahead. Algorithms lists the §6.1 factories.
type AdapterFactory func(fwd *trace.LinkTrace, rng *rand.Rand) ratectl.Adapter

// FlowResult summarizes one TCP flow.
type FlowResult struct {
	// BytesDelivered is the application-level in-order goodput numerator.
	BytesDelivered int64
	// ThroughputBps is BytesDelivered*8/Duration.
	ThroughputBps float64
	// Retransmits, Timeouts count TCP-level recovery events.
	Retransmits, Timeouts int
}

// Result is the outcome of a simulation run.
type Result struct {
	// Flows holds per-flow results, indexed by client.
	Flows []FlowResult
	// AggregateBps sums the flow throughputs.
	AggregateBps float64
	// ClientStats exposes the MAC-level counters per client station.
	ClientStats []mac.Stats
	// APStats exposes the AP's MAC counters.
	APStats mac.Stats
}

// wiredLink is one direction of the point-to-point link: a FIFO rate and
// delay pipe. Every segment on it propagates for the same delay, so
// segments arrive in the order they finish serializing and each arrival
// event delivers the head of flight. Both events are method values bound
// once, so a segment on the wire costs the heap nothing.
type wiredLink struct {
	eng              *sim.Engine
	deliver          func(flowSeg)
	queue            sim.FIFO[flowSeg] // the head is serializing while busy
	flight           sim.FIFO[flowSeg] // serialized, propagating
	busy             bool
	sentFn, arriveFn func()
}

// flowSeg is a TCP segment of one flow, with its size on the link.
type flowSeg struct {
	bytes, flow int
	seg         tcpsim.Segment
}

func newWiredLink(eng *sim.Engine, deliver func(flowSeg)) *wiredLink {
	w := &wiredLink{eng: eng, deliver: deliver}
	w.sentFn, w.arriveFn = w.sent, w.arrive
	return w
}

func (w *wiredLink) send(f flowSeg) {
	w.queue.Push(f)
	if !w.busy {
		w.pump()
	}
}

// pump starts serializing the head segment, if there is one.
func (w *wiredLink) pump() {
	w.busy = w.queue.Len() > 0
	if w.busy {
		txTime := float64(w.queue.Front().bytes+20) * 8 / wiredRate
		w.eng.Schedule(txTime, w.sentFn)
	}
}

func (w *wiredLink) sent() {
	w.flight.Push(w.queue.Pop())
	w.eng.Schedule(wiredDelay, w.arriveFn)
	w.pump()
}

func (w *wiredLink) arrive() { w.deliver(w.flight.Pop()) }

// segSlab holds the segments riding the MAC: a packet's Seq is its slot,
// and a slot is reused once the MAC delivers or drops the packet.
type segSlab struct {
	segs []flowSeg
	free []int64
}

// packet stores f and returns the MAC packet that carries it.
func (s *segSlab) packet(f flowSeg) mac.Packet {
	h := int64(len(s.segs))
	if n := len(s.free); n > 0 {
		h, s.free = s.free[n-1], s.free[:n-1]
		s.segs[h] = f
	} else {
		s.segs = append(s.segs, f)
	}
	return mac.Packet{Bytes: f.bytes, Seq: h}
}

// take returns the segment p carries and frees its slot.
func (s *segSlab) take(p mac.Packet) flowSeg {
	s.free = append(s.free, p.Seq)
	return s.segs[p.Seq]
}

// RunUplink simulates N uplink TCP flows (clients → wired hosts), one per
// entry of fwdTraces. revTraces are the AP→client links carrying TCP ACKs
// (the paper uses independent traces per direction). factory builds the
// rate adaptation algorithm per link; the AP uses the same factory for its
// reverse links.
func RunUplink(cfg Config, fwdTraces, revTraces []*trace.LinkTrace, factory AdapterFactory) Result {
	n := len(fwdTraces)
	if len(revTraces) != n {
		panic("netsim: forward/reverse trace count mismatch")
	}
	eng := &sim.Engine{}
	rng := rand.New(rand.NewSource(cfg.Seed))
	med := mac.NewMedium(eng, cfg.MAC, rng)
	// Stations 0..n-1 are clients; station n is the AP. Clients sense
	// each other with probability CSProb; everyone senses the AP.
	med.CSProb = func(a, b int) float64 {
		if a == n || b == n {
			return 1
		}
		return cfg.CSProb
	}

	clients := make([]*mac.Station, n)
	senders := make([]*tcpsim.Sender, n)
	receivers := make([]*tcpsim.Receiver, n)
	var slab segSlab
	drop := func(p mac.Packet, at float64) { slab.take(p) }

	// AP: one station, per-client adapters and reverse traces.
	apAdapters := make([]ratectl.Adapter, n)
	for i := 0; i < n; i++ {
		apAdapters[i] = factory(revTraces[i], rng)
	}
	ap := med.NewStation(apAdapters[0], revTraces[0])
	ap.MaxQueue = apQueue
	ap.RouteFor = func(p mac.Packet) (ratectl.Adapter, *trace.LinkTrace) {
		flow := slab.segs[p.Seq].flow
		return apAdapters[flow], revTraces[flow]
	}
	// AP wireless delivery: TCP ACK arrives at the client's sender.
	ap.OnDeliver = func(p mac.Packet, at float64) {
		f := slab.take(p)
		senders[f.flow].OnAck(f.seg.AckNo, f.seg.SentAt)
	}
	ap.OnDrop = drop

	up := newWiredLink(eng, func(f flowSeg) { receivers[f.flow].OnSegment(f.seg) })
	down := newWiredLink(eng, func(f flowSeg) { ap.Enqueue(slab.packet(f)) })

	for i := 0; i < n; i++ {
		i := i
		clients[i] = med.NewStation(factory(fwdTraces[i], rng), fwdTraces[i])
		clients[i].MaxQueue = clientQueue
		clients[i].RecordTx = cfg.RecordTx

		senders[i] = tcpsim.NewSender(eng)
		receivers[i] = tcpsim.NewReceiver()

		// Client → AP (wireless) → wired host.
		senders[i].Output = func(seg tcpsim.Segment) {
			clients[i].Enqueue(slab.packet(flowSeg{seg.Len + 40, i, seg}))
		}
		clients[i].OnDeliver = func(p mac.Packet, at float64) { up.send(slab.take(p)) }
		clients[i].OnDrop = drop
		// Wired host → AP (wired) → client (wireless ACK frame).
		receivers[i].Output = func(seg tcpsim.Segment) { down.send(flowSeg{40, i, seg}) }
	}

	// Stagger flow starts slightly to avoid pathological synchronization.
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(float64(i)*1e-3, senders[i].Start)
	}
	eng.Run(cfg.Duration)

	res := Result{Flows: make([]FlowResult, n), ClientStats: make([]mac.Stats, n)}
	for i := 0; i < n; i++ {
		fr := FlowResult{
			BytesDelivered: receivers[i].BytesDelivered,
			ThroughputBps:  float64(receivers[i].BytesDelivered) * 8 / cfg.Duration,
			Retransmits:    senders[i].Retransmits,
			Timeouts:       senders[i].Timeouts,
		}
		res.Flows[i] = fr
		res.AggregateBps += fr.ThroughputBps
		res.ClientStats[i] = clients[i].Stats
	}
	res.APStats = ap.Stats
	return res
}
