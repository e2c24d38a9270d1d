// Package netsim assembles the end-to-end evaluation topology of the
// paper's Figure 12: N 802.11 clients associate with an access point; the
// AP connects over a 50 Mbps, 10 ms point-to-point link to wired LAN
// hosts; N TCP flows transfer 1400-byte segments between the clients and
// the corresponding wired nodes. Every wireless hop runs through the
// trace-driven MAC; TCP ACKs ride the wireless medium back through the AP
// and contend for airtime like any other frame.
package netsim

import (
	"fmt"
	"math/rand"

	"softrate/internal/ctl"
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
	// TCP is the transport configuration.
	TCP tcpsim.Config
	// WiredRate and WiredDelay describe the AP↔LAN point-to-point link
	// (50 Mbps / 10 ms in the paper).
	WiredRate  float64
	WiredDelay float64
	// Duration is the simulated time in seconds.
	Duration float64
	// ClientQueue and APQueue bound the MAC queues in packets; the paper
	// sizes them slightly above the wireless BDP.
	ClientQueue, APQueue int
	// CSProb is the pairwise carrier sense probability between client
	// stations (the AP hears and is heard by everyone). Default 1.
	CSProb float64
	// RecordTx enables per-attempt logs on the client stations.
	RecordTx bool
	// QueueDebug, when set, receives periodic MAC queue depth samples
	// for diagnosis.
	QueueDebug func(t float64, who string, qlen int)
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{
		MAC:         mac.DefaultConfig(),
		TCP:         tcpsim.DefaultConfig(),
		WiredRate:   50e6,
		WiredDelay:  10e-3,
		Duration:    10,
		ClientQueue: 30,
		APQueue:     60,
		CSProb:      1,
		Seed:        1,
	}
}

// AdapterFactory builds a rate controller for one link, on the unified
// ctl.Controller contract — the same interface the softrated decision
// service stores and relocates, so any algorithm evaluated here is
// servable and vice versa (wrap bare ratectl adapters with ctl.Wrap). The
// factory receives the link's forward trace so oracle- and training-based
// algorithms can be constructed; honest algorithms must only use it for
// training, never for lookahead. Algorithms lists the §6.1 factories.
type AdapterFactory func(fwd *trace.LinkTrace, rng *rand.Rand) ctl.Controller

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

// wiredLink is a FIFO rate+delay pipe (one direction of the point-to-point
// link).
type wiredLink struct {
	eng   *sim.Engine
	rate  float64
	delay float64
	busy  bool
	queue []func() // deliveries pending serialization, FIFO
	sizes []int
}

func (w *wiredLink) send(bytes int, deliver func()) {
	w.queue = append(w.queue, deliver)
	w.sizes = append(w.sizes, bytes)
	if !w.busy {
		w.pump()
	}
}

func (w *wiredLink) pump() {
	if len(w.queue) == 0 {
		w.busy = false
		return
	}
	w.busy = true
	deliver := w.queue[0]
	bytes := w.sizes[0]
	w.queue = w.queue[1:]
	w.sizes = w.sizes[1:]
	txTime := float64(bytes+20) * 8 / w.rate
	w.eng.Schedule(txTime, func() {
		w.eng.Schedule(w.delay, deliver)
		w.pump()
	})
}

// segEnvelope carries a TCP segment and its flow through the MAC.
type segEnvelope struct {
	flow int
	seg  tcpsim.Segment
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

	up := &wiredLink{eng: eng, rate: cfg.WiredRate, delay: cfg.WiredDelay}
	down := &wiredLink{eng: eng, rate: cfg.WiredRate, delay: cfg.WiredDelay}

	// AP: one station, per-client adapters and reverse traces.
	apAdapters := make([]ctl.Controller, n)
	for i := 0; i < n; i++ {
		apAdapters[i] = factory(revTraces[i], rng)
	}
	ap := med.NewStation(apAdapters[0], revTraces[0])
	ap.MaxQueue = cfg.APQueue
	ap.RouteFor = func(p mac.Packet) (ratectl.Adapter, *trace.LinkTrace) {
		env := p.UserData.(segEnvelope)
		return apAdapters[env.flow], revTraces[env.flow]
	}
	// AP wireless delivery: TCP ACK arrives at the client's sender.
	ap.OnDeliver = func(p mac.Packet, at float64) {
		env := p.UserData.(segEnvelope)
		senders[env.flow].OnAck(env.seg.AckNo, env.seg.SentAt)
	}

	for i := 0; i < n; i++ {
		i := i
		clients[i] = med.NewStation(factory(fwdTraces[i], rng), fwdTraces[i])
		clients[i].MaxQueue = cfg.ClientQueue
		clients[i].RecordTx = cfg.RecordTx

		senders[i] = tcpsim.NewSender(eng, cfg.TCP)
		receivers[i] = tcpsim.NewReceiver()

		// Client → AP (wireless) → wired host.
		senders[i].Output = func(seg tcpsim.Segment) {
			clients[i].Enqueue(mac.Packet{
				Bytes:    seg.Len + 40,
				UserData: segEnvelope{flow: i, seg: seg},
			})
		}
		clients[i].OnDeliver = func(p mac.Packet, at float64) {
			env := p.UserData.(segEnvelope)
			up.send(p.Bytes, func() { receivers[env.flow].OnSegment(env.seg) })
		}
		// Wired host → AP (wired) → client (wireless ACK frame).
		receivers[i].Output = func(seg tcpsim.Segment) {
			down.send(40, func() {
				ap.Enqueue(mac.Packet{
					Bytes:    40,
					UserData: segEnvelope{flow: i, seg: seg},
				})
			})
		}
	}

	// Stagger flow starts slightly to avoid pathological synchronization.
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(float64(i)*1e-3, senders[i].Start)
	}
	if cfg.QueueDebug != nil {
		var sample func()
		sample = func() {
			for i, c := range clients {
				cfg.QueueDebug(eng.Now(), fmt.Sprintf("client%d", i), c.QueueLen())
			}
			cfg.QueueDebug(eng.Now(), "ap", ap.QueueLen())
			eng.Schedule(0.1, sample)
		}
		eng.Schedule(0.05, sample)
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
