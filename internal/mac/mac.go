// Package mac implements the link layer of the trace-driven evaluation: a
// CSMA/CA medium-access protocol with DIFS/SIFS timing, binary exponential
// backoff, probabilistic pairwise carrier sense (the knob of Figure 17's
// hidden-terminal sweep), frame-level ARQ, SoftRate-style feedback ACKs
// (sent even for errored frames, carrying the interference-free BER), an
// optional postamble path, and RTS/CTS support for RRAA's adaptive RTS.
//
// Frame outcomes on a link come from a trace.LinkTrace exactly as in the
// paper's ns-3 methodology (§6.1): traces are collected in isolation, so
// they model interference-free reception; when transmissions overlap, the
// MAC declares a collision and both bodies are lost, while the SoftPHY
// machinery (preamble/postamble overlap geometry, interference detection
// probability) decides what feedback, if any, the sender gets.
package mac

import (
	"softrate/internal/ofdm"
	"softrate/internal/rate"
	"softrate/internal/ratectl"
	"softrate/internal/sim"
	"softrate/internal/trace"
)

// Config collects MAC timing and protocol parameters.
type Config struct {
	// Mode is the OFDM mode, which sets frame airtimes.
	Mode ofdm.Mode
	// Rates is the rate set shared with the adaptation algorithms.
	Rates []rate.Rate
	// SIFS, DIFS and SlotTime are the 802.11 interframe timings.
	SIFS, DIFS, SlotTime float64
	// CWMin and CWMax bound the contention window (in slots).
	CWMin, CWMax int
	// RetryLimit drops a frame after this many failed attempts.
	RetryLimit int
	// AckBytes is the feedback frame size (sent at the lowest rate).
	AckBytes int
	// RTSBytes/CTSBytes size the RTS/CTS exchange.
	RTSBytes, CTSBytes int
	// Postamble appends postambles to data frames and enables
	// postamble-only feedback (§3.2).
	Postamble bool
	// InterferenceDetectionProb is the probability the receiver's
	// SoftPHY heuristic correctly flags a collision-damaged reception
	// (0.8 for the implemented detector per §5.3/§6.4; 1.0 for the
	// "ideal" SoftRate variant).
	InterferenceDetectionProb float64
}

// DefaultConfig returns 802.11a-like timings over the simulation OFDM mode.
func DefaultConfig() Config {
	return Config{
		Mode:                      ofdm.Simulation,
		Rates:                     rate.Evaluation(),
		SIFS:                      16e-6,
		DIFS:                      34e-6,
		SlotTime:                  9e-6,
		CWMin:                     15,
		CWMax:                     1023,
		RetryLimit:                7,
		AckBytes:                  14,
		RTSBytes:                  20,
		CTSBytes:                  14,
		InterferenceDetectionProb: 0.8,
	}
}

// Packet is one link-layer SDU queued at a station. It holds no pointers,
// so queueing one costs the garbage collector nothing.
type Packet struct {
	// Bytes is the payload size.
	Bytes int
	// Seq is the caller's handle, carried through the MAC untouched: an
	// upper layer that needs context back in RouteFor, OnDeliver or
	// OnDrop keeps it in a table of its own and puts the index here.
	Seq int64
}

// TxRecord logs one completed transmission attempt for the accuracy
// analyses (Figures 14 and 18) and the silent-loss studies (Table 1,
// Figure 4).
type TxRecord struct {
	// Time is the attempt's start time.
	Time float64
	// RateIndex is the rate used.
	RateIndex int
	// OracleIndex is the omniscient best rate at that instant.
	OracleIndex int
	// Delivered reports end-to-end frame success.
	Delivered bool
	// Collided reports overlap with another transmission.
	Collided bool
	// PreambleLost and PostambleLost report the overlap geometry at the
	// receiver (PostambleLost is meaningful only with Config.Postamble).
	PreambleLost, PostambleLost bool
	// Silent reports that the sender received no feedback at all.
	Silent bool
}

// Stats aggregates a station's activity.
type Stats struct {
	// Enqueued, Delivered and Dropped count packets (not attempts).
	Enqueued, Delivered, Dropped int
	// Attempts counts transmission attempts including retries.
	Attempts int
	// BytesDelivered totals delivered payload bytes.
	BytesDelivered int64
	// Records holds the per-attempt log (nil unless RecordTx).
	Records []TxRecord
}

// Station is one sending node: a queue, an ARQ machine and a rate
// adaptation algorithm, bound to a forward-link trace toward its receiver.
type Station struct {
	// ID indexes the station within its Medium.
	ID int
	// Adapter chooses rates.
	Adapter ratectl.Adapter
	// Fwd is the forward-link trace to this station's receiver.
	Fwd *trace.LinkTrace
	// RouteFor, when set, overrides Adapter and Fwd per packet — the
	// access point uses this to run an independent rate adaptation state
	// and reverse-link trace for each client it serves.
	RouteFor func(p Packet) (ratectl.Adapter, *trace.LinkTrace)
	// OnDeliver, when set, fires at the receiver with the delivered
	// packet and the delivery time.
	OnDeliver func(p Packet, at float64)
	// OnDrop fires when a packet exhausts its retries.
	OnDrop func(p Packet, at float64)
	// RecordTx enables the per-attempt log in Stats.
	RecordTx bool
	// MaxQueue bounds the interface queue (0 = unlimited); excess
	// enqueues are dropped, which is how TCP experiences congestion at
	// the bottleneck.
	MaxQueue int
	// Stats accumulates counters.
	Stats Stats

	med     *Medium
	queue   sim.FIFO[Packet]
	pending bool // an attempt is scheduled or in flight
	cw      int
	retries int

	// A station has at most one frame on the air (pending), so that
	// frame's parameters live here, and the engine runs attempt and
	// complete through method values bound once: scheduling them
	// allocates nothing.
	air                   inFlight
	attemptFn, completeFn func()

	// airBytes is the size of the last frame sent, and airtimes its
	// airtime at each rate: a station's frames rarely change size.
	airBytes int
	airtimes []float64
}

// inFlight is what complete needs of the frame transmit put on the air.
type inFlight struct {
	tx      *onAir
	p       Packet
	ri      int
	usedRTS bool
	airtime float64
	adapter ratectl.Adapter
	fwd     *trace.LinkTrace
}
