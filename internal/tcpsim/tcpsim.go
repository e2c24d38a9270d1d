// Package tcpsim implements a Reno-style TCP for the end-to-end
// evaluation: slow start, congestion avoidance, duplicate-ACK fast
// retransmit, and RTO with exponential backoff and RFC 6298-style RTT
// estimation. It is deliberately a model, not a stack — no handshake, no
// teardown, segments are MSS-aligned, and the application always has data
// — but it reproduces the dynamics the paper's TCP results hinge on: burst
// losses collapse the window, and a responsive link layer that prevents
// those bursts keeps the pipe full (§6.2).
package tcpsim

import (
	"math"

	"softrate/internal/sim"
)

// Segment is a TCP segment or ACK traveling through the simulated network.
type Segment struct {
	// Seq is the byte offset of the segment's first payload byte.
	Seq int64
	// Len is the payload length (0 for pure ACKs).
	Len int
	// IsAck marks an acknowledgment.
	IsAck bool
	// AckNo is the cumulative acknowledgment (next expected byte).
	AckNo int64
	// SentAt timestamps the original transmission (for RTT sampling;
	// retransmissions clear it to sidestep Karn's ambiguity).
	SentAt float64
}

// Config parameterizes a sender.
type Config struct {
	// MSS is the maximum segment size in bytes (default 1400, the
	// paper's frame payload).
	MSS int
	// InitialWindow is the initial congestion window in segments
	// (default 2).
	InitialWindow int
	// RWnd is the receiver window in bytes (default 1 MiB — effectively
	// unlimited, so the congestion window governs).
	RWnd int64
	// MinRTO floors the retransmission timeout (default 200 ms).
	MinRTO float64
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{MSS: 1400, InitialWindow: 2, RWnd: 1 << 20, MinRTO: 0.2}
}

// Sender is one TCP sending endpoint with an infinite data source.
type Sender struct {
	cfg Config
	eng *sim.Engine
	// Output transmits a segment toward the receiver; wired up by the
	// network layer.
	Output func(seg Segment)

	sndUna  int64 // oldest unacknowledged byte
	sndNext int64 // next byte to send
	cwnd    float64
	ssth    float64

	dupAcks    int
	inRecovery bool
	recoverTo  int64

	srtt, rttvar float64
	haveRTT      bool
	rto          float64
	timer        *sim.Timer // the RTO
	timerSet     bool

	// Stats
	Retransmits int
	Timeouts    int
	FastRetx    int
}

// NewSender builds a sender bound to the engine; call Start to begin.
func NewSender(eng *sim.Engine, cfg Config) *Sender {
	if cfg.MSS <= 0 {
		cfg.MSS = 1400
	}
	if cfg.InitialWindow <= 0 {
		cfg.InitialWindow = 2
	}
	if cfg.RWnd <= 0 {
		cfg.RWnd = 1 << 20
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 0.2
	}
	s := &Sender{
		cfg:  cfg,
		eng:  eng,
		cwnd: float64(cfg.InitialWindow * cfg.MSS),
		ssth: math.Inf(1),
		rto:  1.0,
	}
	s.timer = sim.NewTimer(eng, s.onTimer)
	return s
}

// Cwnd returns the current congestion window in bytes.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Start begins transmission.
func (s *Sender) Start() { s.trySend() }

// window returns the effective send window in bytes.
func (s *Sender) window() float64 {
	w := s.cwnd
	if float64(s.cfg.RWnd) < w {
		w = float64(s.cfg.RWnd)
	}
	return w
}

// trySend emits new segments while the window allows.
func (s *Sender) trySend() {
	for float64(s.sndNext-s.sndUna)+float64(s.cfg.MSS) <= s.window() {
		seg := Segment{Seq: s.sndNext, Len: s.cfg.MSS, SentAt: s.eng.Now()}
		s.sndNext += int64(s.cfg.MSS)
		s.armTimer()
		s.Output(seg)
	}
}

// armTimer (re)arms the retransmission timer if unset.
func (s *Sender) armTimer() {
	if s.timerSet {
		return
	}
	s.timerSet = true
	s.timer.Reset(s.rto)
}

// resetTimer cancels the pending timer and re-arms it if data is in
// flight.
func (s *Sender) resetTimer() {
	s.timer.Stop()
	s.timerSet = false
	if s.sndNext > s.sndUna {
		s.armTimer()
	}
}

// onTimer fires the RTO. A timeout with nothing in flight leaves the
// timer marked set until the next ACK resets it.
func (s *Sender) onTimer() {
	if s.sndUna >= s.sndNext {
		return
	}
	s.Timeouts++
	s.Retransmits++
	// Classic Reno timeout response: collapse the window and go back to
	// snd_una. Rewinding sndNext makes trySend retransmit the whole lost
	// window in slow start as ACKs return — without it, a whole-window
	// loss would crawl forward one segment per (exponentially backed-off)
	// RTO, which is not how any real TCP behaves.
	flight := float64(s.sndNext - s.sndUna)
	s.ssth = math.Max(flight/2, float64(2*s.cfg.MSS))
	s.cwnd = float64(s.cfg.MSS)
	s.dupAcks = 0
	s.inRecovery = false
	s.rto = math.Min(s.rto*2, 60)
	s.timerSet = false
	s.sndNext = s.sndUna
	s.trySend()
	s.armTimer()
}

// OnAck processes a cumulative acknowledgment.
func (s *Sender) OnAck(ackNo int64, echoedSentAt float64) {
	now := s.eng.Now()
	if echoedSentAt > 0 {
		s.sampleRTT(now - echoedSentAt)
	}
	switch {
	case ackNo > s.sndUna:
		acked := float64(ackNo - s.sndUna)
		s.sndUna = ackNo
		s.dupAcks = 0
		if s.inRecovery {
			if ackNo >= s.recoverTo {
				// Recovery complete: deflate to ssthresh.
				s.inRecovery = false
				s.cwnd = s.ssth
			} else {
				// Partial ACK (NewReno): retransmit next hole.
				s.Retransmits++
				s.Output(Segment{Seq: s.sndUna, Len: s.cfg.MSS})
			}
		} else if s.cwnd < s.ssth {
			s.cwnd += acked // slow start
		} else {
			s.cwnd += float64(s.cfg.MSS) * acked / s.cwnd // AIMD
		}
		s.resetTimer()
	case ackNo == s.sndUna && s.sndNext > s.sndUna:
		s.dupAcks++
		if s.dupAcks == 3 && !s.inRecovery {
			// Fast retransmit.
			s.FastRetx++
			s.Retransmits++
			flight := float64(s.sndNext - s.sndUna)
			s.ssth = math.Max(flight/2, float64(2*s.cfg.MSS))
			s.cwnd = s.ssth + 3*float64(s.cfg.MSS)
			s.inRecovery = true
			s.recoverTo = s.sndNext
			s.Output(Segment{Seq: s.sndUna, Len: s.cfg.MSS})
		} else if s.inRecovery {
			s.cwnd += float64(s.cfg.MSS) // window inflation
		}
	}
	s.trySend()
}

// sampleRTT updates SRTT/RTTVAR and the RTO per RFC 6298.
func (s *Sender) sampleRTT(rtt float64) {
	if rtt <= 0 {
		return
	}
	if !s.haveRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.haveRTT = true
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-rtt)
		s.srtt = (1-alpha)*s.srtt + alpha*rtt
	}
	s.rto = math.Max(s.srtt+4*s.rttvar, s.cfg.MinRTO)
}

// Receiver is the TCP receiving endpoint: cumulative ACKs with
// out-of-order buffering.
type Receiver struct {
	// Output transmits ACK segments back toward the sender.
	Output func(seg Segment)

	rcvNext int64
	ooo     map[int64]int // seq -> len of buffered out-of-order segments

	// BytesDelivered counts in-order payload delivered to the
	// application — the throughput numerator of the experiments.
	BytesDelivered int64
}

// NewReceiver builds a receiver.
func NewReceiver() *Receiver {
	return &Receiver{ooo: map[int64]int{}}
}

// OnSegment processes an arriving data segment and emits an ACK.
func (r *Receiver) OnSegment(seg Segment) {
	if seg.Len > 0 {
		switch {
		case seg.Seq == r.rcvNext:
			r.rcvNext += int64(seg.Len)
			r.BytesDelivered += int64(seg.Len)
			// Drain contiguous out-of-order data.
			for {
				l, ok := r.ooo[r.rcvNext]
				if !ok {
					break
				}
				delete(r.ooo, r.rcvNext)
				r.BytesDelivered += int64(l)
				r.rcvNext += int64(l)
			}
		case seg.Seq > r.rcvNext:
			r.ooo[seg.Seq] = seg.Len
		}
		// else: old duplicate; ACK anyway.
	}
	r.Output(Segment{IsAck: true, AckNo: r.rcvNext, SentAt: seg.SentAt})
}
