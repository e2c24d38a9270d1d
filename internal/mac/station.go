package mac

import (
	"softrate/internal/ofdm"
	"softrate/internal/ratectl"
	"softrate/internal/trace"
)

// routeAdapter is the adapter type returned by routing (an alias keeps the
// RouteFor signature readable).
type routeAdapter = ratectl.Adapter

// This file holds the per-station CSMA/CA state machine: enqueue →
// (DIFS + backoff) → carrier sense → transmit → outcome → feedback/ARQ.

// Enqueue hands a packet to the station's interface queue, dropping it if
// the queue is full (tail drop — the congestion signal TCP sees).
func (s *Station) Enqueue(p Packet) {
	if s.MaxQueue > 0 && s.queue.Len() >= s.MaxQueue {
		if s.OnDrop != nil {
			s.OnDrop(p, s.med.Eng.Now())
		}
		return
	}
	s.Stats.Enqueued++
	s.queue.Push(p)
	if !s.pending {
		s.scheduleAttempt(difs + s.backoff())
	}
}

// QueueLen returns the interface queue depth (for BDP-sized-queue checks).
func (s *Station) QueueLen() int { return s.queue.Len() }

// backoff draws a uniform backoff from the current contention window.
func (s *Station) backoff() float64 {
	return float64(s.med.Rng.Intn(s.cw+1)) * slotTime
}

func (s *Station) scheduleAttempt(delay float64) {
	s.pending = true
	s.med.Eng.Schedule(delay, s.attemptFn)
}

// attempt fires when DIFS+backoff expires: sense, then transmit or defer.
func (s *Station) attempt() {
	if s.queue.Len() == 0 {
		s.pending = false
		return
	}
	m := s.med
	now := m.Eng.Now()
	if busy, until := m.senses(s.ID, now); busy {
		// Defer: wait out the perceived busy period, then DIFS + fresh
		// backoff (no freeze-resume; the redraw preserves the fairness
		// and collision structure the experiments depend on).
		s.scheduleAttempt(until - now + difs + s.backoff())
		return
	}
	s.transmit()
}

// route resolves the adapter and forward trace for a packet, honouring the
// per-destination override.
func (s *Station) route(p Packet) (adapter routeAdapter, fwd *trace.LinkTrace) {
	if s.RouteFor != nil {
		return s.RouteFor(p)
	}
	return s.Adapter, s.Fwd
}

// transmit puts the head-of-queue packet on the air.
func (s *Station) transmit() {
	m := s.med
	now := m.Eng.Now()
	p := s.queue.Front()
	adapter, fwd := s.route(p)
	ri := adapter.NextRate(now)
	if ri < 0 {
		ri = 0
	}
	if ri >= len(rates) {
		ri = len(rates) - 1
	}
	useRTS := adapter.WantRTS()

	prefix := 0.0
	if useRTS {
		prefix = rtsPrefix
	}
	air := s.payloadAirtime(p.Bytes, ri)
	start := now + prefix
	dataEnd := start + air
	busyEnd := dataEnd + sifs + ackAir
	// The RTS/CTS exchange occupies [now, start) unprotected: the RTS
	// itself is an ordinary short frame and collides like one. Protection
	// takes effect only once the CTS reservation is out — so under
	// relentless hidden-terminal pressure RTS fails as often as data does
	// (the paper finds RRAA's adaptive RTS "ineffective", §6.4).
	tx := m.newOnAir()
	*tx = onAir{from: s.ID, airStart: now, start: start, dataEnd: dataEnd, busyEnd: busyEnd, protected: useRTS}
	m.active = append(m.active, tx)
	s.Stats.Attempts++
	s.air = inFlight{tx: tx, p: p, ri: ri, usedRTS: useRTS, airtime: air + prefix, adapter: adapter, fwd: fwd}
	m.Eng.At(dataEnd, s.completeFn)
}

// payloadAirtime returns the airtime of a bytes-long data frame at rate
// index ri.
func (s *Station) payloadAirtime(bytes, ri int) float64 {
	if bytes != s.airBytes || s.airtimes == nil {
		s.airBytes, s.airtimes = bytes, s.airtimes[:0]
		for _, r := range rates {
			s.airtimes = append(s.airtimes, ofdm.Simulation.PayloadAirtime(bytes, r, s.med.Cfg.Postamble))
		}
	}
	return s.airtimes[ri]
}

// complete resolves the outcome of the frame in flight and runs feedback
// and ARQ.
func (s *Station) complete() {
	f := s.air
	m := s.med
	now := m.Eng.Now()
	snap := f.fwd.At(f.ri, f.tx.start)

	others := m.overlaps(f.tx)

	rec := TxRecord{
		Time:        f.tx.start,
		RateIndex:   f.ri,
		OracleIndex: f.fwd.BestRateAt(f.tx.start),
	}

	var res resultOutcome
	switch {
	case f.tx.protected && len(others) > 0:
		// Overlap hit the unshielded RTS/CTS exchange (or leaked into
		// the reservation): no CTS, no transmission worth speaking of —
		// a silent loss from the sender's perspective.
		rec.Collided = true
		rec.PreambleLost, rec.PostambleLost = true, true
		res = resultOutcome{}
	case len(others) > 0:
		rec.Collided = true
		res = s.collisionOutcome(f.tx, others, snap, &rec)
	default:
		res = s.cleanOutcome(snap)
	}
	rec.Delivered = res.delivered
	rec.Silent = !res.feedback
	if s.RecordTx {
		s.Stats.Records = append(s.Stats.Records, rec)
	}

	// Inform the adapter. SNR feedback rides every ACK; silent losses
	// give NaN.
	f.adapter.OnResult(resToRatectl(res, f.tx.start, f.ri, f.airtime, f.usedRTS))

	// ARQ.
	if res.delivered {
		s.queue.Pop()
		s.Stats.Delivered++
		s.Stats.BytesDelivered += int64(f.p.Bytes)
		s.retries = 0
		s.cw = cwMin
		if s.OnDeliver != nil {
			s.OnDeliver(f.p, now)
		}
	} else {
		s.retries++
		s.cw = min(s.cw*2+1, cwMax)
		if s.retries > retryLimit {
			s.queue.Pop()
			s.Stats.Dropped++
			s.retries = 0
			s.cw = cwMin
			if s.OnDrop != nil {
				s.OnDrop(f.p, now)
			}
		}
	}

	m.gc(now)
	if s.queue.Len() > 0 {
		s.scheduleAttempt(sifs + ackAir + difs + s.backoff())
	} else {
		s.pending = false
	}
}

// resultOutcome is the receiver-side verdict before translation into a
// ratectl.Result.
type resultOutcome struct {
	delivered     bool
	feedback      bool
	postambleOnly bool
	ber           float64
	collisionFlag bool
	snrValid      bool
	snrDB         float64
}

// cleanOutcome resolves a frame that suffered no overlap: the trace
// snapshot speaks directly.
func (s *Station) cleanOutcome(snap traceSnapshot) resultOutcome {
	if !snap.Detected {
		return resultOutcome{} // silent loss: weak signal
	}
	return resultOutcome{
		delivered: snap.Delivered,
		feedback:  true,
		ber:       snap.BER,
		snrValid:  true,
		snrDB:     snap.SNRdB,
	}
}

// collisionOutcome resolves an overlapped frame: the body is lost (§6.1:
// "we assume both colliding frames are lost"); what feedback the sender
// gets depends on the overlap geometry and the interference detector.
func (s *Station) collisionOutcome(tx *onAir, others []*onAir, snap traceSnapshot, rec *TxRecord) resultOutcome {
	m := s.med
	preClean := !overlapCovers(others, tx.start, tx.start+m.preambleTime())
	postClean := !overlapCovers(others, tx.dataEnd-m.postambleTime(), tx.dataEnd)
	rec.PreambleLost = !preClean
	rec.PostambleLost = !postClean

	// The channel itself must also be good enough for sync.
	if !snap.Detected {
		preClean = false
		postClean = false
		rec.PreambleLost, rec.PostambleLost = true, true
	}

	switch {
	case preClean:
		// Receiver synchronized with our frame; body errored by the
		// interferer. Header survives (lowest rate + own CRC), so BER
		// feedback is sent. The detector identifies the collision with
		// probability InterferenceDetectionProb, in which case the
		// feedback carries the interference-free BER from the excised
		// portions (§6.4 methodology); otherwise it reports the raw,
		// interference-inflated BER — a noise verdict.
		if m.Rng.Float64() < m.Cfg.InterferenceDetectionProb {
			return resultOutcome{
				feedback:      true,
				ber:           snap.BER,
				collisionFlag: true,
				snrValid:      true,
				snrDB:         snap.SNRdB,
			}
		}
		return resultOutcome{
			feedback: true,
			ber:      0.2, // interference-inflated estimate
			snrValid: true,
			snrDB:    snap.SNRdB,
		}
	case m.Cfg.Postamble && postClean:
		// Preamble gone, postamble caught: postamble-only ACK (§3.2).
		return resultOutcome{feedback: true, postambleOnly: true}
	default:
		return resultOutcome{} // silent loss: full overlap
	}
}
