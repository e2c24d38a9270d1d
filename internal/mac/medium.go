package mac

import (
	"math/rand"

	"softrate/internal/ofdm"
	"softrate/internal/ratectl"
	"softrate/internal/sim"
	"softrate/internal/trace"
)

// Medium coordinates the shared wireless channel: who is on the air, who
// senses whom, and what overlaps.
type Medium struct {
	// Eng is the discrete-event engine driving the simulation.
	Eng *sim.Engine
	// Cfg is the MAC configuration.
	Cfg Config
	// Rng drives carrier sense draws, backoff and detection coin flips.
	Rng *rand.Rand
	// CSProb returns the probability that station a senses station b's
	// transmissions (1.0 = perfect carrier sense). Symmetry is up to the
	// caller; the default is perfect sensing.
	CSProb func(a, b int) float64

	stations []*Station
	active   []*onAir
	free     []*onAir // records gc dropped, for transmit to reuse
	others   []*onAir // overlaps' result
}

// onAir is a transmission occupying the channel, including its SIFS+ACK
// tail during which the channel is also effectively busy.
type onAir struct {
	from      int
	airStart  float64 // first energy on the air (RTS start, if any)
	start     float64 // data frame start (== airStart without RTS)
	dataEnd   float64 // end of the data frame
	busyEnd   float64 // end including SIFS + ACK (what others defer to)
	protected bool    // RTS/CTS in use: data is shielded once the CTS is out
}

// NewMedium builds an empty medium.
func NewMedium(eng *sim.Engine, cfg Config, rng *rand.Rand) *Medium {
	return &Medium{
		Eng:    eng,
		Cfg:    cfg,
		Rng:    rng,
		CSProb: func(a, b int) float64 { return 1 },
	}
}

// NewStation creates a station bound to this medium.
func (m *Medium) NewStation(adapter ratectl.Adapter, fwd *trace.LinkTrace) *Station {
	s := &Station{
		ID:      len(m.stations),
		Adapter: adapter,
		Fwd:     fwd,
		med:     m,
		cw:      cwMin,
	}
	s.attemptFn, s.completeFn = s.attempt, s.complete
	m.stations = append(m.stations, s)
	return s
}

// newOnAir returns a record for transmit to fill, reusing one gc dropped.
func (m *Medium) newOnAir() *onAir {
	if n := len(m.free); n > 0 {
		tx := m.free[n-1]
		m.free = m.free[:n-1]
		return tx
	}
	return new(onAir)
}

// senses reports whether station id perceives the channel busy at time
// now. A transmission is sensed with probability CSProb(id, from), except
// during its first slotTime, which models the detection blind spot that
// makes same-slot collisions possible even with perfect carrier sense.
func (m *Medium) senses(id int, now float64) (busy bool, until float64) {
	for _, tx := range m.active {
		if tx.from == id || now >= tx.busyEnd {
			continue
		}
		if now < tx.start+slotTime {
			continue // blind spot: energy not yet detectable
		}
		p := m.CSProb(id, tx.from)
		if tx.protected {
			// Everyone hears the AP's CTS: the reservation is visible
			// even to hidden terminals.
			p = 1
		}
		if m.Rng.Float64() < p {
			busy = true
			if tx.busyEnd > until {
				until = tx.busyEnd
			}
		}
	}
	return busy, until
}

// overlaps returns the transmissions (other than tx) whose on-air energy
// (RTS included) overlaps tx's full on-air span. The slice is the
// medium's, valid until the next call.
func (m *Medium) overlaps(tx *onAir) []*onAir {
	out := m.others[:0]
	for _, o := range m.active {
		if o == tx || o.from == tx.from {
			continue
		}
		if o.airStart < tx.dataEnd && tx.airStart < o.dataEnd {
			out = append(out, o)
		}
	}
	m.others = out
	return out
}

// gc drops finished transmissions from the active list, keeping their
// order, and hands the dropped records to newOnAir. Called whenever a
// transmission completes, it keeps a record until 1 ms after its busyEnd.
// That is shorter than a long frame (1440 bytes at 6 Mbps: 245 symbols of
// 8 µs, 1.96 ms), so a record can go while a frame that overlapped it is
// still on the air, and that frame then resolves as if the overlap never
// happened.
func (m *Medium) gc(now float64) {
	kept := m.active[:0]
	for _, tx := range m.active {
		if tx.busyEnd > now-1e-3 {
			kept = append(kept, tx)
		} else {
			m.free = append(m.free, tx)
		}
	}
	m.active = kept
}

// overlapCovers reports whether any of the overlapping transmissions'
// energy covers the window [a, b) of the victim frame.
func overlapCovers(others []*onAir, a, b float64) bool {
	for _, o := range others {
		if o.airStart < b && a < o.dataEnd {
			return true
		}
	}
	return false
}

// preambleTime returns the duration of the preamble at the head of every
// frame.
func (m *Medium) preambleTime() float64 {
	return float64(ofdm.PreambleSymbols) * ofdm.Simulation.SymbolTime()
}

// postambleTime returns the postamble duration.
func (m *Medium) postambleTime() float64 {
	return float64(ofdm.PostambleSymbols) * ofdm.Simulation.SymbolTime()
}
