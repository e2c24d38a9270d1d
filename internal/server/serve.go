package server

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// One serving core. Every transport is a member of the server's one
// serveGroup (the lifecycle: registration, the sweeper, drain, close) and
// is driven by the one burst loop below through the small transport
// interface; tcp.go, udp.go and shm.go only say how payloads are
// gathered from, and responses sent to, their kind of peer.

// member is anything the group must be able to quiesce: an accept loop, a
// connection, a socket, a set of rings.
type member interface {
	// wake is called once when a drain begins: it must make a member
	// blocked waiting for traffic re-check the draining flag no later than
	// the deadline (and an accept loop stop accepting).
	wake(deadline time.Time)
	// Close force-releases the member; a blocked gather must fail promptly.
	Close() error
}

// transport is a member that carries requests. Not safe for concurrent
// use: the burst loop is its only caller (wake and Close excepted).
type transport interface {
	member
	// gather adds up to BurstSize request payloads to e: it may block for
	// the first, then takes only what has already arrived. It returns nil
	// with an empty burst when nothing arrived in its poll interval, and
	// an error when the transport is done — what e holds is still served.
	// With draining set it must not wait for new traffic: it reports
	// io.EOF once everything the peer had already submitted is gathered.
	gather(e *burstEngine, draining bool) error
	// send writes or queues one response; an error means it will not be
	// delivered.
	send(d *dgram, resp []byte) error
	// flush ends a burst's responses and reports how many of those send
	// accepted were not delivered after all; final is set when gather
	// reported the transport done, so nothing may be held back for a
	// later burst. An error ends the transport.
	flush(final bool) (failed int, err error)
	// lossy is the loss policy: a lossy transport sheds bursts at a
	// saturated admission gate (its clients time out and keep their
	// rates), a lossless one blocks there.
	lossy() bool
}

// serveGroup is the lifecycle every serving member shares.
type serveGroup struct {
	mu       sync.Mutex
	members  map[member]struct{}
	stop     chan struct{} // closed by Close
	idle     chan struct{} // non-nil once draining; closed when no member is left
	closed   bool
	sweeping bool
	draining atomic.Bool
	wg       sync.WaitGroup
}

// init allocates the group's maps; callers hold g.mu.
func (g *serveGroup) init() {
	if g.members == nil {
		g.members = make(map[member]struct{})
		g.stop = make(chan struct{})
	}
}

// quiescing reports that a Drain or Close has begun: a member failing now
// is shutting down in order, not failing.
func (g *serveGroup) quiescing() bool {
	select {
	case <-g.stop:
		return true
	default:
		return g.draining.Load()
	}
}

// join registers m. It reports false with an error once the server is
// closed and false without one while it drains (an orderly no-op). The
// first member of a server whose store has a TTL also starts the one
// background sweeper, so fully idle deployments still shed links; it runs
// until Close.
func (s *Server) join(m member) (bool, error) {
	g := &s.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false, errors.New("server: already closed")
	}
	if g.draining.Load() {
		return false, nil
	}
	g.init()
	g.members[m] = struct{}{}
	// wg.Add must happen while the closed check still holds (under the
	// lock), or Close's Wait could observe a zero counter and return
	// before the goroutine accounted for here starts.
	g.wg.Add(1)
	if s.ttl > 0 && !g.sweeping {
		g.sweeping = true
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			s.sweeper(s.ttl/4+time.Millisecond, g.stop)
		}()
	}
	return true, nil
}

// leave releases m and removes it from the group.
func (s *Server) leave(m member) {
	g := &s.group
	m.Close()
	g.mu.Lock()
	delete(g.members, m)
	if g.idle != nil && len(g.members) == 0 {
		close(g.idle) // once: nothing joins a draining group
	}
	g.mu.Unlock()
	g.wg.Done()
}

// serve runs t as a member of the group until it is done, the server
// drains, or Close. It returns nil on every orderly exit.
func (s *Server) serve(t transport, st *counters) error {
	joined, err := s.join(t)
	if !joined {
		return err
	}
	defer s.leave(t)
	return s.run(t, st)
}

// run is the burst loop: gather what has arrived, decide it in one batch,
// send the responses. The caller has joined t to the group.
func (s *Server) run(t transport, st *counters) error {
	g := &s.group
	eng := newBurstEngine(s, st, t.lossy())
	for {
		select {
		case <-g.stop:
			return nil // force close: abandon whatever is still queued
		default:
		}
		eng.reset()
		err := t.gather(eng, g.draining.Load())
		eng.finish()
		sent := 0
		for i := range eng.dgrams() {
			d := &eng.dgrams()[i]
			if !d.ok {
				continue
			}
			if t.send(d, eng.response(d)) != nil {
				st.txErrs.Inc()
			} else {
				sent++
			}
		}
		// A response counts as written only once its flush delivered it.
		failed, ferr := t.flush(err != nil)
		st.tx.Add(uint64(sent - failed))
		st.txErrs.Add(uint64(failed))
		if err == nil {
			err = ferr
		}
		if err == io.EOF || (err != nil && g.quiescing()) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Drain gracefully quiesces every transport: listeners close so no new
// connection is accepted, each member finishes the requests it has
// already received — a connection's in-flight pipelined window is
// answered and flushed, a ring's queued messages are served, a datagram
// burst in hand is answered (anything still unread in a socket buffer is,
// by the loss contract, indistinguishable from a datagram lost in flight)
// — and idle connections are woken by a read deadline at now + grace.
// Once the last member has left (or grace expires and the stragglers are
// force-closed), the sweeper stops and Drain returns with the server
// fully closed. This is the shutdown primitive cluster-level link
// migration needs: after Drain returns, every accepted request has a
// flushed response and the store is quiescent, so its state can be
// snapshotted or handed off. Concurrent and repeated calls are safe.
func (s *Server) Drain(grace time.Duration) {
	g := &s.group
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return
	}
	g.init()
	g.draining.Store(true)
	if g.idle == nil { // else an earlier Drain already set it up
		g.idle = make(chan struct{})
		if len(g.members) == 0 {
			close(g.idle)
		}
	}
	idle := g.idle
	deadline := time.Now().Add(grace)
	for m := range g.members {
		m.wake(deadline)
	}
	g.mu.Unlock()

	timer := time.NewTimer(grace)
	select {
	case <-idle:
	case <-timer.C:
	}
	timer.Stop()
	s.Close() // force-closes stragglers, stops the sweeper, waits every loop out
}

// Close shuts down every member and waits for their goroutines to exit.
func (s *Server) Close() {
	g := &s.group
	g.mu.Lock()
	if !g.closed {
		g.init()
		g.closed = true
		close(g.stop)
		for m := range g.members {
			m.Close()
		}
	}
	g.mu.Unlock()
	g.wg.Wait()
}
