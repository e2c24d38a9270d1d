package server

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"softrate/internal/server/shmring"
)

// Shared-memory ring transport. A co-located client maps one shmring
// region (a request ring + a response ring over one mmap'd file) and
// exchanges exactly the payloads of codec.go, one per ring message, over
// SPSC rings instead of a socket, so the data path has no syscalls at
// all: a decision round trip is two memcpys and two atomic publishes.
//
// Unlike UDP, the rings are lossless and strictly in order, so the
// client is the lossless Client of client.go (in-order response matching,
// sticky poison on desync — a sequence mismatch means shared state is
// corrupt, not that a packet went missing).
//
// The server polls every region from one serve loop: each burst collects
// up to BurstSize requests across the attached rings — one Decide for the
// whole sweep — and pushes the responses into each ring. An idle
// transport backs off from Gosched spinning to millisecond sleeps so a
// co-resident client (this is a co-location transport; on a small host
// client and server share cores) gets the CPU back.

// shm backoff schedule: spin (yield) while work is fresh, then sleep,
// deepening toward shmIdleSleep as the rings stay empty.
const (
	shmSpinSweeps = 256
	shmBusySleep  = 20 * time.Microsecond
	shmIdleSleep  = time.Millisecond
)

// RingPath names ring i's region file under a -shm path prefix: the
// prefix itself for ring 0, prefix.i beyond — so the single-ring default
// needs no suffix juggling on either side. Servers create these files;
// clients scan i = 0.. until an Attach succeeds.
func RingPath(prefix string, i int) string {
	if i == 0 {
		return prefix
	}
	return fmt.Sprintf("%s.%d", prefix, i)
}

// ErrDraining is returned by shm Submit/Wait once the server has begun
// draining: the region is closing, no new work is accepted, and any
// decision not already in the rings is abandoned.
var ErrDraining = errors.New("server: shm region draining")

// ServeSHM serves the shared-memory transport over the given regions
// (typically shmring.Create results, one per expected co-located
// client) until Close or Drain. Like Serve and ServeUDP it shares the
// server's lifecycle: on Drain the regions' draining flags are raised
// (clients stop submitting), every request already in a ring is
// answered, and only then does the loop exit. Region files are neither
// created nor removed here — the caller owns them.
func (s *Server) ServeSHM(regions []*shmring.Region) error {
	if len(regions) == 0 {
		return errors.New("server: ServeSHM needs at least one region")
	}
	t := &shmTransport{regions: regions, attached: make([]bool, len(regions)), st: &s.shm, group: &s.group}
	return s.serve(t, &s.shm)
}

// shmTransport is one served set of regions.
type shmTransport struct {
	regions  []*shmring.Region
	attached []bool
	empties  int // consecutive sweeps that found nothing
	st       *counters
	group    *serveGroup
}

// lossy is false: at a saturated gate a ring's requests wait their turn.
func (t *shmTransport) lossy() bool { return false }

// wake and Close do nothing: the sweep never blocks longer than
// shmIdleSleep, and the caller owns the regions.
func (t *shmTransport) wake(time.Time) {}
func (t *shmTransport) Close() error   { return nil }

// gather runs one polling sweep: reclaim closed rings and take up to
// BurstSize requests across the attached ones. An empty sweep backs off
// before returning.
func (t *shmTransport) gather(e *burstEngine, draining bool) error {
	for ri, g := range t.regions {
		if draining {
			g.SetDraining()
		}
		switch g.State() {
		case shmring.StateAttached:
			if !t.attached[ri] {
				t.attached[ri] = true
				t.st.ringsAttached.Add(1)
			}
		case shmring.StateClosing:
			if g.Reclaim() && t.attached[ri] {
				t.attached[ri] = false
				t.st.ringsAttached.Add(-1)
			}
			continue
		default:
			continue
		}
		req := g.Request()
		for e.n < BurstSize {
			payload, ok := req.Peek()
			if !ok {
				break
			}
			e.add(payload).ring = ri
			req.Advance() // the engine decoded in place; the bytes are free
		}
		if e.n == BurstSize {
			break
		}
	}
	switch {
	case e.n > 0:
		t.empties = 0
	case draining:
		// Draining and a full sweep found nothing: every request that made
		// it into a ring before the flag went up is answered.
		return io.EOF
	default:
		t.empties++
		switch {
		case t.empties < shmSpinSweeps:
			runtime.Gosched()
		case t.empties < 4*shmSpinSweeps:
			time.Sleep(shmBusySleep)
		default:
			time.Sleep(shmIdleSleep)
		}
	}
	return nil
}

// send pushes one response into its ring, waiting out a full ring: the
// client is alive (SPSC — only it can make room) unless it just closed or
// the server is force-closing, and then the response is abandoned.
func (t *shmTransport) send(d *dgram, resp []byte) error {
	g := t.regions[d.ring]
	for !g.Response().Push(resp) {
		if g.State() != shmring.StateAttached {
			return errors.New("server: shm client detached with a response outstanding")
		}
		select {
		case <-t.group.stop:
			return errors.New("server: closed with a shm response outstanding")
		default:
			runtime.Gosched()
		}
	}
	return nil
}

func (t *shmTransport) flush(bool) (int, error) { return 0, nil }

// ringCarrier moves client payloads over one attached region. timeout
// bounds how long a stuck ring is polled before the client gives up.
type ringCarrier struct {
	g       *shmring.Region
	timeout time.Duration
	rbuf    []byte
}

// send pushes one request, briefly blocking while the ring is full.
// Deadline checks ride the backoff tiers: the warm spin tier never reads
// the clock (a Push retry is tens of nanoseconds, so a time.Now() per
// spin would dominate the loop), and past it one read per sleep is noise
// against the sleep itself.
func (c *ringCarrier) send(payload []byte) error {
	var deadline time.Time
	for spins := 0; ; spins++ {
		if c.g.Draining() {
			return ErrDraining
		}
		if c.g.Request().Push(payload) {
			return nil
		}
		if spins < shmSpinSweeps {
			runtime.Gosched()
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(c.timeout)
		} else if !time.Now().Before(deadline) {
			return errors.New("server: shm request ring full past timeout (server gone?)")
		}
		if spins < 4*shmSpinSweeps {
			time.Sleep(shmBusySleep)
		} else {
			time.Sleep(shmIdleSleep)
		}
	}
}

// recv polls for the next response. As in send, the warm spin tier is
// clock-free: the deadline is armed when the first sleep tier is reached
// and checked once per sleep, so a response that lands within the spin
// window costs zero time.Now() calls.
func (c *ringCarrier) recv(time.Time) ([]byte, error) {
	var deadline time.Time
	for empties := 0; ; empties++ {
		if resp, ok := c.g.Response().Peek(); ok {
			c.rbuf = append(c.rbuf[:0], resp...)
			c.g.Response().Advance()
			return c.rbuf, nil
		}
		// The server answers everything already in the request ring before
		// it exits a drain, so give the response a moment to land before
		// declaring the in-flight window lost.
		if empties > 4*shmSpinSweeps && c.g.Draining() {
			return nil, ErrDraining
		}
		if empties < shmSpinSweeps {
			runtime.Gosched()
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(c.timeout)
		} else if !time.Now().Before(deadline) {
			return nil, errors.New("server: shm response timeout (server gone?)")
		}
		time.Sleep(shmBusySleep)
	}
}

// close detaches from the region (the server reclaims it) and unmaps.
func (c *ringCarrier) close() error {
	c.g.ClientClose()
	return c.g.Close()
}

// DialSHM maps the region file at path and claims it. depth bounds the
// batches in flight (Submit returns ErrPipelineFull beyond it); timeout
// bounds how long Submit and Wait poll a stuck ring before poisoning
// the client (<= 0 picks 5s — on a live server a round trip is
// microseconds, so a timeout means the server is gone).
func DialSHM(path string, depth int, timeout time.Duration) (*SHMClient, error) {
	if depth < 1 {
		depth = 1
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	g, err := shmring.Open(path)
	if err != nil {
		return nil, err
	}
	if g.Draining() {
		g.Close()
		return nil, ErrDraining
	}
	if !g.Attach() {
		g.Close()
		return nil, fmt.Errorf("server: shm region %s already has a client attached", path)
	}
	car := &ringCarrier{g: g, timeout: timeout}
	return &Client{core: clientCore{car: car, maxMsg: MaxDatagram, ring: make([]Pending, depth)}}, nil
}
