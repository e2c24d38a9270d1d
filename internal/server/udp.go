package server

import (
	"errors"
	"net"
	"syscall"
	"time"

	"softrate/internal/linkstore"
)

// UDP datagram transport. Each datagram is one self-contained payload of
// codec.go — the datagram boundary is the frame.
//
// The transport is deliberately connectionless and loss-tolerant: rate
// feedback is naturally tolerant of a dropped decision — the sender just
// keeps its current rate for one more frame — so there is no
// retransmission, no ordering guarantee, and no per-peer state on the
// server. A request that never arrives is never answered; a response
// that is lost times out on the client, which treats it as "keep the
// current rate" and moves on. A lost or malformed datagram cannot desync
// anything: every datagram stands alone.
//
// A burst is what the socket already holds. On linux/amd64 and
// linux/arm64 (udp_linux.go) gather waits for the first datagram, then
// drains the rest with non-blocking reads, and the burst's responses
// leave in one sendmmsg. Elsewhere (udp_portable.go) a burst is one
// datagram: Go's net package cannot take what else a socket has queued
// without risking a block. An idle socket costs one poll wakeup per
// udpPollInterval.

// udpPollInterval bounds how long the UDP read blocks before the serve
// loop re-checks the draining/closed flags: drains and Close are noticed
// within this interval even if no datagram ever arrives.
const udpPollInterval = 100 * time.Millisecond

// maxResponse is the largest response a datagram request can draw: the
// header plus one rate byte per record a MaxDatagram request holds.
const maxResponse = 8 + (MaxDatagram-headerSizeV3)/RecordSizeV2

// ServeUDP serves the datagram transport on conn until Close or Drain,
// then closes it. It may run concurrently with Serve, ServeSHM and other
// ServeUDP calls on other sockets; they all share one store and one
// lifecycle. Returns nil on orderly shutdown.
func (s *Server) ServeUDP(conn *net.UDPConn) error {
	t, err := newUDPTransport(conn)
	if err != nil {
		return err
	}
	return s.serve(t, &s.udp)
}

func (t *udpTransport) lossy() bool { return true }

// wake cuts the blocking read short (an expired deadline fails it at
// once) so the drain is noticed without waiting out the poll interval.
func (t *udpTransport) wake(time.Time) { t.conn.SetReadDeadline(time.Unix(1, 0)) }

func (t *udpTransport) Close() error { return t.conn.Close() }

// readResult is what gather returns for a read error: a timeout means
// the poll interval passed with nothing to read.
func readResult(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return nil
	}
	return err
}

// datagramCarrier moves client payloads over a connected UDP socket.
type datagramCarrier struct {
	conn *net.UDPConn
	rbuf []byte
}

func (c *datagramCarrier) send(payload []byte) error {
	if _, err := c.conn.Write(payload); err != nil && !errors.Is(err, syscall.ECONNREFUSED) {
		// ECONNREFUSED is a queued ICMP port-unreachable from an earlier
		// send — the server is down or restarting. Under the loss contract
		// that is a sent-and-lost datagram (the Wait will time out), not a
		// client failure. Anything else is a real socket error.
		return err
	}
	return nil
}

func (c *datagramCarrier) recv(deadline time.Time) ([]byte, error) {
	c.conn.SetReadDeadline(deadline)
	for {
		n, err := c.conn.Read(c.rbuf)
		if errors.Is(err, syscall.ECONNREFUSED) {
			continue // ICMP unreachable: loss, not failure (see send)
		}
		return c.rbuf[:n], err
	}
}

func (c *datagramCarrier) close() error { return c.conn.Close() }

// UDPClient is a datagram client for the decision service, with the lossy
// contract of client.go: no poison, a timed-out Wait reports ok=false. It
// is not safe for concurrent use; open one per sending goroutine. Its
// DropResponse field is a loss-injection hook for tests.
type UDPClient struct{ clientCore }

// UDPClientStats counts the client's datagram fates.
type UDPClientStats struct {
	// Sent and Answered count request datagrams sent and responses
	// matched to an in-flight request.
	Sent     uint64 `json:"sent"`
	Answered uint64 `json:"answered"`
	// Timeouts counts Waits that gave up: each is one decision treated as
	// lost (rate kept). Stale counts responses that arrived after their
	// request had already timed out (late duplicates land here too);
	// Malformed counts undecodable response datagrams. Injected counts
	// responses discarded by the DropResponse shim.
	Timeouts  uint64 `json:"timeouts"`
	Stale     uint64 `json:"stale"`
	Malformed uint64 `json:"malformed"`
	Injected  uint64 `json:"injected"`
}

// Stats returns a snapshot of the client's counters.
func (c *UDPClient) Stats() UDPClientStats { return c.stats }

// DialUDP connects a datagram client. window bounds the requests in
// flight (Submit returns ErrPipelineFull beyond it); timeout is how long
// a Wait listens for a response before declaring the decision lost
// (<= 0 picks 50ms, comfortably above loopback round trips and short
// enough that a lost decision stalls a closed loop only briefly).
func DialUDP(addr string, window int, timeout time.Duration) (*UDPClient, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	if window < 1 {
		window = 1
	}
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	car := &datagramCarrier{conn: conn, rbuf: make([]byte, maxResponse)}
	return &UDPClient{clientCore{car: car, lossy: true, timeout: timeout, maxMsg: MaxDatagram, ring: make([]Pending, window)}}, nil
}

// Wait blocks until p's response arrives or p's timeout expires. On a
// response it writes the rate indices to out (at least p's batch size
// long) and returns (out[:n], true, nil). On timeout it returns
// (nil, false, nil): the decision is lost, the caller keeps its current
// rates, and the client remains usable — loss does not poison. While
// waiting it absorbs responses for other in-flight requests (they park
// in their slots), so Wait order is free.
func (c *UDPClient) Wait(p *UDPPending, out []int32) ([]int32, bool, error) {
	return c.wait(p, out)
}

// Decide is Submit immediately followed by its Wait: one stop-and-wait
// exchange with the datagram loss contract (ok=false means the decision
// was lost and the caller should keep its current rates).
func (c *UDPClient) Decide(ops []linkstore.Op, out []int32) ([]int32, bool, error) {
	p, err := c.Submit(ops)
	if err != nil {
		return nil, false, err
	}
	return c.wait(p, out)
}
