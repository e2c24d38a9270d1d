package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// TCP transport: each request payload (codec.go) is prefixed with its
// uint32 little-endian length; responses are self-delimiting. A client
// keeps up to its pipeline depth of requests in flight; the server
// answers strictly in arrival order, taking every complete frame its read
// buffer already holds as one burst, and only flushes its write buffer
// when no further request bytes are buffered — so a full pipeline pays
// one syscall-and-wakeup round trip, and one trip through the store's
// shard routing, per window instead of per batch. Deferring the flush is
// safe with any conforming client: a client always finishes writing (and
// flushing) a request before it waits for responses, so bytes the server
// sees buffered are always the prefix of work it can finish without
// waiting on the peer.

const tcpBufSize = 64 << 10

// errFraming ends a connection whose peer violated the framing.
var errFraming = errors.New("server: framing violation")

// acceptLoop is a listener's membership in the serve group: a drain or
// Close closes the listener, which ends its Serve.
type acceptLoop struct{ l net.Listener }

func (a acceptLoop) wake(time.Time) { a.l.Close() }
func (a acceptLoop) Close() error   { return a.l.Close() }

// Serve accepts and serves connections on l until Close or Drain is
// called or the listener fails; l is closed when Serve returns. It may be
// called on several listeners concurrently, alongside ServeUDP and
// ServeSHM: they all share one store and one lifecycle. Open connections
// (like the sweeper) run until Close — call Close even after Serve
// returns an error to release them.
func (s *Server) Serve(l net.Listener) error {
	al := acceptLoop{l}
	if joined, err := s.join(al); !joined {
		return err
	}
	defer s.leave(al)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.group.quiescing() {
				return nil // a drain or Close closed the listener
			}
			return err
		}
		t := s.newTCPTransport(conn)
		if joined, _ := s.join(t); !joined {
			conn.Close()
			return nil
		}
		s.tcp.accepted.Inc()
		s.tcp.active.Add(1)
		go func() {
			defer s.leave(t)
			s.run(t, &s.tcp)
			s.tcp.active.Add(-1)
		}()
	}
}

// tcpTransport is one accepted connection.
type tcpTransport struct {
	conn         net.Conn
	br           *bufio.Reader
	bw           *bufio.Writer
	st           *counters
	writeTimeout time.Duration
	big          []byte // scratch for the rare frame larger than the read buffer
	err          error  // first write error
}

func (s *Server) newTCPTransport(conn net.Conn) *tcpTransport {
	return &tcpTransport{
		conn: conn, st: &s.tcp, writeTimeout: s.writeTimeout,
		br: bufio.NewReaderSize(conn, tcpBufSize),
		bw: bufio.NewWriterSize(conn, tcpBufSize),
	}
}

func (t *tcpTransport) lossy() bool { return false }

// wake bounds an idle connection's blocking read at the drain deadline; a
// connection mid-request keeps reading (its bytes arrive long before the
// deadline) and sees the draining flag at its next gather.
func (t *tcpTransport) wake(deadline time.Time) { t.conn.SetReadDeadline(deadline) }

func (t *tcpTransport) Close() error { return t.conn.Close() }

// gather blocks for one frame, then takes every further frame that is
// already complete in the read buffer, up to BurstSize frames or MaxBatch
// records (one frame alone may carry MaxBatch, so a burst's scratch is
// bounded by twice that). Frames are decoded in place from the buffer. A
// frame that violates the framing — an oversized length prefix or an
// undecodable payload — ends the burst and the connection; the frames
// before it are still answered.
func (t *tcpTransport) gather(e *burstEngine, draining bool) error {
	if draining && t.br.Buffered() == 0 {
		// Everything this connection submitted has been answered and
		// flushed (flush runs whenever the read buffer empties); stop
		// before blocking on a next request.
		return io.EOF
	}
	for e.n < BurstSize && len(e.ops) < MaxBatch {
		if e.n > 0 && t.br.Buffered() < 4 {
			return nil
		}
		hdr, err := t.br.Peek(4)
		if err != nil {
			return err // EOF, peer gone, or the drain deadline expired while idle
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		if n > maxPayload {
			t.st.drops.Inc()
			return errFraming
		}
		var ok bool
		if 4+n <= tcpBufSize {
			if e.n > 0 && t.br.Buffered() < 4+n {
				return nil // incomplete: it leads the next burst
			}
			frame, err := t.br.Peek(4 + n)
			if err != nil {
				return err
			}
			ok = e.add(frame[4:]).ok
			t.br.Discard(4 + n)
		} else {
			// Larger than the read buffer, so it cannot be already
			// buffered: it is read through a scratch, as a burst's first.
			if e.n > 0 {
				return nil
			}
			if cap(t.big) < n {
				t.big = make([]byte, n)
			}
			t.br.Discard(4)
			if _, err := io.ReadFull(t.br, t.big[:n]); err != nil {
				return err
			}
			ok = e.add(t.big[:n]).ok
		}
		if !ok {
			return errFraming
		}
	}
	return nil
}

func (t *tcpTransport) send(_ *dgram, resp []byte) error {
	// Slow-client eviction: arm the write deadline only when this write
	// can actually touch the socket (it would overflow the buffer into a
	// flush). A peer that has stopped reading then errors out of the write
	// within WriteTimeout instead of pinning this loop — and the drain
	// path — on a full socket buffer forever.
	if t.writeTimeout > 0 && t.bw.Available() < len(resp) {
		t.conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	}
	_, err := t.bw.Write(resp)
	return t.note(err)
}

// flush pushes the burst's responses to the socket unless more request
// bytes are already buffered — the pending responses then go out in one
// write once those are served (on the final burst nothing more will be,
// so what is pending goes out now). Any write error ends the connection.
func (t *tcpTransport) flush(final bool) (int, error) {
	if t.err == nil && t.bw.Buffered() > 0 && (final || t.br.Buffered() == 0) {
		if t.writeTimeout > 0 {
			t.conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
		}
		t.note(t.bw.Flush())
	}
	return 0, t.err
}

// note records the connection's first write error; one that failed on its
// deadline is a stuck peer evicted by the slow-client policy.
func (t *tcpTransport) note(err error) error {
	if err != nil && t.err == nil {
		t.err = err
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.st.slowEvicted.Inc()
		}
	}
	return err
}

// streamCarrier moves client payloads over a TCP connection: requests are
// length-prefixed into a write buffer that reaches the wire by the time a
// response is awaited (or when it fills), so a burst of Submits travels
// as one segment.
type streamCarrier struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
}

func (c *streamCarrier) send(payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

// recv flushes pending requests and reads one response. The count field
// sizes the read, so it is bounded here; the core checks it against the
// request.
func (c *streamCarrier) recv(time.Time) ([]byte, error) {
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	hdr, err := c.br.Peek(8)
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(hdr[4:8])
	if count > MaxBatch {
		return nil, fmt.Errorf("server: response claims %d records, above the maximum %d", count, MaxBatch)
	}
	if need := 8 + int(count); cap(c.rbuf) < need {
		c.rbuf = make([]byte, need)
	}
	c.rbuf = c.rbuf[:8+count]
	_, err = io.ReadFull(c.br, c.rbuf)
	return c.rbuf, err
}

func (c *streamCarrier) close() error { return c.conn.Close() }

// DialPipelined connects to a softrated server over TCP: up to depth
// batches may be in flight at once via Submit/Wait (further capped by the
// maxPipelineBytes response budget); depth 1 is stop-and-wait.
func DialPipelined(addr string, depth int) (*Client, error) {
	if depth < 1 {
		return nil, fmt.Errorf("server: pipeline depth %d, need at least 1", depth)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newStreamClient(conn, depth), nil
}

// newStreamClient wraps an established connection.
func newStreamClient(conn net.Conn, depth int) *Client {
	car := &streamCarrier{conn: conn,
		br: bufio.NewReaderSize(conn, tcpBufSize), bw: bufio.NewWriterSize(conn, tcpBufSize)}
	return &Client{core: clientCore{car: car, ring: make([]Pending, depth), maxMsg: maxPayload, budget: maxPipelineBytes}}
}
