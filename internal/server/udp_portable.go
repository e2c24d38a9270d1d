//go:build !(linux && (amd64 || arm64))

package server

import (
	"io"
	"net"
	"time"
)

// The portable datagram path: a burst is one datagram, read and answered
// through the net package.

// udpTransport is one served socket.
type udpTransport struct {
	conn *net.UDPConn
	buf  []byte // receive scratch
}

func newUDPTransport(conn *net.UDPConn) (*udpTransport, error) {
	return &udpTransport{conn: conn, buf: make([]byte, MaxDatagram)}, nil
}

// gather waits — bounded, so flag flips are noticed — for one datagram.
// Once draining, anything still unread in the socket buffer is, by the
// loss contract, a datagram lost in flight.
func (t *udpTransport) gather(e *burstEngine, draining bool) error {
	if draining {
		return io.EOF
	}
	t.conn.SetReadDeadline(time.Now().Add(udpPollInterval))
	n, addr, err := t.conn.ReadFromUDPAddrPort(t.buf)
	if err != nil {
		return readResult(err)
	}
	e.add(t.buf[:n]).addr = addr
	return nil
}

func (t *udpTransport) send(d *dgram, resp []byte) error {
	_, err := t.conn.WriteToUDPAddrPort(resp, d.addr)
	return err
}

func (t *udpTransport) flush(bool) (int, error) { return 0, nil }
