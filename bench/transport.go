package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"softrate/internal/linkstore"
	"softrate/internal/server"
	"softrate/internal/server/shmring"
)

// conn is one caller's path to the server: an in-process call or one
// client connection, with up to `window` batches outstanding. Slots name
// the outstanding batches; submit(slot) then wait(slot) is one exchange.
type conn interface {
	submit(slot int, ops []linkstore.Op) error
	// wait blocks for the slot's answer and writes it to out. answered is
	// false only on the lossy transport, when the decision timed out.
	wait(slot int, out []int32) (answered bool, err error)
	close() error
}

// inprocConn calls Server.Decide directly; the answer is ready when
// submit returns, so any window behaves as depth 1.
type inprocConn struct {
	srv *server.Server
	out [][]int32
}

func newInprocConn(srv *server.Server, window, batch int) *inprocConn {
	c := &inprocConn{srv: srv, out: make([][]int32, window)}
	for i := range c.out {
		c.out[i] = make([]int32, batch)
	}
	return c
}

func (c *inprocConn) submit(slot int, ops []linkstore.Op) error {
	c.out[slot] = c.srv.Decide(ops, c.out[slot][:cap(c.out[slot])])
	return nil
}

func (c *inprocConn) wait(slot int, out []int32) (bool, error) {
	copy(out, c.out[slot])
	return true, nil
}

func (c *inprocConn) close() error { return nil }

// pipeClient is what the two lossless, in-order clients — server.Client
// over TCP and server.SHMClient over a ring — have in common.
type pipeClient interface {
	Submit(ops []linkstore.Op) (*server.Pending, error)
	Wait(p *server.Pending, out []int32) ([]int32, error)
	Close() error
}

// pipeConn is a pipelined lossless connection.
type pipeConn struct {
	cli  pipeClient
	pend []*server.Pending
}

func (c *pipeConn) submit(slot int, ops []linkstore.Op) (err error) {
	c.pend[slot], err = c.cli.Submit(ops)
	return err
}

func (c *pipeConn) wait(slot int, out []int32) (bool, error) {
	_, err := c.cli.Wait(c.pend[slot], out)
	return err == nil, err
}

func (c *pipeConn) close() error { return c.cli.Close() }

type udpConn struct {
	cli  *server.UDPClient
	pend []*server.UDPPending
}

func (c *udpConn) submit(slot int, ops []linkstore.Op) (err error) {
	c.pend[slot], err = c.cli.Submit(ops)
	return err
}

func (c *udpConn) wait(slot int, out []int32) (bool, error) {
	_, ok, err := c.cli.Wait(c.pend[slot], out)
	return ok, err
}

func (c *udpConn) close() error { return c.cli.Close() }

// udpTimeout is how long a datagram decision may take before it counts
// as lost (and failed). Loopback loses no datagrams at this window, but a
// shared sandbox now and then freezes the whole process for tens of
// milliseconds; at the issue's 20 ms every such freeze read as seven or
// eight lost batches whose answers then arrived stale. The timeout sits
// above those freezes so that a failure means a datagram was lost.
const udpTimeout = 250 * time.Millisecond

// listenAndDial starts srv serving `transport` on the loopback interface
// (or a ring file under dir) and connects one client with the given
// window. The returned stop function waits for the serve loop to exit;
// call it after srv.Close.
func listenAndDial(srv *server.Server, transport, dir string, window int) (conn, func() error, error) {
	served := make(chan error, 1)
	stop := func() error { return <-served }
	switch transport {
	case "tcp":
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		go func() { served <- srv.Serve(l) }()
		cli, err := server.DialPipelined(l.Addr().String(), window)
		if err != nil {
			srv.Close()
			<-served
			return nil, nil, err
		}
		return &pipeConn{cli: cli, pend: make([]*server.Pending, window)}, stop, nil
	case "udp":
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, nil, err
		}
		go func() { served <- srv.ServeUDP(pc) }()
		cli, err := server.DialUDP(pc.LocalAddr().String(), window, udpTimeout)
		if err != nil {
			srv.Close()
			<-served
			return nil, nil, err
		}
		return &udpConn{cli: cli, pend: make([]*server.UDPPending, window)}, stop, nil
	case "shm":
		path := filepath.Join(dir, "ring")
		region, err := shmring.Create(path, 0)
		if err != nil {
			return nil, nil, err
		}
		go func() {
			err := srv.ServeSHM([]*shmring.Region{region})
			region.Close()
			served <- err
		}()
		cli, err := server.DialSHM(path, window, 0)
		if err != nil {
			srv.Close()
			<-served
			return nil, nil, err
		}
		return &pipeConn{cli: cli, pend: make([]*server.Pending, window)}, stop, nil
	}
	return nil, nil, fmt.Errorf("unknown transport %q", transport)
}
