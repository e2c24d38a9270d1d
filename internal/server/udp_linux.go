//go:build linux && (amd64 || arm64)

package server

import (
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Datagram bursts on linux. gather parks in netpoll for the first
// datagram, then takes what else the socket already holds with
// non-blocking recvfrom(2), all inside one RawConn.Read callback and into
// the one MaxDatagram buffer: the engine decodes each payload before the
// next read overwrites it, so a burst needs no slot per message as
// recvmmsg(2) would. send only queues a response's iovec and peer
// sockaddr; flush hands the whole burst to one sendmmsg(2). This is the
// one file of the package that uses unsafe.
//
// Neither call can block: recvfrom is MSG_DONTWAIT and sendmmsg on the
// non-blocking socket returns EAGAIN, which parks in netpoll instead. So
// both are raw syscalls, without the scheduler's hand-off bookkeeping.

// udpBurstOps is the op budget of a drained burst: no further datagram
// is read once the burst holds this many ops. A datagram once read is
// decoded whole, so a burst holds fewer than udpBurstOps ops plus one
// MaxDatagram request.
const udpBurstOps = 512

// sysSendmmsg is sendmmsg(2)'s number; package syscall names it for arm64
// only.
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

// mmsghdr is the kernel's struct mmsghdr on a 64-bit platform.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes sent, set by the kernel
	_   [4]byte
}

// udpTransport is one served socket.
type udpTransport struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	buf   []byte // receive scratch
	inet6 bool   // the socket is AF_INET6: every sockaddr it takes is too

	// The receive side of recv: the burst being drained, the peer of the
	// last datagram (a sockaddr_in fits the sockaddr_in6), and the
	// recvfrom error that ended a burst.
	eng     *burstEngine
	from    syscall.RawSockaddrInet6
	fromLen uint32
	rerr    error

	// The burst's queued responses, hdrs[:queued]; next is the first one
	// not yet handed to the kernel, failed counts those it refused.
	hdrs                 [BurstSize]mmsghdr
	iov                  [BurstSize]syscall.Iovec
	to                   [BurstSize]syscall.RawSockaddrInet6
	queued, next, failed int

	// The RawConn callbacks, bound once so that a burst builds no closure.
	recvFn, sendFn func(fd uintptr) bool
}

func newUDPTransport(conn *net.UDPConn) (*udpTransport, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	var domain int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		domain, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_DOMAIN)
	}); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	t := &udpTransport{conn: conn, rc: rc, buf: make([]byte, MaxDatagram), inet6: domain == syscall.AF_INET6}
	for i := range t.hdrs {
		h := &t.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&t.to[i]))
		h.Iov = &t.iov[i]
		h.Iovlen = 1
	}
	t.recvFn, t.sendFn = t.recv, t.sendQueued
	return t, nil
}

// gather waits — bounded, so flag flips are noticed — for one datagram,
// then drains what else the socket holds. Once draining, anything still
// unread in the socket buffer is, by the loss contract, a datagram lost
// in flight.
func (t *udpTransport) gather(e *burstEngine, draining bool) error {
	if draining {
		return io.EOF
	}
	t.conn.SetReadDeadline(time.Now().Add(udpPollInterval))
	t.eng = e
	err := t.rc.Read(t.recvFn)
	if t.rerr != nil {
		err, t.rerr = t.rerr, nil
	}
	return readResult(err)
}

// recv is gather's RawConn.Read callback. It reads until the socket is
// empty, the burst is full or its op budget is spent, and asks netpoll to
// wait — until readable or the read deadline — only while the burst is
// still empty.
func (t *udpTransport) recv(fd uintptr) bool {
	e := t.eng
	for e.n < BurstSize && len(e.ops) < udpBurstOps {
		t.fromLen = syscall.SizeofSockaddrInet6
		n, _, errno := syscall.RawSyscall6(syscall.SYS_RECVFROM, fd,
			uintptr(unsafe.Pointer(&t.buf[0])), uintptr(len(t.buf)), syscall.MSG_DONTWAIT,
			uintptr(unsafe.Pointer(&t.from)), uintptr(unsafe.Pointer(&t.fromLen)))
		switch errno {
		case 0:
			e.add(t.buf[:n]).addr = t.peer()
		case syscall.EINTR:
		case syscall.EAGAIN:
			return e.n > 0
		default:
			t.rerr = os.NewSyscallError("recvfrom", errno)
			return true
		}
	}
	return true
}

// peer decodes the sockaddr recvfrom filled in.
func (t *udpTransport) peer() netip.AddrPort {
	port := getPort(&t.from.Port)
	if !t.inet6 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&t.from))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
	}
	a := netip.AddrFrom16(t.from.Addr)
	if id := t.from.Scope_id; id != 0 {
		a = a.WithZone(strconv.FormatUint(uint64(id), 10))
	}
	return netip.AddrPortFrom(a, port)
}

// send queues resp for d's peer. The sockaddr follows the socket's
// family: an AF_INET6 socket takes IPv4 peers v4-mapped. An IPv6 peer on
// an AF_INET socket is queued as it is, and the kernel refuses it.
func (t *udpTransport) send(d *dgram, resp []byte) error {
	i := t.queued
	a, port := d.addr.Addr(), d.addr.Port()
	if a4 := a.Unmap(); !t.inet6 && a4.Is4() {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&t.to[i]))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a4.As4()}
		setPort(&sa.Port, port)
		t.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
	} else {
		sa := &t.to[i]
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16(), Scope_id: scopeID(a.Zone())}
		setPort(&sa.Port, port)
		t.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
	}
	t.iov[i].Base = &resp[0]
	t.iov[i].SetLen(len(resp))
	t.queued++
	return nil
}

// flush hands the queued responses to sendmmsg and reports how many were
// not delivered: those the kernel refused, and on an error (the socket
// closed) those never handed over.
func (t *udpTransport) flush(bool) (int, error) {
	if t.queued == 0 {
		return 0, nil
	}
	t.next, t.failed = 0, 0
	err := t.rc.Write(t.sendFn)
	failed := t.failed + t.queued - t.next
	t.queued = 0
	return failed, err
}

// sendQueued is flush's RawConn.Write callback. sendmmsg stops at the
// first message it cannot send and reports how many went before it; the
// next call then fails on that message alone, which is skipped. A full
// socket buffer waits for netpoll.
func (t *udpTransport) sendQueued(fd uintptr) bool {
	for t.next < t.queued {
		n, _, errno := syscall.RawSyscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&t.hdrs[t.next])), uintptr(t.queued-t.next), 0, 0, 0)
		switch errno {
		case 0:
			t.next += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			t.failed++
			t.next++
		}
	}
	return true
}

// getPort and setPort access a sockaddr's port, kept in network byte
// order.
func getPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

func setPort(p *uint16, v uint16) {
	b := (*[2]byte)(unsafe.Pointer(p))
	b[0], b[1] = byte(v>>8), byte(v)
}

// scopeID reads back the interface index peer wrote as a zone, so that a
// link-local peer is answered on the interface it came in on.
func scopeID(zone string) uint32 {
	id, _ := strconv.ParseUint(zone, 10, 32) // "" (no zone) reads as 0
	return uint32(id)
}
