//go:build linux && (amd64 || arm64)

package server

import (
	"bytes"
	"math/rand"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"softrate/internal/linkstore"
)

// TestUDPGatherDrainsQueued: datagrams already queued when the serve loop
// first reads are one burst, whichever client sent them, and every
// response goes back to its own sender with the bytes an in-process
// replay produces. The last request carries ~2 000 records, more than a
// drain's op budget: the budget only stops further reads, so it is still
// taken whole.
func TestUDPGatherDrainsQueued(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	requests := func() [][]byte {
		var ps [][]byte
		for id := uint32(0); id < 4; id++ {
			ps = append(ps, AppendOpsV3(nil, id, randOps(rng, 40, 300)))
		}
		return append(ps, AppendOpsV3(nil, 4, randOps(rng, 2000, 300)))
	}

	t.Run("ipv4", func(t *testing.T) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addr := conn.LocalAddr().(*net.UDPAddr)
		a, b := dialUDPTest(t, "udp", addr), dialUDPTest(t, "udp", addr)
		serveQueued(t, conn, []*net.UDPConn{a, b, a, b, a}, requests())
	})

	// A socket bound to [::] takes IPv4 peers v4-mapped: the sockaddr
	// its responses carry follows the socket's family, not the peer's.
	t.Run("dual-stack", func(t *testing.T) {
		probe, err := net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback})
		if err != nil {
			t.Skipf("no IPv6 loopback: %v", err)
		}
		probe.Close()
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv6unspecified})
		if err != nil {
			t.Fatal(err)
		}
		port := conn.LocalAddr().(*net.UDPAddr).Port
		v4 := dialUDPTest(t, "udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		v6 := dialUDPTest(t, "udp6", &net.UDPAddr{IP: net.IPv6loopback, Port: port})
		serveQueued(t, conn, []*net.UDPConn{v4, v6, v6, v4, v6}, requests())
	})

	// The limits of one drain: a burst's first datagram is taken whatever
	// its size and ends the burst once it spends the op budget; otherwise
	// a burst stops at BurstSize datagrams.
	t.Run("limits", func(t *testing.T) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		cli := dialUDPTest(t, "udp", conn.LocalAddr().(*net.UDPAddr))
		srv := New(Config{Store: linkstore.Config{Shards: 4}})
		tr, err := newUDPTransport(conn)
		if err != nil {
			t.Fatal(err)
		}
		eng := newBurstEngine(srv, &srv.udp, true)
		send := func(p []byte) {
			if _, err := cli.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		gather := func() int {
			eng.reset()
			if err := tr.gather(eng, false); err != nil {
				t.Fatal(err)
			}
			return eng.n
		}

		send(AppendOpsV3(nil, 0, randOps(rng, 2000, 300)))
		for id := uint32(1); id < 4; id++ {
			send(AppendOpsV3(nil, id, randOps(rng, 40, 300)))
		}
		if n := gather(); n != 1 || !eng.dg[0].ok || eng.dg[0].opEnd != 2000 {
			t.Fatalf("over-budget first datagram: burst of %d, slot %+v; want it alone and whole", n, eng.dg[0])
		}
		if n := gather(); n != 3 {
			t.Fatalf("burst behind it took %d datagrams, want 3", n)
		}

		for id := uint32(0); id < BurstSize+8; id++ {
			send(AppendOpsV3(nil, id, randOps(rng, 1, 300)))
		}
		if n := gather(); n != BurstSize {
			t.Fatalf("first of %d one-op datagrams: burst of %d, want %d", BurstSize+8, n, BurstSize)
		}
		if n := gather(); n != 8 {
			t.Fatalf("the rest: burst of %d, want 8", n)
		}
	})
}

// TestUDPSockaddrRoundTrip: a peer decoded from recvfrom's sockaddr is
// answered at the same sockaddr — a link-local peer on the interface it
// came in on, a v4-mapped one on an AF_INET6 socket as it was.
func TestUDPSockaddrRoundTrip(t *testing.T) {
	tr := &udpTransport{inet6: true}
	for _, peer := range []string{"[fe80::1%7]:9000", "[::ffff:127.0.0.1]:53", "[2001:db8::2]:1"} {
		want := netip.MustParseAddrPort(peer)
		from := syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: want.Addr().As16(), Scope_id: scopeID(want.Addr().Zone())}
		setPort(&from.Port, want.Port())
		tr.from = from
		if got := tr.peer(); got != want {
			t.Fatalf("recvfrom sockaddr of %s decoded as %s", peer, got)
		}
		tr.queued = 0
		tr.send(&dgram{addr: want}, []byte{0})
		if tr.to[0] != from || tr.hdrs[0].hdr.Namelen != syscall.SizeofSockaddrInet6 {
			t.Fatalf("%s queued as %+v (len %d), received as %+v", peer, tr.to[0], tr.hdrs[0].hdr.Namelen, from)
		}
	}
}

func dialUDPTest(t *testing.T, network string, addr *net.UDPAddr) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP(network, nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// serveQueued sends payloads[i] from senders[i], all before ServeUDP
// starts on conn, and requires one burst of them all, answered to their
// senders byte-identically to an in-process replay.
func serveQueued(t *testing.T, conn *net.UDPConn, senders []*net.UDPConn, payloads [][]byte) {
	t.Helper()
	cfg := Config{Store: linkstore.Config{Shards: 16}}
	srv, mirror := New(cfg), New(cfg)
	for i, p := range payloads {
		if _, err := senders[i].Write(p); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(conn) }()
	buf := make([]byte, maxResponse)
	for i, p := range payloads {
		want, ok := replayResponse(mirror, p)
		if !ok {
			t.Fatalf("payload %d does not decode", i)
		}
		senders[i].SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := senders[i].Read(buf)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("payload %d answered %x…, in-process replay %x…", i, buf[:min(n, 16)], want[:16])
		}
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	st := srv.Status().UDP
	if st.Bursts != 1 || st.DatagramsRx != uint64(len(payloads)) || st.DatagramsTx != uint64(len(payloads)) {
		t.Fatalf("%d bursts, %d datagrams in, %d out; want 1, %d, %d",
			st.Bursts, st.DatagramsRx, st.DatagramsTx, len(payloads), len(payloads))
	}
}
