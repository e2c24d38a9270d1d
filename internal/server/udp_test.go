package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/linkstore"
)

// startUDP spins up a served datagram socket and returns its address.
func startUDP(t *testing.T, srv *Server) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(conn) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
	})
	return conn.LocalAddr().String()
}

// TestUDPWindowedMatchesInProcess exercises the windowed client (several
// datagrams in flight, so the server actually forms multi-datagram
// bursts) with disjoint link cohorts per slot, as a windowed sender must
// partition them: per-link feedback order is then submit order, and a
// mirror server fed the same batches one Decide each must agree
// byte-for-byte.
func TestUDPWindowedMatchesInProcess(t *testing.T) {
	remote := New(Config{Store: linkstore.Config{Shards: 16}})
	local := New(Config{Store: linkstore.Config{Shards: 16}})
	addr := startUDP(t, remote)

	const window = 8
	cli, err := DialUDP(addr, window, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rng := rand.New(rand.NewSource(5))
	type flight struct {
		ops []linkstore.Op
		p   *UDPPending
	}
	out := make([]int32, 64)
	want := make([]int32, 64)
	for round := 0; round < 30; round++ {
		var fl [window]flight
		for s := 0; s < window; s++ {
			ops := randOps(rng, 64, 50)
			for j := range ops {
				ops[j].LinkID += uint64(s) * 1000 // cohort: disjoint links per slot
			}
			p, err := cli.Submit(ops)
			if err != nil {
				t.Fatalf("round %d slot %d: %v", round, s, err)
			}
			fl[s] = flight{ops, p}
		}
		for s := 0; s < window; s++ {
			res, ok, err := cli.Wait(fl[s].p, out)
			if err != nil {
				t.Fatalf("round %d slot %d: %v", round, s, err)
			}
			if !ok {
				t.Fatalf("round %d slot %d: lost on loopback", round, s)
			}
			local.Decide(fl[s].ops, want)
			for i := range res {
				if res[i] != want[i] {
					t.Fatalf("round %d slot %d op %d: UDP %d != in-process %d", round, s, i, res[i], want[i])
				}
			}
		}
	}
	if st := cli.Stats(); st.Answered != 30*window || st.Timeouts != 0 {
		t.Fatalf("client stats %+v, want %d answered, 0 timeouts", st, 30*window)
	}
	// The window genuinely put multiple datagrams in flight, so at least
	// some bursts must have drained more than one.
	if s := remote.Status(); s.UDP.Bursts == s.UDP.DatagramsRx {
		t.Logf("note: every burst had size 1 (%d bursts); timing-dependent, not a failure", s.UDP.Bursts)
	}
}

// TestUDPClientLossSemantics drives the client against a hand-rolled
// peer socket so response loss, reordering and duplication are exact:
// a timed-out decision reports ok=false and does NOT poison the client
// (unlike the lossless Client, where a framing error is sticky), out-of-order
// responses park in their slots, and late duplicates are counted stale
// and dropped.
func TestUDPClientLossSemantics(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	cli, err := DialUDP(peer.LocalAddr().String(), 4, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ops := []linkstore.Op{{LinkID: 1, Kind: core.KindBER, BER: 1e-5}}
	buf := make([]byte, MaxDatagram)
	readReq := func() (seq uint32, n int, from *net.UDPAddr) {
		t.Helper()
		peer.SetReadDeadline(time.Now().Add(2 * time.Second))
		ln, addr, err := peer.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		if ln < headerSizeV3 || buf[0] != VersionV3 {
			t.Fatalf("peer got a non-v3 request (%d bytes)", ln)
		}
		return binary.LittleEndian.Uint32(buf[1:5]), (ln - headerSizeV3) / RecordSizeV2, addr
	}
	respond := func(seq uint32, n int, rate byte, to *net.UDPAddr) {
		t.Helper()
		resp := make([]byte, 8+n)
		binary.LittleEndian.PutUint32(resp[0:4], seq)
		binary.LittleEndian.PutUint32(resp[4:8], uint32(n))
		for i := 0; i < n; i++ {
			resp[8+i] = rate
		}
		if _, err := peer.WriteToUDP(resp, to); err != nil {
			t.Fatal(err)
		}
	}

	// Out-of-order: two in flight, answered newest-first. Both Waits must
	// succeed with their own rates.
	p1, err := cli.Submit(ops)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cli.Submit(ops)
	if err != nil {
		t.Fatal(err)
	}
	s1, n1, addr := readReq()
	s2, n2, _ := readReq()
	respond(s2, n2, 5, addr)
	respond(s1, n1, 3, addr)
	out := make([]int32, 1)
	if res, ok, err := cli.Wait(p1, out); err != nil || !ok || res[0] != 3 {
		t.Fatalf("Wait(p1) = %v, %v, %v; want rate 3", res, ok, err)
	}
	if res, ok, err := cli.Wait(p2, out); err != nil || !ok || res[0] != 5 {
		t.Fatalf("Wait(p2) = %v, %v, %v; want rate 5 (parked while p1 waited)", res, ok, err)
	}

	// Dropped response: the peer reads the request and stays silent. Wait
	// times out with ok=false and NO error — the decision is lost, the
	// caller keeps its rate, and the client stays usable.
	p3, err := cli.Submit(ops)
	if err != nil {
		t.Fatal(err)
	}
	s3, n3, _ := readReq()
	if res, ok, err := cli.Wait(p3, out); err != nil || ok || res != nil {
		t.Fatalf("Wait on a dropped response = %v, %v, %v; want nil, false, nil", res, ok, err)
	}

	// Late duplicate: p3's response finally shows up, twice, while p4 is
	// in flight. Both copies are stale (their request already timed out);
	// p4's own answer still lands.
	respond(s3, n3, 7, addr)
	respond(s3, n3, 7, addr)
	p4, err := cli.Submit(ops)
	if err != nil {
		t.Fatalf("Submit after a timeout must work (loss does not poison): %v", err)
	}
	s4, n4, _ := readReq()
	respond(s4, n4, 2, addr)
	if res, ok, err := cli.Wait(p4, out); err != nil || !ok || res[0] != 2 {
		t.Fatalf("Wait(p4) = %v, %v, %v; want rate 2 despite stale traffic", res, ok, err)
	}

	// Malformed response: counted, dropped, no wedge.
	p5, err := cli.Submit(ops)
	if err != nil {
		t.Fatal(err)
	}
	s5, n5, _ := readReq()
	peer.WriteToUDP([]byte{1, 2, 3}, addr)
	respond(s5, n5, 4, addr)
	if res, ok, err := cli.Wait(p5, out); err != nil || !ok || res[0] != 4 {
		t.Fatalf("Wait(p5) = %v, %v, %v; want rate 4 after a malformed datagram", res, ok, err)
	}

	st := cli.Stats()
	if st.Sent != 5 || st.Answered != 4 || st.Timeouts != 1 || st.Stale != 2 || st.Malformed != 1 {
		t.Fatalf("stats %+v; want sent=5 answered=4 timeouts=1 stale=2 malformed=1", st)
	}
}

// TestUDPDropShimInjectsLoss pins the -udp-drop test hook: an injected
// response drop is indistinguishable from network loss (timeout, keep
// rate, no poison), and the server's decision still applied — the next
// answered decision reflects it, byte-identical to an in-process mirror
// that saw every request.
func TestUDPDropShimInjectsLoss(t *testing.T) {
	remote := New(Config{Store: linkstore.Config{Shards: 8}})
	local := New(Config{Store: linkstore.Config{Shards: 8}})
	addr := startUDP(t, remote)

	cli, err := DialUDP(addr, 1, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	drop := uint32(3) // drop exactly the 4th response (seq 3)
	cli.DropResponse = func(seq uint32) bool { return seq == drop }

	rng := rand.New(rand.NewSource(11))
	got := make([]int32, 32)
	want := make([]int32, 32)
	answered := 0
	for batch := 0; batch < 10; batch++ {
		ops := randOps(rng, 32, 40)
		res, ok, err := cli.Decide(ops, got)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		// The mirror advances on every request — the server applied the
		// dropped batch too; only its answer was lost.
		local.Decide(ops, want)
		if batch == int(drop) {
			if ok {
				t.Fatalf("batch %d: the shim should have dropped this response", batch)
			}
			continue
		}
		if !ok {
			t.Fatalf("batch %d: lost without injection", batch)
		}
		answered++
		for i := range res {
			if res[i] != want[i] {
				t.Fatalf("batch %d op %d: UDP %d != mirror %d (state diverged across the drop)", batch, i, res[i], want[i])
			}
		}
	}
	st := cli.Stats()
	if st.Injected != 1 || st.Timeouts != 1 || int(st.Answered) != answered {
		t.Fatalf("stats %+v; want exactly one injected drop and one timeout", st)
	}
}

// TestServeUDPGarbageDatagrams sends undecodable datagrams between valid
// ones: the garbage is dropped (counted, unanswered) and the valid
// traffic is served unharmed — no connection to poison, no desync.
func TestServeUDPGarbageDatagrams(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}})
	addr := startUDP(t, srv)

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, garbage := range [][]byte{
		{0x7f},               // bad version byte
		{VersionV3, 1, 2, 3}, // header truncated
		make([]byte, 19),     // no version byte, no valid length
		append([]byte{VersionV3}, make([]byte, headerSizeV3+RecordSizeV2-2)...), // truncated record
	} {
		if _, err := raw.Write(garbage); err != nil {
			t.Fatal(err)
		}
	}

	cli, err := DialUDP(addr, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	out := make([]int32, 1)
	if _, ok, err := cli.Decide([]linkstore.Op{{LinkID: 9, Kind: core.KindSilentLoss}}, out); err != nil || !ok {
		t.Fatalf("healthy client failed after garbage datagrams: ok=%v err=%v", ok, err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := srv.Status(); s.UDP.Drops == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("udp drops = %d, want 4", srv.Status().UDP.Drops)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// misaddressed serves a UDP socket but readdresses its bad-th datagram to
// an IPv6 peer, which the IPv4 socket cannot reach, and reports the
// transport done once it has gathered total datagrams.
type misaddressed struct {
	*udpTransport
	bad, total, seen int
}

func (m *misaddressed) gather(e *burstEngine, draining bool) error {
	err := m.udpTransport.gather(e, draining)
	for i := range e.dgrams() {
		if m.seen == m.bad {
			e.dg[i].addr = netip.MustParseAddrPort("[2001:db8::1]:9")
		}
		m.seen++
	}
	if err == nil && m.seen == m.total {
		return io.EOF
	}
	return err
}

// TestUDPTxCountsDelivered: a response counts as sent once it is
// delivered, not when it is queued. One undeliverable response mid-burst
// costs one tx error and nothing else: every other peer is answered, and
// the final flush — the transport reported done with the burst in hand —
// still delivers everything it queued.
func TestUDPTxCountsDelivered(t *testing.T) {
	const peers, bad = 5, 2
	cfg := Config{Store: linkstore.Config{Shards: 8}}
	srv, mirror := New(cfg), New(cfg)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newUDPTransport(conn)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	clients := make([]*net.UDPConn, peers)
	want := make([][]byte, peers)
	for i := range clients {
		c, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		p := AppendOpsV3(nil, uint32(i), randOps(rng, 16, 100))
		if _, err := c.Write(p); err != nil {
			t.Fatal(err)
		}
		want[i], _ = replayResponse(mirror, p)
	}
	if err := srv.serve(&misaddressed{udpTransport: tr, bad: bad, total: peers}, &srv.udp); err != nil {
		t.Fatalf("serve: %v", err)
	}

	buf := make([]byte, maxResponse)
	for i, c := range clients {
		c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := c.Read(buf)
		if i == bad {
			if err == nil {
				t.Fatalf("the readdressed peer's client got %x", buf[:n])
			}
			continue
		}
		if err != nil || !bytes.Equal(buf[:n], want[i]) {
			t.Fatalf("peer %d: answered %x (err %v), in-process replay %x", i, buf[:n], err, want[i])
		}
	}
	if st := srv.Status().UDP; st.DatagramsRx != peers || st.DatagramsTx != peers-1 || st.TxErrors != 1 {
		t.Fatalf("udp status rx %d tx %d tx_errors %d; want %d, %d, 1", st.DatagramsRx, st.DatagramsTx, st.TxErrors, peers, peers-1)
	}
}

func TestServeUDPConcurrentClients(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 16, TTL: 50 * time.Millisecond}})
	addr := startUDP(t, srv)

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := DialUDP(addr, 2, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			out := make([]int32, 64)
			for i := 0; i < 50; i++ {
				ops := randOps(rng, 64, 100)
				for j := range ops {
					ops[j].LinkID += uint64(c) * 1000
				}
				if _, _, err := cli.Decide(ops, out); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Frames != clients*50*64 {
		t.Fatalf("served %d frames, want %d", st.Frames, clients*50*64)
	}
}
