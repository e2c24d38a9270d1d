package server

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"softrate/internal/linkstore"
)

// TestAdmissionGateBlocksAtCapacity: with -max-inflight set, a Decide
// past the bound parks on the gate and proceeds the moment a slot frees
// — backpressure, not rejection, for the blocking transports.
func TestAdmissionGateBlocksAtCapacity(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}, MaxInflight: 2})
	rng := rand.New(rand.NewSource(9))
	ops := randOps(rng, 64, 64)
	out := make([]int32, len(ops))
	srv.Decide(ops, out) // sanity: a free gate admits immediately

	srv.gate <- struct{}{}
	srv.gate <- struct{}{}
	if !srv.gateSaturated() {
		t.Fatal("gate with MaxInflight tokens should read saturated")
	}
	done := make(chan struct{})
	go func() { srv.Decide(ops, out); close(done) }()
	select {
	case <-done:
		t.Fatal("Decide ran past a saturated admission gate")
	case <-time.After(100 * time.Millisecond):
	}
	<-srv.gate // free one slot
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Decide never acquired the freed slot")
	}
	<-srv.gate // drain the second manual token
	if st := srv.Status(); st.Overload.MaxInflight != 2 || st.Overload.Inflight != 0 {
		t.Fatalf("overload status %+v, want max_inflight=2 inflight=0", st.Overload)
	}
}

// TestUDPShedsWhenGateSaturated: the datagram transport must not park
// readers on the gate — a burst arriving while the gate is saturated is
// dropped unserved (counted, no response, ops never applied), and
// service resumes as soon as the gate frees.
func TestUDPShedsWhenGateSaturated(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}, MaxInflight: 1})
	addr := startUDP(t, srv)
	cli, err := DialUDP(addr, 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rng := rand.New(rand.NewSource(4))
	ops := randOps(rng, 32, 64)
	got := make([]int32, len(ops))
	if _, ok, err := cli.Decide(ops, got); err != nil || !ok {
		t.Fatalf("healthy decide: ok=%v err=%v", ok, err)
	}

	srv.gate <- struct{}{} // saturate the gate
	if _, ok, err := cli.Decide(ops, got); err != nil {
		t.Fatalf("decide against a saturated gate errored: %v", err)
	} else if ok {
		t.Fatal("a shed datagram was answered")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Status().UDP.Shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shed counter never moved")
		}
		time.Sleep(5 * time.Millisecond)
	}
	framesBefore := srv.Stats().Frames

	<-srv.gate // free the gate; service resumes
	if _, ok, err := cli.Decide(ops, got); err != nil || !ok {
		t.Fatalf("decide after the gate freed: ok=%v err=%v", ok, err)
	}
	// The shed batch was never applied: only the two answered batches
	// reached the store.
	if frames := srv.Stats().Frames; frames != framesBefore+uint64(len(ops)) {
		t.Fatalf("store saw %d frames, want %d (shed ops must never be applied)",
			frames, framesBefore+uint64(len(ops)))
	}
}

// TestSlowClientEvicted: a client that submits forever and never reads a
// response must be evicted by the write-deadline policy — counted in
// status — while a well-behaved client on the same server keeps getting
// answers.
func TestSlowClientEvicted(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}, WriteTimeout: 150 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Empty requests cost the server almost nothing per answer byte, and a
	// small receive buffer holds few answers: the server's writes block
	// soon, even under the race detector.
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	payload := AppendOpsV3(nil, 0, nil)
	var frame []byte // a thousand requests a write
	for range 1000 {
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
		frame = append(frame, payload...)
	}

	// Write without ever reading until the server cuts us off. Our own
	// sends start timing out once the server stops reading (its writes
	// to us are stuck — the point); keep the socket open through those,
	// resuming a partly written frame where it stopped so the stream stays
	// well-framed and the only thing wrong with this peer is that it
	// never reads.
	evicted := false
	rest := frame
	overall := time.Now().Add(10 * time.Second)
	for time.Now().Before(overall) {
		conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := conn.Write(rest)
		if rest = rest[n:]; len(rest) == 0 {
			rest = frame
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("server never evicted a client that reads nothing")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Status().Transport.SlowClientsEvicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("eviction not counted in status")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server is still healthy for everyone else.
	cli, err := DialPipelined(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ops := randOps(rand.New(rand.NewSource(6)), 32, 64)
	out := make([]int32, len(ops))
	if _, err := cli.Decide(ops, out); err != nil {
		t.Fatalf("well-behaved client after an eviction: %v", err)
	}
}

// TestDecideZeroAllocWithGate extends the steady-state allocation pin
// over the admission gate: acquiring and releasing a token must cost no
// allocations on the warm path.
func TestDecideZeroAllocWithGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	srv := New(Config{Store: linkstore.Config{Shards: 8, ExpectedLinks: 512}, MaxInflight: 4})
	rng := rand.New(rand.NewSource(3))
	ops := randOps(rng, 128, 256)
	out := make([]int32, len(ops))
	for warm := 0; warm < 3; warm++ {
		srv.Decide(ops, out)
	}
	if n := testing.AllocsPerRun(50, func() { srv.Decide(ops, out) }); n != 0 {
		t.Fatalf("gated Decide allocates %v per batch in steady state, want 0", n)
	}
}
