package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/linkstore"
	"softrate/internal/server/shmring"
)

// The transport conformance table: one scripted exchange per row, run
// over every carrier. What a row may assume differs only by loss policy
// (confCarrier.lossy) and by whether a malformed payload costs the peer
// its connection (confCarrier.stream).

// confClient is the face the rows drive: Client and UDPClient behind one
// Wait signature (answered is false only on the lossy carrier).
type confClient interface {
	Submit(ops []linkstore.Op) (*Pending, error)
	Wait(p *Pending, out []int32) (res []int32, answered bool, err error)
	Close() error
}

type losslessFace struct{ *Client }

func (f losslessFace) Wait(p *Pending, out []int32) ([]int32, bool, error) {
	res, err := f.Client.Wait(p, out)
	return res, err == nil, err
}

// rawPeer speaks bare payloads to a served carrier, so rows can send what
// no client would.
type rawPeer interface {
	send(payload []byte)
	// recv returns the next response payload, or an error once the peer
	// was dropped or nothing arrives within the wait.
	recv(wait time.Duration) ([]byte, error)
	close()
}

// confEndpoint is one served carrier.
type confEndpoint struct {
	srv  *Server
	done chan error // the Serve* call's return value
	dial func(depth int) (confClient, error)
	raw  func() rawPeer
	// counts reads the carrier's own well-formed / malformed counters.
	counts func() (requests, malformed uint64)
}

type confCarrier struct {
	name   string
	lossy  bool // loss policy: timeouts instead of poison, shed instead of block
	stream bool // a malformed payload drops the connection
	serve  func(t *testing.T, srv *Server) *confEndpoint
}

var confCarriers = []confCarrier{
	{name: "tcp", stream: true, serve: serveConfTCP},
	{name: "udp", lossy: true, serve: serveConfUDP},
	{name: "shm", serve: serveConfSHM},
}

func serveConfTCP(t *testing.T, srv *Server) *confEndpoint {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := &confEndpoint{srv: srv, done: make(chan error, 1)}
	go func() { ep.done <- srv.Serve(l) }()
	addr := l.Addr().String()
	ep.dial = func(depth int) (confClient, error) {
		cli, err := DialPipelined(addr, depth)
		if err != nil {
			return nil, err
		}
		return losslessFace{cli}, nil
	}
	ep.raw = func() rawPeer {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return &tcpPeer{t, c}
	}
	ep.counts = func() (uint64, uint64) {
		st := srv.Status().Transport
		return st.Requests, st.FramingErrors
	}
	return ep
}

type tcpPeer struct {
	t *testing.T
	c net.Conn
}

func (p *tcpPeer) send(payload []byte) { p.c.Write(frame(payload)) } // a dropped peer's writes may fail
func (p *tcpPeer) close()              { p.c.Close() }
func (p *tcpPeer) recv(wait time.Duration) ([]byte, error) {
	p.c.SetReadDeadline(time.Now().Add(wait))
	resp := make([]byte, 8)
	if _, err := io.ReadFull(p.c, resp); err != nil {
		return nil, err
	}
	resp = append(resp, make([]byte, binary.LittleEndian.Uint32(resp[4:8]))...)
	_, err := io.ReadFull(p.c, resp[8:])
	return resp, err
}

func serveConfUDP(t *testing.T, srv *Server) *confEndpoint {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ep := &confEndpoint{srv: srv, done: make(chan error, 1)}
	go func() { ep.done <- srv.ServeUDP(conn) }()
	addr := conn.LocalAddr().String()
	ep.dial = func(depth int) (confClient, error) { return DialUDP(addr, depth, time.Second) }
	ep.raw = func() rawPeer {
		raddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			t.Fatal(err)
		}
		return &udpPeer{t, c}
	}
	ep.counts = func() (uint64, uint64) {
		st := srv.Status().UDP
		return st.Requests, st.Drops
	}
	return ep
}

type udpPeer struct {
	t *testing.T
	c *net.UDPConn
}

func (p *udpPeer) close() { p.c.Close() }
func (p *udpPeer) send(payload []byte) {
	if _, err := p.c.Write(payload); err != nil {
		p.t.Fatal(err)
	}
}
func (p *udpPeer) recv(wait time.Duration) ([]byte, error) {
	p.c.SetReadDeadline(time.Now().Add(wait))
	buf := make([]byte, MaxDatagram)
	n, err := p.c.Read(buf)
	return buf[:n], err
}

// confRings is how many regions the shm endpoint serves: a row's client
// and its raw peers each hold one.
const confRings = 4

func serveConfSHM(t *testing.T, srv *Server) *confEndpoint {
	prefix := filepath.Join(t.TempDir(), "ring")
	regions := make([]*shmring.Region, confRings)
	for i := range regions {
		g, err := shmring.Create(RingPath(prefix, i), shmring.DefaultCapacity)
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = g
		t.Cleanup(func() { g.Close() })
	}
	ep := &confEndpoint{srv: srv, done: make(chan error, 1)}
	go func() { ep.done <- srv.ServeSHM(regions) }()
	ep.dial = func(depth int) (confClient, error) {
		var err error
		for i := 0; i < confRings; i++ {
			var cli *SHMClient
			if cli, err = DialSHM(RingPath(prefix, i), depth, 5*time.Second); err == nil {
				return losslessFace{cli}, nil
			}
		}
		return nil, err
	}
	ep.raw = func() rawPeer {
		for i := 0; i < confRings; i++ {
			g, err := shmring.Open(RingPath(prefix, i))
			if err != nil {
				t.Fatal(err)
			}
			if g.Attach() {
				return &shmPeer{t, g}
			}
			g.Close()
		}
		t.Fatal("no free ring for a raw peer")
		return nil
	}
	ep.counts = func() (uint64, uint64) {
		st := srv.Status().SHM
		return st.Requests, st.Drops
	}
	return ep
}

type shmPeer struct {
	t *testing.T
	g *shmring.Region
}

func (p *shmPeer) close() { p.g.ClientClose(); p.g.Close() }
func (p *shmPeer) send(payload []byte) {
	for deadline := time.Now().Add(2 * time.Second); !p.g.Request().Push(payload); {
		if time.Now().After(deadline) {
			p.t.Fatal("request ring stayed full")
		}
		time.Sleep(50 * time.Microsecond)
	}
}
func (p *shmPeer) recv(wait time.Duration) ([]byte, error) {
	for deadline := time.Now().Add(wait); ; time.Sleep(50 * time.Microsecond) {
		if msg, ok := p.g.Response().Peek(); ok {
			out := append([]byte(nil), msg...)
			p.g.Response().Advance()
			return out, nil
		}
		if time.Now().After(deadline) {
			return nil, errors.New("no response in the ring")
		}
	}
}

// confHarness is what a row gets: a served carrier and a fresh in-process
// mirror with the same store shape.
type confHarness struct {
	t     *testing.T
	car   confCarrier
	ep    *confEndpoint
	local *Server
}

func newConfHarness(t *testing.T, car confCarrier) *confHarness {
	cfg := Config{Store: linkstore.Config{Shards: 16}}
	remote := New(cfg)
	h := &confHarness{t: t, car: car, ep: car.serve(t, remote), local: New(cfg)}
	t.Cleanup(func() {
		remote.Close()
		select {
		case err := <-h.ep.done:
			if err != nil {
				t.Errorf("serve loop returned %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("serve loop did not exit on Close")
		}
	})
	return h
}

func (h *confHarness) dial(depth int) confClient {
	h.t.Helper()
	cli, err := h.ep.dial(depth)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { cli.Close() })
	return cli
}

// batch builds n random ops on a private link range (base keeps batches
// that are in flight together on disjoint links, so per-link order is
// submit order whatever the wire does).
func confBatch(rng *rand.Rand, n int, base uint64) []linkstore.Op {
	ops := randOps(rng, n, 100)
	for i := range ops {
		ops[i].LinkID += base
	}
	return ops
}

// mustMatch waits on p and requires the answer to be byte-identical to
// the in-process mirror's decisions for the same batch.
func (h *confHarness) mustMatch(cli confClient, p *Pending, ops []linkstore.Op, what string) {
	h.t.Helper()
	got, answered, err := cli.Wait(p, make([]int32, len(ops)))
	if err != nil || !answered {
		h.t.Fatalf("%s: answered=%v err=%v", what, answered, err)
	}
	want := h.local.Decide(ops, make([]int32, len(ops)))
	if len(got) != len(want) {
		h.t.Fatalf("%s: %d rates for %d ops", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			h.t.Fatalf("%s op %d: %s %d != in-process %d", what, i, h.car.name, got[i], want[i])
		}
	}
}

// wantResponse is the response payload the wire must carry for ops under
// request ID id, per the in-process mirror.
func (h *confHarness) wantResponse(id uint32, ops []linkstore.Op) []byte {
	return responseBytes(id, h.local.Decide(ops, make([]int32, len(ops))))
}

var confRows = []struct {
	name string
	run  func(h *confHarness)
}{
	{"byte-identity", confByteIdentity},
	{"window", confWindow},
	{"slot-held-until-waited", confSlotHeld},
	{"validation-does-not-poison", confValidation},
	{"malformed-per-loss-policy", confMalformed},
	{"drain-answers-in-flight", confDrain},
}

// runConformance runs the named rows (all when none are named) over the
// named carrier.
func runConformance(t *testing.T, carrier string, rows ...string) {
	for _, car := range confCarriers {
		if car.name != carrier {
			continue
		}
		for _, row := range confRows {
			if len(rows) > 0 && !slices.Contains(rows, row.name) {
				continue
			}
			t.Run(row.name, func(t *testing.T) { row.run(newConfHarness(t, car)) })
		}
		return
	}
	t.Fatalf("no carrier %q", carrier)
}

func TestTransportConformance(t *testing.T) {
	for _, car := range confCarriers {
		t.Run(car.name, func(t *testing.T) { runConformance(t, car.name) })
	}
}

// These names predate the table; each runs its row over its carrier.
func TestTCPEndToEndMatchesInProcess(t *testing.T)       { runConformance(t, "tcp", "byte-identity") }
func TestPipelinedEndToEndMatchesInProcess(t *testing.T) { runConformance(t, "tcp", "window") }
func TestPipelineSlotHeldUntilWaited(t *testing.T) {
	runConformance(t, "tcp", "slot-held-until-waited")
}
func TestValidationErrorsDoNotPoison(t *testing.T) {
	runConformance(t, "tcp", "validation-does-not-poison")
}
func TestDrainAnswersInFlight(t *testing.T)        { runConformance(t, "tcp", "drain-answers-in-flight") }
func TestUDPEndToEndMatchesInProcess(t *testing.T) { runConformance(t, "udp", "byte-identity") }
func TestServeUDPDrain(t *testing.T)               { runConformance(t, "udp", "drain-answers-in-flight") }
func TestSHMEndToEndMatchesInProcess(t *testing.T) { runConformance(t, "shm", "byte-identity") }
func TestSHMPipelinedWaitOrderFree(t *testing.T)   { runConformance(t, "shm", "window") }
func TestSHMDrain(t *testing.T)                    { runConformance(t, "shm", "drain-answers-in-flight") }

// confByteIdentity: stop-and-wait batches answer exactly as in-process
// Decide does, and the carrier's counters saw exactly those requests.
func confByteIdentity(h *confHarness) {
	cli := h.dial(1)
	rng := rand.New(rand.NewSource(2))
	for batch := 0; batch < 20; batch++ {
		ops := randOps(rng, 300, 500)
		p, err := cli.Submit(ops)
		if err != nil {
			h.t.Fatalf("batch %d: %v", batch, err)
		}
		h.mustMatch(cli, p, ops, fmt.Sprintf("batch %d", batch))
	}
	if st := h.ep.srv.Stats(); st.Frames != 300*20 {
		h.t.Fatalf("remote served %d frames, want %d", st.Frames, 300*20)
	}
	if reqs, bad := h.ep.counts(); reqs != 20 || bad != 0 {
		h.t.Fatalf("%s counters: %d requests, %d malformed; want 20 and 0", h.car.name, reqs, bad)
	}
}

// confWindow: a full window in flight, one Submit past it refused, Waits
// in either order (older responses park in their slots), every decision
// byte-identical.
func confWindow(h *confHarness) {
	const depth = 4
	cli := h.dial(depth)
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 25; round++ {
		var batches [depth][]linkstore.Op
		var pend [depth]*Pending
		for d := 0; d < depth; d++ {
			batches[d] = confBatch(rng, 50, uint64(d)*10000)
			var err error
			if pend[d], err = cli.Submit(batches[d]); err != nil {
				h.t.Fatalf("round %d submit %d: %v", round, d, err)
			}
		}
		if _, err := cli.Submit(batches[0]); !errors.Is(err, ErrPipelineFull) {
			h.t.Fatalf("submit past the window returned %v, want ErrPipelineFull", err)
		}
		for k := 0; k < depth; k++ {
			d := k
			if round%2 == 1 {
				d = depth - 1 - k // newest first: responses still arrive oldest first
			}
			h.mustMatch(cli, pend[d], batches[d], fmt.Sprintf("round %d slot %d", round, d))
		}
	}
	if st := h.ep.srv.Stats(); st.Frames != 25*depth*50 {
		h.t.Fatalf("remote served %d frames, want %d", st.Frames, 25*depth*50)
	}
}

// confSlotHeld pins the slot lifetime: an answered-but-unwaited Pending
// still occupies its slot, so the window fills around it instead of a
// Submit silently rebinding the parked response to a new request; and a
// Pending can be waited on exactly once.
func confSlotHeld(h *confHarness) {
	cli := h.dial(2)
	rng := rand.New(rand.NewSource(33))
	a, b, c := confBatch(rng, 32, 0), confBatch(rng, 32, 1000), confBatch(rng, 32, 2000)
	pA, err := cli.Submit(a)
	if err != nil {
		h.t.Fatal(err)
	}
	pB, err := cli.Submit(b)
	if err != nil {
		h.t.Fatal(err)
	}
	out := make([]int32, 32)
	// Waiting on B first parks A's response in its slot, and frees B's.
	if _, answered, err := cli.Wait(pB, out); err != nil || !answered {
		h.t.Fatalf("Wait(B): answered=%v err=%v", answered, err)
	}
	pC, err := cli.Submit(c)
	if err != nil {
		h.t.Fatalf("Submit into the slot B freed: %v", err)
	}
	// A is parked, C in flight: a depth-2 client has no slot left.
	if _, err := cli.Submit(c); !errors.Is(err, ErrPipelineFull) {
		h.t.Fatalf("Submit onto a parked slot returned %v, want ErrPipelineFull", err)
	}
	// Collecting A must yield A's decisions, not C's.
	h.mustMatch(cli, pA, a, "parked batch")
	if _, _, err := cli.Wait(pA, out); err == nil {
		h.t.Fatal("second Wait on a collected Pending succeeded")
	}
	if _, _, err := cli.Wait(&Pending{id: 7}, out); err == nil {
		h.t.Fatal("Wait on a never-submitted Pending succeeded")
	}
	if _, answered, err := cli.Wait(pC, out); err != nil || !answered {
		h.t.Fatalf("Wait(C): answered=%v err=%v", answered, err)
	}
}

// confValidation: a batch the wire cannot carry is rejected before any
// byte moves, so the server never hears of it and the client stays
// usable.
func confValidation(h *confHarness) {
	cli := h.dial(2)
	if _, err := cli.Submit([]linkstore.Op{{LinkID: 1, RateIndex: 1000}}); err == nil {
		h.t.Fatal("unencodable rate index accepted")
	}
	if _, err := cli.Submit(make([]linkstore.Op, MaxBatch+1)); err == nil {
		h.t.Fatal("batch above MaxBatch accepted")
	}
	if !h.car.stream {
		if _, err := cli.Submit(make([]linkstore.Op, MaxDatagram/RecordSizeV2+1)); err == nil {
			h.t.Fatal("batch above the message bound accepted")
		}
	}
	ops := []linkstore.Op{{LinkID: 1, Kind: core.KindSilentLoss}}
	p, err := cli.Submit(ops)
	if err != nil {
		h.t.Fatalf("client unusable after validation errors: %v", err)
	}
	h.mustMatch(cli, p, ops, "after validation errors")
	if reqs, bad := h.ep.counts(); reqs != 1 || bad != 0 {
		h.t.Fatalf("server saw %d requests and %d malformed payloads, want only the valid one", reqs, bad)
	}
}

// confMalformed: what is not a well-formed request payload — garbage, a
// truncated record, and the retired v1 and v2 framings — never reaches
// the store. A datagram or ring message is counted and dropped without
// disturbing the payloads around it; on a stream it is counted and costs
// the peer its connection (requests ahead of it are still answered).
func confMalformed(h *confHarness) {
	good := func(id uint32) ([]byte, []linkstore.Op) {
		ops := []linkstore.Op{{LinkID: uint64(id), Kind: core.KindBER, RateIndex: 3, BER: 1e-5}, {LinkID: 9, Kind: core.KindSilentLoss}}
		return AppendOpsV3(nil, id, ops), ops
	}
	v1 := []byte{ // one 18-byte v1 record: link, kind, rate, BER
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x00, 0x03,
		0x69, 0x1d, 0x55, 0x4d, 0x10, 0x75, 0xef, 0x3e,
	}
	g0, _ := good(0)
	badKind := append([]byte(nil), g0...)
	badKind[headerSizeV3+9] = byte(core.NumKinds)
	bads := []struct {
		name    string
		payload []byte
	}{
		{"bad version byte", []byte{0x7f}},
		{"truncated header", []byte{VersionV3, 1, 2, 3}},
		{"truncated record", g0[:len(g0)-1]},
		{"unknown kind", badKind},
		{"retired v1 framing", v1},
		{"retired v2 framing", AppendOpsV2(nil, []linkstore.Op{{LinkID: 2, Kind: core.KindBER, BER: 1e-4}})},
		{"empty v2 block", AppendOpsV2(nil, nil)},
	}
	malformed := uint64(0)
	id := uint32(100)
	for _, b := range bads {
		name, bad := b.name, b.payload
		peer := h.ep.raw()
		before, ops1 := good(id)
		after, ops2 := good(id + 1)
		peer.send(before)
		peer.send(bad)
		peer.send(after)
		malformed++

		got, err := peer.recv(2 * time.Second)
		if err != nil || string(got) != string(h.wantResponse(id, ops1)) {
			h.t.Fatalf("%s: request ahead of it answered %x (err %v), want the in-process bytes", name, got, err)
		}
		got, err = peer.recv(300 * time.Millisecond)
		if h.car.stream {
			if err == nil {
				h.t.Fatalf("%s: stream peer still served after a framing violation (%x)", name, got)
			}
		} else if err != nil || string(got) != string(h.wantResponse(id+1, ops2)) {
			h.t.Fatalf("%s: request behind it answered %x (err %v), want the in-process bytes", name, got, err)
		}
		peer.close()
		id += 2
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, bad := h.ep.counts()
		if bad == malformed {
			break
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%d malformed payloads counted, want %d", bad, malformed)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Nothing malformed reached the store, and the service is unharmed.
	if got, want := h.ep.srv.Stats().Frames, h.local.Stats().Frames; got != want {
		h.t.Fatalf("store saw %d frames, the mirror of the well-formed requests %d", got, want)
	}
	cli := h.dial(1)
	ops := []linkstore.Op{{LinkID: 9, Kind: core.KindSilentLoss}}
	p, err := cli.Submit(ops)
	if err != nil {
		h.t.Fatal(err)
	}
	h.mustMatch(cli, p, ops, "healthy client after malformed peers")
}

// confDrain: Drain answers what the server has received, every serve
// loop returns nil, and new work is refused the way the carrier refuses
// it. Lossless carriers must answer the whole in-flight window; on the
// lossy one a request still in the socket buffer when the drain lands is
// a lost decision, never an error or a wrong answer.
func confDrain(h *confHarness) {
	const depth = 4
	cli := h.dial(depth)
	rng := rand.New(rand.NewSource(1))
	var batches [depth][]linkstore.Op
	var pend [depth]*Pending
	for d := range pend {
		batches[d] = confBatch(rng, 32, uint64(d)*10000)
		var err error
		if pend[d], err = cli.Submit(batches[d]); err != nil {
			h.t.Fatal(err)
		}
	}
	// The first Wait puts the whole window on the wire.
	h.mustMatch(cli, pend[0], batches[0], "pre-drain batch")
	time.Sleep(50 * time.Millisecond) // the server has surely received the rest

	drained := make(chan struct{})
	go func() {
		h.ep.srv.Drain(2 * time.Second)
		close(drained)
	}()
	for d := 1; d < depth; d++ {
		if h.car.lossy {
			got, answered, err := cli.Wait(pend[d], make([]int32, 32))
			if err != nil {
				h.t.Fatalf("in-flight batch %d errored across the drain: %v", d, err)
			}
			want := h.local.Decide(batches[d], make([]int32, 32))
			for i := range got {
				if answered && got[i] != want[i] {
					h.t.Fatalf("in-flight batch %d op %d: %d != in-process %d", d, i, got[i], want[i])
				}
			}
			continue
		}
		h.mustMatch(cli, pend[d], batches[d], fmt.Sprintf("in-flight batch %d across the drain", d))
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		h.t.Fatal("Drain never returned")
	}
	select {
	case err := <-h.ep.done:
		if err != nil {
			h.t.Fatalf("serve loop returned %v after drain, want nil", err)
		}
		h.ep.done <- nil // for the harness cleanup
	case <-time.After(2 * time.Second):
		h.t.Fatal("serve loop never returned after drain")
	}
	st := h.ep.srv.Status()
	if !st.Transport.Draining || st.Transport.ConnsActive != 0 {
		h.t.Fatalf("after drain: %+v", st.Transport)
	}
	if reqs, bad := h.ep.counts(); reqs != depth || bad != 0 {
		h.t.Fatalf("%d requests and %d malformed counted, want %d and 0", reqs, bad, depth)
	}

	// New work is refused. A datagram is simply never answered; a ring
	// client is told the region is draining, and that poison is sticky; a
	// TCP dial finds the listener gone.
	ops := []linkstore.Op{{LinkID: 1, Kind: core.KindBER, BER: 1e-5}}
	switch h.car.name {
	case "udp":
		p, err := cli.Submit(ops)
		if err != nil {
			h.t.Fatal(err)
		}
		if _, answered, err := cli.Wait(p, make([]int32, 1)); err != nil || answered {
			h.t.Fatalf("post-drain decide: answered=%v err=%v; want a quiet timeout", answered, err)
		}
	case "shm":
		if _, err := cli.Submit(ops); !errors.Is(err, ErrDraining) {
			h.t.Fatalf("post-drain Submit returned %v, want ErrDraining", err)
		}
		if _, err := cli.Submit(ops); err == nil || !strings.Contains(err.Error(), "poisoned") {
			h.t.Fatalf("client usable after ErrDraining: %v", err)
		}
	case "tcp":
		if _, err := h.ep.dial(1); err == nil {
			h.t.Fatal("dial succeeded after drain closed the listener")
		}
	}
}
