package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

func TestBurstBucket(t *testing.T) {
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 32: 5}
	for n, b := range want {
		if got := burstBucket(n); got != b {
			t.Errorf("burstBucket(%d) = %d, want %d", n, got, b)
		}
	}
}

// handleConn serves one established connection through the TCP transport
// and the shared burst loop, as Serve does for an accepted one.
func (s *Server) handleConn(conn net.Conn) {
	s.serve(s.newTCPTransport(conn), &s.tcp)
}

// packDatagrams encodes payloads in the fuzz corpus shape consumed by
// FuzzServeDatagrams: [u16 len][payload] repeated.
func packDatagrams(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p)))
		b = append(b, p...)
	}
	return b
}

// responseBytes is the wire form of a response: ID, count, one rate byte
// per record.
func responseBytes(reqID uint32, rates []int32) []byte {
	resp := binary.LittleEndian.AppendUint32(nil, reqID)
	resp = binary.LittleEndian.AppendUint32(resp, uint32(len(rates)))
	for _, ri := range rates {
		resp = append(resp, uint8(ri))
	}
	return resp
}

// replayResponse feeds one payload to an in-process mirror the way a
// server with no burst loop would — one DecodeRequest, one Decide — and
// returns the response bytes, or ok=false for a malformed payload.
func replayResponse(mirror *Server, payload []byte) (resp []byte, ok bool) {
	ops, reqID, _, err := DecodeRequest(payload, nil)
	if err != nil {
		return nil, false
	}
	return responseBytes(reqID, mirror.Decide(ops, make([]int32, len(ops)))), true
}

// FuzzServeDatagrams throws arbitrary payload bursts at the burst engine
// and at the one serve loop behind every transport. The input is split
// into up to BurstSize payloads ([u16 len][bytes] framing), which covers
// bad version bytes, truncated records, retired framings and
// duplicate/stale request IDs by construction. Properties on every burst:
//
//   - the engine never panics and never desyncs: exactly the payloads
//     that decode cleanly are marked ok and get a response, malformed
//     ones only bump the drop counter;
//   - every ok payload's response is byte-identical to an in-process
//     replay: a mirror server fed the same payloads one DecodeRequest +
//     one Decide at a time produces the same ID echo, count, and rates
//     — batching a burst into one Decide is unobservable;
//   - counters add up (rx = payload count, drops = malformed count,
//     requests = well-formed count);
//   - the same burst written as one run of length-prefixed frames to a
//     served TCP connection is answered identically up to its first
//     malformed frame, which ends the connection;
//   - the same burst sent as datagrams to a served UDP socket has every
//     well-formed payload answered, in order, with the replay's bytes.
func FuzzServeDatagrams(f *testing.F) {
	v3 := AppendOpsV3(nil, 7, []linkstore.Op{
		{LinkID: 3, Algo: ctl.AlgoSampleRate, Kind: core.KindBER, RateIndex: 2, BER: 1e-6, Airtime: 5e-4, Delivered: true},
		{LinkID: 4, Kind: core.KindSilentLoss},
	})
	other := AppendOpsV3(nil, 8, []linkstore.Op{{LinkID: 2, Algo: ctl.AlgoRRAA, Kind: core.KindBER, BER: 1e-4, SNRdB: 11}})
	dup := AppendOpsV3(nil, 7, []linkstore.Op{{LinkID: 3, Kind: core.KindPostamble, RateIndex: 1}})
	v2 := AppendOpsV2(nil, []linkstore.Op{{LinkID: 2, Kind: core.KindBER, BER: 1e-4}})
	f.Add(packDatagrams(v3, other, dup))
	f.Add(packDatagrams(v3, dup, v3))                // duplicate/stale IDs in one burst
	f.Add(packDatagrams(v3[:len(v3)-1], v3))         // truncated record beside a good one
	f.Add(packDatagrams(v3, []byte{0x7f, 0, 0}, v3)) // bad version byte mid-burst
	f.Add(packDatagrams(nil, other, []byte{VersionV3}))
	f.Add(packDatagrams(v3, v2, make([]byte, 18), other)) // retired v2 and v1 framings

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := New(Config{Store: linkstore.Config{Shards: 4}})
		mirror := New(Config{Store: linkstore.Config{Shards: 4}})
		var payloads [][]byte
		for len(data) >= 2 && len(payloads) < BurstSize {
			n := int(binary.LittleEndian.Uint16(data[:2])) % 1024
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			payloads = append(payloads, data[:n])
			data = data[n:]
		}

		eng := newBurstEngine(srv, &srv.udp, true)
		eng.reset()
		for _, p := range payloads {
			eng.add(p)
		}
		eng.finish()

		dgs := eng.dgrams()
		if len(dgs) != len(payloads) {
			t.Fatalf("%d slots for %d payloads", len(dgs), len(payloads))
		}
		want := make([][]byte, len(payloads)) // nil = malformed
		wellFormed := 0
		for i := range dgs {
			resp, ok := replayResponse(mirror, payloads[i])
			if ok != dgs[i].ok {
				t.Fatalf("payload %d (%d bytes): engine ok=%v, in-process replay ok=%v", i, len(payloads[i]), dgs[i].ok, ok)
			}
			if !ok {
				continue
			}
			wellFormed++
			want[i] = resp
			if got := eng.response(&dgs[i]); !bytes.Equal(got, resp) {
				t.Fatalf("payload %d: burst response %x != in-process replay %x", i, got, resp)
			}
		}
		st := srv.udp.status()
		if int(st.DatagramsRx) != len(payloads) || int(st.Drops) != len(payloads)-wellFormed || int(st.Requests) != wellFormed {
			t.Fatalf("counters rx=%d drops=%d requests=%d, want %d, %d, %d",
				st.DatagramsRx, st.Drops, st.Requests, len(payloads), len(payloads)-wellFormed, wellFormed)
		}

		// The same burst over a served TCP connection: one Write, so the
		// loop finds the frames already buffered and gathers them as it
		// would a pipelined window. A fresh pair of servers, so the
		// decisions start from the same store state.
		remote := New(Config{Store: linkstore.Config{Shards: 4}})
		cli, peer := net.Pipe()
		done := make(chan struct{})
		go func() {
			remote.handleConn(peer)
			close(done)
		}()
		cli.SetDeadline(time.Now().Add(30 * time.Second))
		var stream, wantStream []byte
		for i, p := range payloads {
			stream = append(stream, frame(p)...)
			if want[i] == nil {
				break // the connection ends here
			}
			wantStream = append(wantStream, want[i]...)
		}
		go cli.Write(stream) // net.Pipe is unbuffered: write while reading
		got := make([]byte, len(wantStream))
		if _, err := io.ReadFull(cli, got); err != nil {
			t.Fatalf("tcp: reading %d response bytes: %v", len(wantStream), err)
		}
		if !bytes.Equal(got, wantStream) {
			t.Fatalf("tcp: responses %x != in-process replay %x", got, wantStream)
		}
		cli.Close()
		<-done

		// The same burst as datagrams from one client socket to a served
		// UDP socket, queued before the serve loop reads, so it drains them
		// as bursts of its own making. Malformed datagrams go unanswered;
		// the rest come back in order, the last an empty request that
		// proves the loop has read everything before it.
		sentinel := AppendOpsV3(nil, 1<<31, nil)
		payloads = append(payloads, sentinel)
		resp, _ := replayResponse(mirror, sentinel)
		want = append(want, resp)
		udpSrv := New(Config{Store: linkstore.Config{Shards: 4}})
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		for _, p := range payloads {
			if _, err := raw.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		served := make(chan error, 1)
		go func() { served <- udpSrv.ServeUDP(conn) }()
		raw.SetReadDeadline(time.Now().Add(30 * time.Second))
		buf := make([]byte, maxResponse)
		for i, w := range want {
			if w == nil {
				continue
			}
			n, err := raw.Read(buf)
			if err != nil {
				t.Fatalf("udp: reading the response to payload %d: %v", i, err)
			}
			if !bytes.Equal(buf[:n], w) {
				t.Fatalf("udp: payload %d answered %x, in-process replay %x", i, buf[:n], w)
			}
		}
		udpSrv.Close()
		if err := <-served; err != nil {
			t.Fatalf("ServeUDP: %v", err)
		}
	})
}

// TestBurstEngineZeroAlloc pins the tentpole perf property: a warm burst
// — metrics on, full BurstSize bursts — allocates nothing, both in the
// engine itself (reset/add/finish and reading back every response) and
// through the TCP transport's gather/send/flush around it.
func TestBurstEngineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	srv := New(Config{Store: linkstore.Config{Shards: 8}})
	rng := rand.New(rand.NewSource(42))
	payloads := make([][]byte, BurstSize)
	var stream []byte
	for i := range payloads {
		payloads[i] = AppendOpsV3(nil, uint32(i), randOps(rng, 48, 200))
		stream = append(stream, frame(payloads[i])...)
	}

	t.Run("engine", func(t *testing.T) {
		eng := newBurstEngine(srv, &srv.udp, true)
		burst := func() {
			eng.reset()
			for _, p := range payloads {
				eng.add(p)
			}
			eng.finish()
			for i := range eng.dgrams() {
				d := &eng.dgrams()[i]
				if !d.ok {
					t.Fatal("a pre-encoded payload failed to decode")
				}
				if len(eng.response(d)) == 0 {
					t.Fatal("empty response")
				}
			}
		}
		burst() // warm: size the reusable buffers, populate the link store
		if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
			t.Fatalf("warm burst path allocated %.1f times per burst, want 0", allocs)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		// A connection whose read side replays the same burst of frames
		// forever and whose write side discards: what a pipelined client
		// with a full window looks like to the transport.
		conn := &replayConn{stream: stream}
		tr := srv.newTCPTransport(conn)
		eng := newBurstEngine(srv, &srv.tcp, false)
		burst := func() {
			eng.reset()
			if err := tr.gather(eng, false); err != nil {
				t.Fatal(err)
			}
			if eng.n != BurstSize {
				t.Fatalf("gathered %d of the %d buffered frames", eng.n, BurstSize)
			}
			eng.finish()
			for i := range eng.dgrams() {
				d := &eng.dgrams()[i]
				if err := tr.send(d, eng.response(d)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.flush(false); err != nil {
				t.Fatal(err)
			}
		}
		burst()
		if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
			t.Fatalf("warm TCP burst allocated %.1f times per burst, want 0", allocs)
		}
		if conn.written == 0 {
			t.Fatal("no response bytes reached the connection")
		}
	})

	t.Run("udp", func(t *testing.T) {
		// A real loopback socket. Before each burst a client queues four
		// of the requests, which fit one drain's op budget; the burst
		// gathers what the socket holds, queues every response and sends
		// them in one flush, and the client reads them back.
		srvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer srvConn.Close()
		cli, err := net.DialUDP("udp", nil, srvConn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		tr, err := newUDPTransport(srvConn)
		if err != nil {
			t.Fatal(err)
		}
		eng := newBurstEngine(srv, &srv.udp, true)
		rbuf := make([]byte, maxResponse)
		const queued = 4
		burst := func() {
			for _, p := range payloads[:queued] {
				if _, err := cli.Write(p); err != nil {
					t.Fatal(err)
				}
			}
			for got := 0; got < queued; {
				eng.reset()
				if err := tr.gather(eng, false); err != nil {
					t.Fatal(err)
				}
				eng.finish()
				for i := range eng.dgrams() {
					d := &eng.dgrams()[i]
					if err := tr.send(d, eng.response(d)); err != nil {
						t.Fatal(err)
					}
				}
				if failed, err := tr.flush(false); err != nil || failed != 0 {
					t.Fatalf("flush: %d failed, %v", failed, err)
				}
				got += eng.n
			}
			cli.SetReadDeadline(time.Now().Add(5 * time.Second))
			for range queued {
				if _, err := cli.Read(rbuf); err != nil {
					t.Fatal(err)
				}
			}
		}
		burst()
		if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
			t.Fatalf("warm UDP burst allocated %.1f times per burst, want 0", allocs)
		}
	})
}

// replayConn is a net.Conn that reads one byte stream over and over, one
// whole copy per Read, and counts what is written to it.
type replayConn struct {
	net.Conn
	stream  []byte
	written int
}

func (c *replayConn) Read(p []byte) (int, error)       { return copy(p, c.stream), nil }
func (c *replayConn) Write(p []byte) (int, error)      { c.written += len(p); return len(p), nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) Close() error                     { return nil }
