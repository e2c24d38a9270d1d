package server

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/linkstore"
)

// frame prefixes a payload with the uint32 length header the TCP
// transport uses.
func frame(payload []byte) []byte {
	b := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	copy(b[4:], payload)
	return b
}

// FuzzServeFraming feeds an arbitrary byte stream to a served connection
// and checks the transport contract above the codec:
//
//   - the handler never panics, whatever the peer sends;
//   - every well-formed request in the prefix before the first protocol
//     violation is answered in order, the response echoes its request ID,
//     the count matches the batch, and the rate bytes equal an in-process
//     replay's decisions;
//   - at the first violation (oversized length, undecodable payload) the
//     connection is dropped without taking the server down: a fresh
//     connection is served and continues from the same store state.
func FuzzServeFraming(f *testing.F) {
	opsA := []linkstore.Op{{LinkID: 1, Kind: core.KindBER, RateIndex: 3, BER: 1e-5}}
	opsB := []linkstore.Op{{LinkID: 1, Kind: core.KindSilentLoss}, {LinkID: 2, Kind: core.KindPostamble, RateIndex: 2}}
	v3a := AppendOpsV3(nil, 7, opsA)
	v3b := AppendOpsV3(nil, 8, opsB)
	oversized := make([]byte, 4)
	binary.LittleEndian.PutUint32(oversized, maxPayload+1)

	f.Add(frame(v3a))
	f.Add(append(frame(v3a), frame(v3b)...))
	f.Add(append(frame(v3b), frame(AppendOpsV2(nil, opsB))...)) // drop on a retired framing
	f.Add(append(frame(v3a), oversized...))                     // drop on length
	f.Add(append(frame(v3a), frame([]byte{1, 2, 3})...))        // drop on decode
	f.Add(frame(v3a)[:7])                                       // truncated mid-payload
	f.Add(frame(nil))                                           // empty payload: not a request
	f.Add(frame(AppendOpsV3(nil, 0xffffffff, nil)))             // empty batch

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<15 {
			data = data[:1<<15]
		}
		remote := New(Config{Store: linkstore.Config{Shards: 4}})
		local := New(Config{Store: linkstore.Config{Shards: 4}})

		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			remote.handleConn(srv)
			close(done)
		}()
		cli.SetDeadline(time.Now().Add(30 * time.Second))

		// Walk the stream with the same parse the handler runs. Each
		// complete well-formed frame goes out in its own Write, so the
		// server sees an empty read buffer after serving it and must
		// flush the response before we send the next frame.
		rest := data
		for len(rest) >= 4 {
			n := binary.LittleEndian.Uint32(rest[:4])
			if n > maxPayload {
				break // the server drops the connection on this header
			}
			if uint64(len(rest)-4) < uint64(n) {
				break // incomplete trailing frame
			}
			payload := rest[4 : 4+int(n)]
			ops, reqID, _, err := DecodeRequest(payload, nil)
			if err != nil {
				break // the server drops after consuming this frame
			}
			fr := rest[:4+int(n)]
			rest = rest[4+int(n):]
			if _, err := cli.Write(fr); err != nil {
				t.Fatalf("write of a well-formed frame failed: %v", err)
			}
			want := local.Decide(ops, make([]int32, len(ops)))
			resp := make([]byte, 8+len(ops))
			if _, err := io.ReadFull(cli, resp); err != nil {
				t.Fatalf("reading the response for a well-formed frame: %v", err)
			}
			if got := binary.LittleEndian.Uint32(resp[:4]); got != reqID {
				t.Fatalf("response echoed request ID %d, want %d", got, reqID)
			}
			if got := binary.LittleEndian.Uint32(resp[4:8]); got != uint32(len(ops)) {
				t.Fatalf("response count %d for a batch of %d", got, len(ops))
			}
			for i := range ops {
				if int32(resp[8+i]) != want[i] {
					t.Fatalf("op %d: remote rate %d != in-process replay %d", i, resp[8+i], want[i])
				}
			}
		}
		// Whatever remains is an oversized header, an undecodable payload
		// or a truncated frame. The write may race the server's drop (a
		// closed pipe mid-write is fine); the handler must just exit.
		if len(rest) > 0 {
			cli.Write(rest)
		}
		cli.Close()
		<-done

		// Recovery: dropping one misbehaving peer must not take the
		// service down or corrupt its state. A fresh connection is served
		// and its decisions continue from where the in-process replay is.
		cli2, srv2 := net.Pipe()
		done2 := make(chan struct{})
		go func() {
			remote.handleConn(srv2)
			close(done2)
		}()
		cli2.SetDeadline(time.Now().Add(30 * time.Second))
		probe := []linkstore.Op{{LinkID: 1, Kind: core.KindSilentLoss}}
		if _, err := cli2.Write(frame(AppendOpsV3(nil, 42, probe))); err != nil {
			t.Fatalf("probe on a fresh connection failed to send: %v", err)
		}
		var resp [9]byte
		if _, err := io.ReadFull(cli2, resp[:]); err != nil {
			t.Fatalf("no response on a fresh connection after a dropped peer: %v", err)
		}
		if id := binary.LittleEndian.Uint32(resp[:4]); id != 42 {
			t.Fatalf("fresh connection echoed request ID %d, want 42", id)
		}
		if count := binary.LittleEndian.Uint32(resp[4:8]); count != 1 {
			t.Fatalf("fresh connection response count %d, want 1", count)
		}
		if want := local.Decide(probe, make([]int32, 1)); int32(resp[8]) != want[0] {
			t.Fatalf("fresh connection rate %d != in-process replay %d", resp[8], want[0])
		}
		cli2.Close()
		<-done2
	})
}

// FuzzClientPipelinedResponses feeds an arbitrary response stream to a
// TCP Client with two batches in flight and checks the client-side half
// of the lossless contract:
//
//   - no panic on any stream;
//   - a stream that is exactly the two in-order responses (IDs 0 and 1,
//     correct counts) yields each batch's rate bytes unchanged;
//   - anything else fails the Wait with the root-cause error, and every
//     later call on the client fails fast with the sticky poison error
//     rather than resynchronizing on garbage;
//   - a fresh client (the documented re-dial recovery) works against a
//     real server.
func FuzzClientPipelinedResponses(f *testing.F) {
	const n1, n2 = 3, 2
	respFor := func(id uint32, rates ...byte) []byte {
		b := make([]byte, 8, 8+len(rates))
		binary.LittleEndian.PutUint32(b[:4], id)
		binary.LittleEndian.PutUint32(b[4:], uint32(len(rates)))
		return append(b, rates...)
	}
	good := append(respFor(0, 1, 2, 3), respFor(1, 4, 0)...)
	f.Add(good)
	f.Add(good[:10]) // truncated rates
	f.Add([]byte{})
	f.Add(respFor(9, 1, 2, 3))                        // wrong request ID
	f.Add(append(respFor(0, 1, 2), respFor(1, 4)...)) // wrong counts
	f.Add(good[:8])

	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 1<<12 {
			stream = stream[:1<<12]
		}
		cliConn, srvConn := net.Pipe()
		cliConn.SetDeadline(time.Now().Add(30 * time.Second))

		// Fake peer: drain every request byte, push the fuzzed response
		// stream, then hang up so a client expecting more bytes sees EOF
		// instead of blocking.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, srvConn)
		}()
		go func() {
			defer wg.Done()
			srvConn.Write(stream)
			srvConn.Close()
		}()

		cli := newStreamClient(cliConn, 2)
		mkOps := func(n int) []linkstore.Op {
			ops := make([]linkstore.Op, n)
			for i := range ops {
				ops[i] = linkstore.Op{LinkID: uint64(i + 1), Kind: core.KindSilentLoss}
			}
			return ops
		}
		ops1, ops2 := mkOps(n1), mkOps(n2)
		p1, err := cli.Submit(ops1)
		if err != nil {
			t.Fatalf("first Submit (pure buffering) failed: %v", err)
		}
		p2, err := cli.Submit(ops2)
		if err != nil {
			t.Fatalf("second Submit (pure buffering) failed: %v", err)
		}

		// Oracle: mirror Wait's parse of one response off the stream.
		expect := func(s []byte, id uint32, n int) (rates, rest []byte, ok bool) {
			if len(s) < 8 {
				return nil, nil, false
			}
			if binary.LittleEndian.Uint32(s[:4]) != id ||
				binary.LittleEndian.Uint32(s[4:8]) != uint32(n) ||
				len(s) < 8+n {
				return nil, nil, false
			}
			return s[8 : 8+n], s[8+n:], true
		}

		out := make([]int32, 4)
		want1, rest, ok1 := expect(stream, 0, n1)
		got1, err1 := cli.Wait(p1, out)
		poisoned := false
		switch {
		case ok1 && err1 != nil:
			t.Fatalf("Wait(p1) failed on a conforming response: %v", err1)
		case !ok1 && err1 == nil:
			t.Fatal("Wait(p1) accepted a malformed response")
		case err1 != nil:
			if strings.Contains(err1.Error(), "poisoned") {
				t.Fatalf("first error should be the root cause, got %v", err1)
			}
			poisoned = true
		default:
			for i := 0; i < n1; i++ {
				if got1[i] != int32(want1[i]) {
					t.Fatalf("Wait(p1) rate %d: got %d, want %d", i, got1[i], want1[i])
				}
			}
			want2, _, ok2 := expect(rest, 1, n2)
			got2, err2 := cli.Wait(p2, out)
			switch {
			case ok2 && err2 != nil:
				t.Fatalf("Wait(p2) failed on a conforming response: %v", err2)
			case !ok2 && err2 == nil:
				t.Fatal("Wait(p2) accepted a malformed response")
			case err2 != nil:
				poisoned = true
			default:
				for i := 0; i < n2; i++ {
					if got2[i] != int32(want2[i]) {
						t.Fatalf("Wait(p2) rate %d: got %d, want %d", i, got2[i], want2[i])
					}
				}
			}
		}
		if poisoned {
			// Sticky poison: every later call fails fast with the wrapped
			// first error — Wait, Submit and Decide alike.
			if _, err := cli.Wait(p2, out); err == nil || !strings.Contains(err.Error(), "poisoned") {
				t.Fatalf("Wait after poisoning returned %v, want the sticky poison error", err)
			}
			if _, err := cli.Submit(ops1); err == nil || !strings.Contains(err.Error(), "poisoned") {
				t.Fatalf("Submit after poisoning returned %v, want the sticky poison error", err)
			}
			if _, err := cli.Decide(ops1, out); err == nil || !strings.Contains(err.Error(), "poisoned") {
				t.Fatalf("Decide after poisoning returned %v, want the sticky poison error", err)
			}
		}
		cliConn.Close()
		wg.Wait()

		if poisoned {
			// Documented recovery path: dial again. A fresh client against
			// a real served connection must work.
			remote := New(Config{Store: linkstore.Config{Shards: 2}})
			c2, s2 := net.Pipe()
			done := make(chan struct{})
			go func() {
				remote.handleConn(s2)
				close(done)
			}()
			c2.SetDeadline(time.Now().Add(30 * time.Second))
			fresh := newStreamClient(c2, 2)
			if _, err := fresh.Decide(ops1, out); err != nil {
				t.Fatalf("fresh client after poisoning failed: %v", err)
			}
			c2.Close()
			<-done
		}
	})
}
