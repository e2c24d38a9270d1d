package server

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"softrate/internal/core"
	"softrate/internal/linkstore"
)

// misbehavingServer accepts one connection, answers its first request
// with a response claiming the wrong record count, and keeps the
// connection open so the stray bytes stay on the wire.
func misbehavingServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		ops, reqID, _, err := DecodeRequest(payload, nil)
		if err != nil {
			return
		}
		// Claim one extra record and send that many rate bytes.
		resp := make([]byte, 8+len(ops)+1)
		binary.LittleEndian.PutUint32(resp[0:4], reqID)
		binary.LittleEndian.PutUint32(resp[4:8], uint32(len(ops)+1))
		conn.Write(resp)
		// Hold the connection open until the test finishes.
		io.ReadFull(conn, hdr[:])
	}()
	return l.Addr().String()
}

// TestClientPoisonedAfterDesync is the desync-after-error fix: a response
// whose count disagrees with the request leaves unread bytes on the wire,
// so the client must fail that call AND refuse all later ones rather than
// resynchronizing on garbage.
func TestClientPoisonedAfterDesync(t *testing.T) {
	addr := misbehavingServer(t)
	cli, err := DialPipelined(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ops := []linkstore.Op{{LinkID: 1, Kind: core.KindSilentLoss}, {LinkID: 2, Kind: core.KindSilentLoss}}
	out := make([]int32, len(ops))
	if _, err := cli.Decide(ops, out); err == nil {
		t.Fatal("count-mismatched response accepted")
	} else if strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("first error should be the root cause, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cli.Decide(ops, out); err == nil {
			t.Fatal("poisoned client served a call")
		} else if !strings.Contains(err.Error(), "poisoned") {
			t.Fatalf("call %d after poisoning returned %v, want the sticky poison error", i, err)
		}
	}
}

// TestCodecV3RoundTrip pins the request framing: its length class, the
// request ID round trip, and that payloads shaped like the retired v1 and
// v2 framings are errors, never ops.
func TestCodecV3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ops := randOps(rng, 100, 1<<40)
	buf := AppendOpsV3(nil, 0xdeadbeef, ops)
	if want := headerSizeV3 + len(ops)*RecordSizeV2; len(buf) != want {
		t.Fatalf("encoded %d bytes, want %d", len(buf), want)
	}
	got, reqID, tagged, err := DecodeRequest(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tagged || reqID != 0xdeadbeef {
		t.Fatalf("decoded tagged=%v reqID=%#x, want true/0xdeadbeef", tagged, reqID)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !opsEqual(got[i], ops[i]) {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
	// dst is reused, and a decode that fails leaves nothing behind.
	if again, _, _, err := DecodeRequest(buf, got); err != nil || &again[0] != &got[0] {
		t.Fatalf("decode into a sufficient dst reallocated (err %v)", err)
	}
	v1 := make([]byte, 18*14) // 14 v1 records: 252 bytes, not 5+28n
	v2 := AppendOpsV2(nil, ops)
	v3len := append([]byte{VersionV2}, make([]byte, headerSizeV3-1+RecordSizeV2)...) // request-sized, v2-led
	for name, p := range map[string][]byte{"v1": v1, "v2": v2, "v2-led request": v3len} {
		if ops, id, tagged, err := DecodeRequest(p, nil); err == nil || tagged || id != 0 || len(ops) != 0 {
			t.Fatalf("%s-shaped payload through DecodeRequest: %d ops id=%d tagged=%v err=%v", name, len(ops), id, tagged, err)
		}
	}
}
