package shmring

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func newRegion(t *testing.T, capacity int) *Region {
	t.Helper()
	g, err := Create(filepath.Join(t.TempDir(), "ring"), capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestRingRoundTrip(t *testing.T) {
	g := newRegion(t, MinCapacity)
	r := g.Request()
	if _, ok := r.Peek(); ok {
		t.Fatal("fresh ring is not empty")
	}
	msgs := [][]byte{
		[]byte("a"),
		[]byte("four"),
		{},
		bytes.Repeat([]byte{0xab}, 1000),
	}
	for _, m := range msgs {
		if !r.Push(m) {
			t.Fatalf("Push(%d bytes) failed on an empty ring", len(m))
		}
	}
	for i, want := range msgs {
		got, ok := r.Peek()
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: %q != %q", i, got, want)
		}
		r.Advance()
	}
	if _, ok := r.Peek(); ok {
		t.Fatal("drained ring is not empty")
	}
}

// TestRingWrapMarker forces the wrap path: fill so the next message does
// not fit in the tail remainder, then check it arrives intact from
// offset 0 and that space accounting (marker included) stays exact.
func TestRingWrapMarker(t *testing.T) {
	g := newRegion(t, MinCapacity)
	r := g.Request()
	msg := bytes.Repeat([]byte{0x5a}, 1000)
	// March the cursors close to the end of the ring.
	for uint64(len(r.data))-(r.tail.Load()&r.mask) > uint64(len(msg)) {
		if !r.Push(msg) {
			t.Fatal("Push failed with the ring being drained in lockstep")
		}
		if _, ok := r.Peek(); !ok {
			t.Fatal("Peek failed in lockstep drain")
		}
		r.Advance()
	}
	// Now rem < need: this Push writes a wrap marker and restarts at 0.
	big := bytes.Repeat([]byte{0xc3}, 2000)
	if !r.Push(big) {
		t.Fatal("wrapping Push failed on an otherwise empty ring")
	}
	got, ok := r.Peek()
	if !ok || !bytes.Equal(got, big) {
		t.Fatalf("message lost or corrupted across the wrap (ok=%v, %d bytes)", ok, len(got))
	}
	if off := r.head.Load() & r.mask; off != 0 {
		t.Fatalf("head at data offset %d after skipping the marker, want 0 (message restarted)", off)
	}
	r.Advance()
	if r.head.Load() != r.tail.Load() {
		t.Fatal("cursors disagree after draining the wrapped message")
	}
}

func TestRingFullRejectsAndRecovers(t *testing.T) {
	g := newRegion(t, MinCapacity)
	r := g.Request()
	msg := bytes.Repeat([]byte{1}, r.MaxMessage())
	pushed := 0
	for r.Push(msg) {
		pushed++
		if pushed > MinCapacity {
			t.Fatal("ring never filled")
		}
	}
	if pushed < 3 {
		t.Fatalf("only %d MaxMessage payloads fit, capacity accounting is off", pushed)
	}
	// Drain one message; the same push must now succeed.
	if _, ok := r.Peek(); !ok {
		t.Fatal("full ring has nothing to peek")
	}
	r.Advance()
	if !r.Push(msg) {
		t.Fatal("Push still fails after freeing a same-sized message")
	}
}

// TestMaxMessageFitsEmptyRingAtEveryOffset pins the bound a client sizes
// its requests by: an empty ring takes a MaxMessage payload at every
// 4-byte offset, wrap marker included.
func TestMaxMessageFitsEmptyRingAtEveryOffset(t *testing.T) {
	g := newRegion(t, MinCapacity)
	r := g.Request()
	msg := bytes.Repeat([]byte{7}, r.MaxMessage())
	for at := uint64(0); at < MinCapacity; at += 4 {
		r.head.Store(at)
		r.tail.Store(at)
		if !r.Push(msg) {
			t.Fatalf("empty ring at offset %d refused a %d-byte message", at, len(msg))
		}
		if got, ok := r.Peek(); !ok || len(got) != len(msg) {
			t.Fatalf("offset %d: peeked %d bytes (ok %v), want %d", at, len(got), ok, len(msg))
		}
		r.Advance()
	}
}

// TestRingSPSCConcurrent hammers one ring with a real producer/consumer
// pair — under -race this also proves the publish discipline (payload
// bytes before the tail store) has no data race.
func TestRingSPSCConcurrent(t *testing.T) {
	g := newRegion(t, MinCapacity)
	r := g.Request()
	const total = 20000
	errc := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 512)
		for i := 0; i < total; i++ {
			n := 4 + rng.Intn(500)
			binary.LittleEndian.PutUint32(buf[:4], uint32(i))
			for !r.Push(buf[:n]) {
			}
		}
		errc <- nil
	}()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < total; i++ {
		var payload []byte
		for {
			var ok bool
			if payload, ok = r.Peek(); ok {
				break
			}
		}
		wantN := 4 + rng.Intn(500)
		if len(payload) != wantN {
			t.Fatalf("message %d: %d bytes, want %d", i, len(payload), wantN)
		}
		if got := binary.LittleEndian.Uint32(payload[:4]); got != uint32(i) {
			t.Fatalf("message %d carries sequence %d: reordered or corrupted", i, got)
		}
		r.Advance()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestCreateRejectsBadCapacity(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []int{MinCapacity / 2, MinCapacity + 1, 3 * MinCapacity} {
		if g, err := Create(filepath.Join(dir, "bad"), c); err == nil {
			g.Close()
			t.Fatalf("Create accepted capacity %d", c)
		}
	}
}

func TestOpenValidatesHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring")
	g, err := Create(path, MinCapacity)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	o, err := Open(path)
	if err != nil {
		t.Fatalf("Open of a valid region: %v", err)
	}
	o.Close()

	// Too small, bad magic, size/capacity mismatch: all rejected.
	short := filepath.Join(t.TempDir(), "short")
	writeFile(t, short, make([]byte, 100))
	if _, err := Open(short); err == nil {
		t.Fatal("Open accepted a file smaller than the header")
	}
	noMagic := filepath.Join(t.TempDir(), "nomagic")
	writeFile(t, noMagic, make([]byte, headerBytes+2*MinCapacity))
	if _, err := Open(noMagic); err == nil {
		t.Fatal("Open accepted a zeroed file (no magic)")
	}
	truncated := filepath.Join(t.TempDir(), "trunc")
	hdr := make([]byte, headerBytes+MinCapacity) // header claims 2x this
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[offCap:], MinCapacity)
	writeFile(t, truncated, hdr)
	if _, err := Open(truncated); err == nil {
		t.Fatal("Open accepted a capacity/size mismatch")
	}
}

func TestAttachLifecycle(t *testing.T) {
	g := newRegion(t, MinCapacity)
	if g.State() != StateFree {
		t.Fatalf("fresh region state %d, want free", g.State())
	}
	if !g.Attach() {
		t.Fatal("Attach failed on a free region")
	}
	if g.Attach() {
		t.Fatal("second Attach succeeded on a held region")
	}
	if g.Reclaim() {
		t.Fatal("Reclaim succeeded while the client is attached")
	}
	// Leave some garbage in the rings; reclaim must reset it.
	g.Request().Push([]byte("stale"))
	g.Response().Push([]byte("stale"))
	g.ClientClose()
	if g.State() != StateClosing {
		t.Fatalf("state %d after ClientClose, want closing", g.State())
	}
	if !g.Reclaim() {
		t.Fatal("Reclaim failed on a closing region")
	}
	if g.State() != StateFree {
		t.Fatalf("state %d after Reclaim, want free", g.State())
	}
	if _, ok := g.Request().Peek(); ok {
		t.Fatal("reclaimed request ring still holds a message")
	}
	if !g.Attach() {
		t.Fatal("Attach failed on a reclaimed region")
	}
}

func TestDrainingFlag(t *testing.T) {
	g := newRegion(t, MinCapacity)
	if g.Draining() {
		t.Fatal("fresh region is draining")
	}
	g.SetDraining()
	if !g.Draining() {
		t.Fatal("SetDraining did not stick")
	}
}

// TestTwoMappingsShareState maps the same file twice — the in-process
// stand-in for two processes — and checks messages and attach state flow
// across mappings.
func TestTwoMappingsShareState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring")
	srv, err := Create(path, MinCapacity)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if !cli.Attach() {
		t.Fatal("client mapping failed to attach")
	}
	if srv.State() != StateAttached {
		t.Fatal("attach not visible through the server mapping")
	}
	if !cli.Request().Push([]byte("hello")) {
		t.Fatal("push through the client mapping failed")
	}
	got, ok := srv.Request().Peek()
	if !ok || string(got) != "hello" {
		t.Fatalf("server mapping sees %q, %v", got, ok)
	}
	srv.Request().Advance()
	if !srv.Response().Push([]byte("world")) {
		t.Fatal("response push failed")
	}
	got, ok = cli.Response().Peek()
	if !ok || string(got) != "world" {
		t.Fatalf("client mapping sees %q, %v", got, ok)
	}
	cli.Response().Advance()
	srv.SetDraining()
	if !cli.Draining() {
		t.Fatal("draining flag not visible through the client mapping")
	}
}

func TestCloseIsTerminal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring")
	g, err := Create(path, MinCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != ErrClosed {
		t.Fatalf("double Close returned %v, want ErrClosed", err)
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
