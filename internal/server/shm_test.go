package server

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/linkstore"
	"softrate/internal/server/shmring"
)

// startSHM creates n ring regions under a temp prefix, serves them, and
// returns the prefix for clients to dial.
func startSHM(t *testing.T, srv *Server, n int) string {
	t.Helper()
	prefix := filepath.Join(t.TempDir(), "ring")
	regions := make([]*shmring.Region, n)
	for i := range regions {
		g, err := shmring.Create(RingPath(prefix, i), shmring.MinCapacity)
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = g
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeSHM(regions) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeSHM: %v", err)
		}
		for _, g := range regions {
			g.Close()
		}
	})
	return prefix
}

func TestRingPath(t *testing.T) {
	if p := RingPath("/x/ring", 0); p != "/x/ring" {
		t.Fatalf("ring 0 path %q", p)
	}
	if p := RingPath("/x/ring", 3); p != "/x/ring.3" {
		t.Fatalf("ring 3 path %q", p)
	}
}

// TestSHMMultiRingConcurrentClients runs one client per ring from
// separate goroutines, disjoint link cohorts, all against one serve
// loop — the co-located many-process shape, in-process.
func TestSHMMultiRingConcurrentClients(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 16}})
	const clients = 3
	prefix := startSHM(t, srv, clients)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := DialSHM(RingPath(prefix, c), 2, 5*time.Second)
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
				if _, err := cli.Decide(ops, out); err != nil {
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

// TestSHMOversizeBatchRefusedAtOnce: on a MinCapacity ring, a batch the
// ring cannot place even when empty — here 42 005 bytes, with earlier
// batches having moved the ring's offset to ~30 KiB, so it fits neither
// the tail remainder nor the space before it — must fail Submit at once
// on the message bound and leave the client usable, not spin out the
// timeout and poison it.
func TestSHMOversizeBatchRefusedAtOnce(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}})
	prefix := startSHM(t, srv, 1)
	cli, err := DialSHM(prefix, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rng := rand.New(rand.NewSource(5))
	out := make([]int32, 1500)
	for i := 0; i < 11; i++ {
		if _, err := cli.Decide(randOps(rng, 100, 1000), out); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if _, err := cli.Decide(randOps(rng, 1500, 1000), out); err == nil || !strings.Contains(err.Error(), "message bound") {
		t.Fatalf("1500-record batch on a %d-byte ring: err %v, want the message-bound refusal", shmring.MinCapacity, err)
	}
	if _, err := cli.Decide(randOps(rng, 100, 1000), out); err != nil {
		t.Fatalf("client unusable after the refused batch: %v", err)
	}
}

// TestSHMAttachExclusiveAndReclaim: one client per ring, enforced by the
// attach CAS; after a client closes, the serve loop reclaims the region
// and a new client can take its place.
func TestSHMAttachExclusiveAndReclaim(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}})
	prefix := startSHM(t, srv, 1)

	cli, err := DialSHM(prefix, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialSHM(prefix, 1, 5*time.Second); err == nil {
		t.Fatal("second DialSHM on a held ring succeeded")
	}
	out := make([]int32, 1)
	if _, err := cli.Decide([]linkstore.Op{{LinkID: 1, Kind: core.KindSilentLoss}}, out); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	// The serve loop reclaims the region on its next sweep; a fresh
	// client attaches once it has.
	deadline := time.Now().Add(5 * time.Second)
	var cli2 *SHMClient
	for {
		if cli2, err = DialSHM(prefix, 1, 5*time.Second); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never reclaimed: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	defer cli2.Close()
	if _, err := cli2.Decide([]linkstore.Op{{LinkID: 2, Kind: core.KindSilentLoss}}, out); err != nil {
		t.Fatalf("reclaimed ring does not serve: %v", err)
	}
}

// TestSHMAbandonedResponseCountedOnce: a client that detaches with
// responses outstanding leaves the server holding responses it cannot
// push. Each is one transmit error — not an error and a transmit — so
// tx + tx_errors is exactly the responses the server attempted.
func TestSHMAbandonedResponseCountedOnce(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}})
	prefix := startSHM(t, srv, 1)
	g, err := shmring.Open(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Attach() {
		t.Fatal("fresh ring refused the attach")
	}
	// Nobody reads the response ring, so after ~120 of these 508-byte
	// responses it is full and the server spins in send — at which point
	// it stops reading requests and the request ring jams too.
	rng := rand.New(rand.NewSource(8))
	stalled := false
	for i := 0; i < 400 && !stalled; i++ {
		payload := AppendOpsV3(nil, uint32(i), randOps(rng, 500, 500))
		for since := time.Now(); !g.Request().Push(payload); time.Sleep(50 * time.Microsecond) {
			if stalled = time.Since(since) > 200*time.Millisecond; stalled {
				break
			}
		}
	}
	if !stalled {
		t.Fatal("the server never stalled on the full response ring")
	}
	g.ClientClose() // detach with responses outstanding
	deadline := time.Now().Add(5 * time.Second)
	for srv.Status().SHM.RingsAttached != 0 {
		if time.Now().After(deadline) {
			t.Fatal("ring never reclaimed")
		}
		time.Sleep(time.Millisecond)
	}
	g.Close()
	st := srv.Status().SHM
	if st.TxErrors == 0 {
		t.Fatalf("no response was abandoned: %+v", st)
	}
	if st.DatagramsTx+st.TxErrors != st.Requests {
		t.Fatalf("tx %d + tx_errors %d != %d responses attempted", st.DatagramsTx, st.TxErrors, st.Requests)
	}
}

// TestDialSHMRejectsGarbageFile: a non-region file is refused by header
// validation, not attached to.
func TestDialSHMRejectsGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notaring")
	if err := os.WriteFile(path, make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DialSHM(path, 1, time.Second); err == nil {
		t.Fatal("DialSHM accepted a garbage file")
	}
}

// BenchmarkSHMDecideRoundTrip guards the client's warm polling path: on
// a live server a round trip completes inside the clock-free spin tier,
// so Submit/Wait should read the wall clock zero times per decision. A
// time.Now() creeping back into the per-spin loops shows up here as a
// step change in ns/op.
func BenchmarkSHMDecideRoundTrip(b *testing.B) {
	srv := New(Config{Store: linkstore.Config{Shards: 32}})
	path := filepath.Join(b.TempDir(), "ring")
	g, err := shmring.Create(path, shmring.MinCapacity)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeSHM([]*shmring.Region{g}) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			b.Errorf("ServeSHM: %v", err)
		}
		g.Close()
	}()
	cli, err := DialSHM(path, 1, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	rng := rand.New(rand.NewSource(7))
	ops := randOps(rng, 64, 200)
	out := make([]int32, len(ops))
	if _, err := cli.Decide(ops, out); err != nil { // warm the rings
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Decide(ops, out); err != nil {
			b.Fatal(err)
		}
	}
}
