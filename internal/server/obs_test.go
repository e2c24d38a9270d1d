package server

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/obs"
)

// churnOps builds a deterministic batch of feedback ops across nLinks
// links of one algorithm (ctl.AlgoDefault for the store default).
func churnOps(rng *rand.Rand, algo ctl.Algo, nLinks, batch int, base uint64) []linkstore.Op {
	ops := make([]linkstore.Op, batch)
	for i := range ops {
		ops[i] = linkstore.Op{
			LinkID:    base + uint64(rng.Intn(nLinks)),
			Algo:      algo,
			Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
			RateIndex: int32(rng.Intn(8)),
			BER:       rng.Float64() * 1e-3,
			SNRdB:     float32(5 + rng.Float64()*25),
			Airtime:   float32(rng.Float64() * 1e-3),
			Delivered: rng.Intn(2) == 0,
		}
	}
	return ops
}

// TestStatusReadsDuringDecideChurn hammers Status/Stats/WritePrometheus
// from reader goroutines while writers churn Decide — the satellite -race
// requirement — and then checks the final snapshot is exact.
func TestStatusReadsDuringDecideChurn(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 8, TTL: 20 * time.Millisecond}})
	const (
		writers  = 4
		batches  = 300
		batchLen = 64
	)
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				st := srv.Status()
				if st.Frames < st.Batches {
					t.Errorf("snapshot: %d frames < %d batches", st.Frames, st.Batches)
					return
				}
				srv.WritePrometheus(io.Discard)
				_ = srv.Stats()
			}
		}()
	}

	algos := []ctl.Algo{ctl.AlgoDefault, 2, 3, 4, 5}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			out := make([]int32, batchLen)
			for b := 0; b < batches; b++ {
				algo := algos[b%len(algos)]
				ops := churnOps(rng, algo, 500, batchLen, uint64(w+1)<<32)
				srv.Decide(ops, out)
			}
		}(w)
	}
	writersWG.Wait()
	stop.Store(true)
	readers.Wait()

	st := srv.Status()
	if want := uint64(writers * batches * batchLen); st.Frames != want {
		t.Fatalf("final frames %d, want %d", st.Frames, want)
	}
	if want := uint64(writers * batches); st.Batches != want {
		t.Fatalf("final batches %d, want %d", st.Batches, want)
	}
	var kindSum, algoFrames, algoBatches, latCount uint64
	for _, n := range st.Kinds {
		kindSum += n
	}
	for _, as := range st.Algos {
		algoFrames += as.Frames
		algoBatches += as.Batches
		latCount += as.BatchLatency.Count
		if as.OpLatency.Count != as.Frames {
			t.Fatalf("algo %s: op-latency count %d != frames %d", as.Algo, as.OpLatency.Count, as.Frames)
		}
	}
	if kindSum != st.Frames || algoFrames != st.Frames {
		t.Fatalf("kind sum %d / algo frames %d, want %d", kindSum, algoFrames, st.Frames)
	}
	if algoBatches != st.Batches || latCount != st.Batches {
		t.Fatalf("algo batches %d / latency count %d, want %d", algoBatches, latCount, st.Batches)
	}
}

// TestAdminEnabledByteIdentical replays one op sequence against two
// servers — one bare, one with its admin plane served over HTTP and
// polled as fast as a goroutine can — and requires byte-identical
// decisions: the ops plane must be invisible to the dataplane.
func TestAdminEnabledByteIdentical(t *testing.T) {
	mk := func() *Server {
		return New(Config{Store: linkstore.Config{Shards: 8, TTL: 10 * time.Millisecond}})
	}
	plain, admin := mk(), mk()

	a := &obs.Admin{Status: func() any { return admin.Status() }, Metrics: admin.WritePrometheus}
	hts := httptest.NewServer(a.Mux())
	defer hts.Close()
	var stop atomic.Bool
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for !stop.Load() {
			for _, p := range []string{"/statusz", "/metrics", "/healthz"} {
				resp, err := hts.Client().Get(hts.URL + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	rng := rand.New(rand.NewSource(7))
	outA := make([]int32, 128)
	outB := make([]int32, 128)
	mismatches := 0
	for b := 0; b < 400; b++ {
		algo := ctl.Algo(b % 6) // AlgoDefault plus every registered ID
		ops := churnOps(rng, algo, 300, 128, 1)
		plain.Decide(ops, outA)
		admin.Decide(ops, outB)
		for i := range ops {
			if outA[i] != outB[i] {
				mismatches++
			}
		}
		if b%50 == 0 {
			time.Sleep(time.Millisecond) // let TTL eviction interleave differently
		}
	}
	stop.Store(true)
	poller.Wait()
	if mismatches != 0 {
		t.Fatalf("%d decisions differ between admin-polled and bare servers", mismatches)
	}
}

// TestDecideDoesNotAllocateSteadyState pins the hard constraint: with
// metrics recording always on, a warm Decide is 0 allocs/op — for the
// SoftRate inline fast path, the in-place wide-state path, and a
// mixed-algorithm batch (the mixed metric slot).
func TestDecideDoesNotAllocateSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	cases := []struct {
		name  string
		algos []ctl.Algo
	}{
		{"softrate", []ctl.Algo{ctl.AlgoSoftRate}},
		{"samplerate_inplace", []ctl.Algo{2}},
		{"mixed_all_algos", []ctl.Algo{1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{Store: linkstore.Config{Shards: 8, ExpectedLinks: 512}})
			rng := rand.New(rand.NewSource(3))
			ops := make([]linkstore.Op, 128)
			for i := range ops {
				ops[i] = linkstore.Op{
					LinkID:    uint64(1 + rng.Intn(256)),
					Algo:      tc.algos[i%len(tc.algos)],
					Kind:      core.KindBER,
					RateIndex: int32(rng.Intn(8)),
					BER:       rng.Float64() * 1e-4,
					SNRdB:     20,
					Airtime:   1e-4,
					Delivered: true,
				}
			}
			out := make([]int32, len(ops))
			for warm := 0; warm < 3; warm++ {
				srv.Decide(ops, out)
			}
			if n := testing.AllocsPerRun(50, func() { srv.Decide(ops, out) }); n != 0 {
				t.Fatalf("Decide allocates %v per batch in steady state, want 0", n)
			}
		})
	}
}

// TestTransportCounters serves a request and a violation over TCP and a
// request over UDP, then checks each transport's own counters and the
// exposition.
func TestTransportCounters(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 4}})
	addr := startTCP(t, srv)
	uaddr := startUDP(t, srv)

	ops := []linkstore.Op{{LinkID: 9, Kind: core.KindBER, RateIndex: 3, BER: 1e-5}}
	out := make([]int32, 1)
	cli, err := DialPipelined(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Decide(ops, out); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	ucli, err := DialUDP(uaddr, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ucli.Decide(ops, out); err != nil || !ok {
		t.Fatalf("udp decide: ok=%v err=%v", ok, err)
	}
	ucli.Close()

	// Framing violation: an oversized length prefix.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(binary.LittleEndian.AppendUint32(nil, maxPayload+1))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection after an oversized prefix")
	}
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := srv.Status()
		ts := st.Transport
		if ts.Requests == 1 && ts.Bursts == 1 && ts.FramingErrors == 1 && ts.ConnsAccepted == 2 &&
			st.UDP.Requests == 1 && st.SHM.Requests == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transport counters never converged: %+v udp %+v", ts, st.UDP)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var sb strings.Builder
	srv.WritePrometheus(&sb)
	for _, want := range []string{
		"softrated_requests_total 1",
		"softrated_bursts_total 1",
		"softrated_udp_requests_total 1",
		"softrated_shm_requests_total 0",
		"softrated_framing_errors_total 1",
		"softrated_conns_accepted_total 2",
		"softrated_batch_latency_seconds_bucket",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDefaultServerExportsColdTier: a server built with no configuration
// at all still has a cold tier (in memory), so /statusz carries its block
// and /metrics its families, reading zero before anything idles out.
func TestDefaultServerExportsColdTier(t *testing.T) {
	srv := New(Config{})
	if c := srv.Status().Store.Cold; c == nil || c.Links != 0 || c.Spills != 0 {
		t.Fatalf("default server's cold block: %+v, want present and empty", c)
	}
	var sb strings.Builder
	srv.WritePrometheus(&sb)
	for _, want := range []string{
		"\nsoftrated_cold_links 0\n",
		"\nsoftrated_cold_spilled_links_total 0\n",
		"\nsoftrated_cold_compaction_failures_total 0\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}
