package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

// randOps draws n ops over the link IDs [0, links). links is an int64 so
// that ID spaces past 32 bits compile on 32-bit platforms too; the IDs
// are the draws rng.Intn(links) makes on 64-bit ones.
func randOps(rng *rand.Rand, n int, links int64) []linkstore.Op {
	ops := make([]linkstore.Op, n)
	for i := range ops {
		var id int64
		if links <= math.MaxInt32 {
			id = int64(rng.Int31n(int32(links)))
		} else {
			id = rng.Int63n(links)
		}
		ops[i] = linkstore.Op{
			LinkID:    uint64(id),
			Kind:      core.FeedbackKind(rng.Intn(int(core.NumKinds))),
			RateIndex: int32(rng.Intn(6)),
			BER:       rng.Float64() * 0.01,
			SNRdB:     float32(math.NaN()), // the wire's "unknown SNR"
		}
	}
	return ops
}

// opsEqual compares ops treating NaN SNRs as equal (NaN is the wire's
// "unknown SNR" and never compares equal to itself).
func opsEqual(a, b linkstore.Op) bool {
	sa, sb := a.SNRdB, b.SNRdB
	if sa != sa && sb != sb { // both NaN
		sa, sb = 0, 0
	}
	a.SNRdB, b.SNRdB = 0, 0
	return a == b && sa == sb
}

// fullOps fills every wire field, across every registered algorithm.
func fullOps(rng *rand.Rand, n int) []linkstore.Op {
	ops := randOps(rng, n, 1<<62) // huge ID space: exercises all 8 bytes
	algos := ctl.Specs()
	for i := range ops {
		ops[i].Algo = algos[i%len(algos)].ID
		ops[i].Airtime = rng.Float32() * 1e-3
		ops[i].Delivered = rng.Intn(2) == 0
		if i%3 == 0 {
			ops[i].SNRdB = rng.Float32()*30 - 2
		}
	}
	return append(ops, linkstore.Op{LinkID: math.MaxUint64, Algo: ctl.AlgoDefault, Kind: core.KindPostamble, RateIndex: 255, BER: 0.5, SNRdB: float32(math.NaN())})
}

func TestCodecRoundTrip(t *testing.T) {
	ops := fullOps(rand.New(rand.NewSource(1)), 500)
	buf := AppendOpsV3(nil, 0xdeadbeef, ops)
	if want := headerSizeV3 + len(ops)*RecordSizeV2; len(buf) != want {
		t.Fatalf("encoded %d bytes for %d ops, want %d", len(buf), len(ops), want)
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
}

// TestCodecV2RoundTrip pins the record encoder requests are built on
// (and bench/gen.go digests with): AppendOpsV2's block is the 0x02 byte
// plus exactly the records of a request, and re-headed as a request it
// decodes to the same ops — while the bare block itself is not a request.
func TestCodecV2RoundTrip(t *testing.T) {
	ops := fullOps(rand.New(rand.NewSource(4)), 300)
	block := AppendOpsV2(nil, ops)
	if want := 1 + len(ops)*RecordSizeV2; len(block) != want || block[0] != VersionV2 {
		t.Fatalf("encoded %d bytes (lead %#x) for %d ops, want %d led by %#x", len(block), block[0], len(ops), want, VersionV2)
	}
	req := AppendOpsV3(nil, 7, ops)
	if string(req[headerSizeV3:]) != string(block[1:]) {
		t.Fatal("request record bytes drifted from the AppendOpsV2 encoding")
	}
	got, _, _, err := DecodeRequest(append(append([]byte(nil), req[:headerSizeV3]...), block[1:]...), nil)
	if err != nil || len(got) != len(ops) {
		t.Fatalf("re-headed block decoded %d ops (err %v), want %d", len(got), err, len(ops))
	}
	for i := range ops {
		if !opsEqual(got[i], ops[i]) {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
	if _, _, tagged, err := DecodeRequest(block, nil); err == nil || tagged {
		t.Fatal("a bare AppendOpsV2 block was accepted as a request")
	}
}

func TestCodecRejectsMalformedPayloads(t *testing.T) {
	good := AppendOpsV3(nil, 1, []linkstore.Op{{LinkID: 1, Algo: ctl.AlgoRRAA, Kind: core.KindBER, BER: 1e-5, SNRdB: 12}})
	rec := headerSizeV3 // offset of the one record
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":             nil,
		"truncated record":  good[:len(good)-1],
		"truncated header":  good[:headerSizeV3-1],
		"wrong version":     mutate(func(b []byte) { b[0] = VersionV2 }),
		"invalid kind":      mutate(func(b []byte) { b[rec+9] = byte(core.NumKinds) }),
		"unknown algorithm": mutate(func(b []byte) { b[rec+8] = 200 }),
		"undefined flag":    mutate(func(b []byte) { b[rec+11] = 0x80 }),
		"infinite SNR":      mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[rec+24:], math.Float32bits(float32(math.Inf(1)))) }),
		"negative airtime":  mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[rec+20:], math.Float32bits(-1)) }),
		"oversized batch":   append([]byte{VersionV3, 0, 0, 0, 0}, make([]byte, (MaxBatch+1)*RecordSizeV2)...),
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), -1e-3} {
		cases[fmt.Sprintf("BER %v", v)] = mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[rec+12:], math.Float64bits(v)) })
	}
	for name, payload := range cases {
		if ops, _, tagged, err := DecodeRequest(payload, nil); err == nil || tagged || len(ops) != 0 {
			t.Errorf("%s: accepted (%d ops, tagged=%v)", name, len(ops), tagged)
		}
	}
	if _, _, _, err := DecodeRequest(good, nil); err != nil {
		t.Fatalf("the unmutated payload was rejected: %v", err)
	}
}

func TestDecideMatchesBareControllersAt10kLinks(t *testing.T) {
	// The acceptance determinism property at the server layer: 10k links,
	// randomized interleaved batches, every decision byte-identical to a
	// bare per-link replay. "softrate" sends randOps' records (default
	// algorithm, unknown SNR) against core.SoftRate; "mixed" binds link i
	// to ctl.Specs()[i%5] and sets every field the §6.1 algorithms read.
	const nLinks = 10000
	specs := ctl.Specs()
	for _, mixed := range []bool{false, true} {
		name := "softrate"
		if mixed {
			name = "mixed"
		}
		t.Run(name, func(t *testing.T) {
			var bare func(op linkstore.Op) int
			if mixed {
				ctls := make([]ctl.Controller, nLinks)
				for i := range ctls {
					ctls[i] = specs[i%len(specs)].New()
				}
				bare = func(op linkstore.Op) int {
					return ctls[op.LinkID].Apply(ctl.Feedback{
						Kind:      op.Kind,
						RateIndex: int(op.RateIndex),
						BER:       op.BER,
						SNRdB:     float64(op.SNRdB),
						Airtime:   float64(op.Airtime),
						Delivered: op.Delivered,
					})
				}
			} else {
				ctls := make([]*core.SoftRate, nLinks)
				for i := range ctls {
					ctls[i] = core.New(core.DefaultConfig())
				}
				bare = func(op linkstore.Op) int { return ctls[op.LinkID].Apply(op.Kind, int(op.RateIndex), op.BER) }
			}
			srv := New(Config{Store: linkstore.Config{Shards: 128}})
			rng := rand.New(rand.NewSource(9))
			out := make([]int32, 512)
			for batch := 0; batch < 100; batch++ {
				ops := randOps(rng, 512, nLinks)
				if mixed {
					for i := range ops {
						ops[i].Algo = specs[ops[i].LinkID%uint64(len(specs))].ID
						ops[i].Airtime = rng.Float32() * 1e-3
						ops[i].Delivered = rng.Intn(3) > 0
						if rng.Intn(4) > 0 { // else the wire's unknown SNR
							ops[i].SNRdB = rng.Float32()*30 - 2
						}
					}
				}
				srv.Decide(ops, out)
				for i, op := range ops {
					if want := bare(op); int(out[i]) != want {
						t.Fatalf("batch %d op %d link %d (algo %d): server %d != bare %d", batch, i, op.LinkID, op.Algo, out[i], want)
					}
				}
			}
			st := srv.Stats()
			if st.Frames != 512*100 || st.Batches != 100 {
				t.Fatalf("stats %+v, want 51200 frames in 100 batches", st)
			}
			var kindSum uint64
			for _, c := range st.Kinds {
				kindSum += c
			}
			if kindSum != st.Frames {
				t.Fatalf("kind counters sum to %d, want %d", kindSum, st.Frames)
			}
		})
	}
}

// startTCP spins up a served listener and returns its address.
func startTCP(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

func TestTCPConcurrentClients(t *testing.T) {
	srv := New(Config{Store: linkstore.Config{Shards: 32, TTL: 50 * time.Millisecond}})
	addr := startTCP(t, srv)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := DialPipelined(addr, 1)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			out := make([]int32, 64)
			for i := 0; i < 50; i++ {
				// Disjoint link ranges per client: responses must stay
				// consistent with a per-client serial replay.
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

func TestTCPServerSurvivesGarbageAndShortWrites(t *testing.T) {
	srv := New(Config{})
	addr := startTCP(t, srv)

	// Oversized length prefix: server must drop the connection, not hang
	// or crash.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(maxPayload+1))
	conn.Write(hdr[:])
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(hdr[:]); err == nil {
		t.Fatal("server answered an oversized batch instead of dropping the connection")
	}
	conn.Close()

	// Undecodable payload: same story.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(hdr[:], 7)
	conn.Write(hdr[:])
	conn.Write(make([]byte, 7))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(hdr[:]); err == nil {
		t.Fatal("server answered a misaligned batch")
	}
	conn.Close()

	// A healthy client still gets service afterwards.
	cli, err := DialPipelined(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	out := make([]int32, 1)
	if _, err := cli.Decide([]linkstore.Op{{LinkID: 1, Kind: core.KindSilentLoss}}, out); err != nil {
		t.Fatalf("healthy client failed after garbage peers: %v", err)
	}
}

func BenchmarkDecideInProcess(b *testing.B) {
	srv := New(Config{Store: linkstore.Config{Shards: 64}})
	rng := rand.New(rand.NewSource(3))
	ops := randOps(rng, 256, 10000)
	out := make([]int32, len(ops))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Decide(ops, out)
	}
	b.ReportMetric(float64(len(ops))*float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}
