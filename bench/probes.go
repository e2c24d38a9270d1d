package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"softrate/bench/report"
	"softrate/internal/channel"
	"softrate/internal/coding"
	"softrate/internal/coldstore"
	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/faultfs"
	"softrate/internal/linkstore"
	"softrate/internal/modulation"
	"softrate/internal/obs"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/server"
	"softrate/internal/server/shmring"
	"softrate/internal/softphy"
	"softrate/internal/trace"
)

// The per-layer probes: small fixed-work loops around one layer's public
// calls. They run in every traced run, after the traced workload, and do
// not depend on which workload that was. Each timed probe is probeTrials
// timed calls of a fixed op count after one warm call; the metric is the
// median call.

const probeTrials = 5

var probeSink int

// timeOps calls fn(n) probeTrials+1 times and returns the median
// nanoseconds per op of the timed calls.
func timeOps(n int, fn func(n int)) float64 {
	fn(n)
	xs := make([]float64, probeTrials)
	for i := range xs {
		t0 := time.Now()
		fn(n)
		xs[i] = float64(time.Since(t0)) / float64(n)
	}
	return report.Summarize(xs, "ns").Median
}

// allocsPer returns heap allocations per call of fn over n calls, after
// one warm call.
func allocsPer(n int, fn func()) float64 {
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probeSuite runs every probe and adds its metrics to run.
func probeSuite(run *report.Run, o runOpts) error {
	put := func(name string, v float64) { run.Metrics[name] = report.Single(v, unitOf(name)) }
	dir := filepath.Join(o.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One trace pool and one generator serve every probe that needs ops:
	// its first pass over the links becomes the fixed batches, and the
	// generator probe carries on from there.
	traces := mobileTraces(o.seed)
	g := newGenerators(genConfig{seed: o.seed, callers: 1, hotLinks: 20000}, traces)[0]
	batches := make([][]linkstore.Op, 157) // one pass over the links
	for i := range batches {
		batches[i], _ = g.fill(128, nil, nil)
	}
	probeGen(put, g, traces[0], o.seed)
	probeCodec(put, batches)
	probeServer(put, batches)
	if err := probeWire(put, run, o, dir); err != nil {
		return err
	}
	if err := probeShmring(put, dir); err != nil {
		return err
	}
	if err := probeLinkstore(put, batches, o.seed, dir); err != nil {
		return err
	}
	probeCtl(put, traces[0], o.seed)
	if err := probeColdstore(put, dir); err != nil {
		return err
	}
	probePhy(put, o.seed)
	return probeFigs(put, o.seed)
}

func probeGen(put func(string, float64), g *generator, lt *trace.LinkTrace, seed int64) {
	var ops []linkstore.Op
	var idx, out []int32
	out = make([]int32, 128)
	put("gen.ns_per_op", timeOps(157*128, func(n int) {
		for b := 0; b < n/128; b++ {
			ops, idx = g.fill(128, ops, idx)
			// Answer like a server that keeps every rate: the closed loop
			// and the reference check run, their verdicts do not matter.
			for i := range ops {
				out[i] = ops[i].RateIndex
			}
			g.absorb(ops, idx, out)
		}
	}))
	it := lt.FramesMix(seed, trace.Mix{})
	put("trace.next_ns_per_frame", timeOps(200000, func(n int) {
		r := 0
		for i := 0; i < n; i++ {
			ev, _ := it.Next(r)
			r = (r + int(ev.Kind) + 1) % lt.NumRates()
		}
		probeSink += r
	}))
}

func probeCodec(put func(string, float64), batches [][]linkstore.Op) {
	var buf []byte
	put("codec.encode_ns_per_op", timeOps(len(batches)*128, func(int) {
		for i, b := range batches {
			buf = server.AppendOpsV3(buf[:0], uint32(i), b)
		}
	}))
	payloads := make([][]byte, len(batches))
	for i, b := range batches {
		payloads[i] = server.AppendOpsV3(nil, uint32(i), b)
	}
	var dst []linkstore.Op
	put("codec.decode_ns_per_op", timeOps(len(batches)*128, func(int) {
		for _, p := range payloads {
			dst, _, _, _ = server.DecodeRequest(p, dst)
		}
	}))
	i := 0
	put("codec.allocs_per_batch", allocsPer(1000, func() {
		buf = server.AppendOpsV3(buf[:0], uint32(i), batches[i%len(batches)])
		dst, _, _, _ = server.DecodeRequest(buf, dst)
		i++
	}))
}

func probeServer(put func(string, float64), batches [][]linkstore.Op) {
	srv := server.New(server.Config{Store: linkstore.Config{ExpectedLinks: 20000}})
	out := make([]int32, 128)
	pass := func(int) {
		for _, b := range batches {
			srv.Decide(b, out)
		}
	}
	pass(0) // create every link
	put("server.decide_ns_per_op", timeOps(len(batches)*128, pass))
	i := 0
	put("server.decide_allocs_per_batch", allocsPer(2000, func() {
		srv.Decide(batches[i%len(batches)], out)
		i++
	}))

	var lat obs.Latency
	put("obs.observe_ns", timeOps(1000000, func(n int) {
		for i := 0; i < n; i++ {
			lat.Observe(time.Duration(1000 + i&1023))
		}
	}))
}

// probeWire makes a short closed-loop run and a one-in-flight round-trip
// run on each wire transport, and splits the measured per-decision time
// into the probed layer costs plus a residual: the syscalls, copies and
// scheduling that only a stage clock inside the server can split further.
func probeWire(put func(string, float64), run *report.Run, o runOpts, dir string) error {
	known := 0.0
	for _, n := range []string{"gen.ns_per_op", "codec.encode_ns_per_op", "codec.decode_ns_per_op", "server.decide_ns_per_op"} {
		known += run.Metrics[n].Median
	}
	var shed, malformed, evicted float64
	for _, tr := range []string{"tcp", "udp", "shm"} {
		sp := findServiceSpec("wire-" + tr)
		in, _, err := setupService(sp, o.seed, filepath.Join(dir, "wire-"+tr), false)
		if err != nil {
			return err
		}
		st0 := in.srv.Status()
		var walls []float64
		for i := 0; i < 3; i++ {
			wall, err := in.trial()
			if err != nil {
				in.close()
				return err
			}
			walls = append(walls, wall.Seconds())
		}
		st1 := in.srv.Status()
		perOp := report.Summarize(walls, "s").Median / float64(in.trialOps()) * 1e9
		put("server.wire_residual_ns_per_op."+tr, perOp-known)

		// Round trip: the same connection with one batch in flight.
		c := in.callers[0]
		c.slots = c.slots[:1]
		const rttBatches = 2000
		put("server.rtt_ns_per_batch."+tr, timeOps(rttBatches, func(n int) {
			if err == nil {
				err = c.closedLoop(n)
			}
		}))
		if err != nil {
			in.close()
			return err
		}

		d0, d1 := st0.UDP, st1.UDP
		if tr == "shm" {
			d0, d1 = st0.SHM, st1.SHM
		}
		if tr != "tcp" {
			put("server.payloads_per_burst."+tr, float64(d1.DatagramsRx-d0.DatagramsRx)/float64(max(d1.Bursts-d0.Bursts, 1)))
		}
		end := in.srv.Status()
		shed += float64(end.UDP.Shed + end.SHM.Shed)
		malformed += float64(end.UDP.Drops + end.SHM.Drops + end.Transport.FramingErrors)
		evicted += float64(end.Transport.SlowClientsEvicted)
		if _, failed, _ := in.counts(); failed > 0 {
			run.Notes = append(run.Notes, fmt.Sprintf("probe wire-%s: %d ops failed", tr, failed))
		}
		if err := in.close(); err != nil {
			return err
		}
	}
	put("server.shed_bursts", shed)
	put("server.malformed", malformed)
	put("server.evicted_conns", evicted)
	return nil
}

func probeShmring(put func(string, float64), dir string) error {
	g, err := shmring.Create(filepath.Join(dir, "probe-ring"), 0)
	if err != nil {
		return err
	}
	defer g.Close()
	msg := make([]byte, 5+128*server.RecordSizeV2) // one 128-op v3 request
	r := g.Request()
	put("shmring.push_peek_ns_per_msg", timeOps(200000, func(n int) {
		for i := 0; i < n; i++ {
			r.Push(msg)
			p, _ := r.Peek()
			probeSink += len(p)
			r.Advance()
		}
	}))
	return nil
}

// heapDelta returns the growth of live heap across build, and keeps what
// build returned alive until after the second reading.
func heapDelta(build func() any) float64 {
	before := liveBytes()
	v := build()
	after := liveBytes()
	runtime.KeepAlive(v)
	return float64(int64(after) - int64(before))
}

func probeLinkstore(put func(string, float64), batches [][]linkstore.Op, seed int64, dir string) error {
	const links = 20000
	out := make([]int32, 128)
	st := linkstore.New(linkstore.Config{ExpectedLinks: links})
	pass := func(int) {
		for _, b := range batches {
			st.ApplyBatch(b, out)
		}
	}
	pass(0)
	put("linkstore.apply_hit_ns_per_op", timeOps(len(batches)*128, pass))

	// The skew probe: the same store, link choice Zipf(s = 1.1), so a few
	// hub links take most ops — run coalescing and one hot shard.
	base := idBase(seed)
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, links-1)
	zb := make([][]linkstore.Op, len(batches))
	for i := range zb {
		zb[i] = append([]linkstore.Op(nil), batches[i]...)
		for j := range zb[i] {
			zb[i][j].LinkID = base | zipf.Uint64()
		}
	}
	sh0 := st.PerShard()
	put("linkstore.apply_zipf_ns_per_op", timeOps(len(zb)*128, func(int) {
		for _, b := range zb {
			st.ApplyBatch(b, out)
		}
	}))
	put("linkstore.shard_imbalance", shardImbalance(sh0, st.PerShard()))

	put("linkstore.apply_create_ns_per_op", timeOps(len(batches)*128, func(int) {
		fresh := linkstore.New(linkstore.Config{ExpectedLinks: links})
		for _, b := range batches {
			fresh.ApplyBatch(b, out)
		}
	}))

	const many = 200000
	put("linkstore.bytes_per_link", heapDelta(func() any {
		big := linkstore.New(linkstore.Config{ExpectedLinks: many})
		ops := make([]linkstore.Op, 128)
		for id := 0; id < many; id += 128 {
			for j := range ops {
				ops[j] = linkstore.Op{LinkID: base | uint64(id+j), Algo: ctl.AlgoSoftRate, Kind: core.KindBER, BER: 1e-5}
			}
			big.ApplyBatch(ops, out)
		}
		return big
	})/many)

	// Evict and restore: every link idles past the TTL on a virtual
	// clock, one sweep evicts them all, and the next pass restores each —
	// from the RAM archive without a cold tier, from disk with one (the
	// front is kept tiny and SpillAll pushes the rest out).
	churn := func(cold *coldstore.Store) (evictNs, restoreNs float64) {
		var clock atomic.Int64
		clock.Store(1 << 40)
		xs := make([]float64, probeTrials)
		ys := make([]float64, probeTrials)
		for t := range xs {
			s := linkstore.New(linkstore.Config{ExpectedLinks: links, TTL: time.Second, Clock: clock.Load, Cold: cold, ColdFront: 128})
			for _, b := range batches {
				s.ApplyBatch(b, out)
			}
			clock.Add(int64(2 * time.Second))
			t0 := time.Now()
			n := s.EvictIdle()
			xs[t] = float64(time.Since(t0)) / float64(max(n, 1))
			if cold != nil {
				s.SpillAll()
			}
			t0 = time.Now()
			for _, b := range batches {
				s.ApplyBatch(b, out)
			}
			ys[t] = float64(time.Since(t0)) / float64(len(batches)*128)
		}
		return report.Summarize(xs, "ns").Median, report.Summarize(ys, "ns").Median
	}
	evictNs, ramNs := churn(nil)
	put("linkstore.evict_ns_per_link", evictNs)
	put("linkstore.restore_ram_ns_per_op", ramNs)
	cold, err := coldstore.Open(coldstore.Config{Dir: filepath.Join(dir, "ls-cold")})
	if err != nil {
		return err
	}
	_, coldNs := churn(cold)
	put("linkstore.restore_cold_ns_per_op", coldNs)
	return cold.Close()
}

// shardImbalance is max ÷ mean of the per-shard op counts between two
// PerShard snapshots.
func shardImbalance(before, after []linkstore.ShardStats) float64 {
	var total, peak float64
	for i := range after {
		n := float64(after[i].Hits+after[i].Creates+after[i].Restores) -
			float64(before[i].Hits+before[i].Creates+before[i].Restores)
		total += n
		peak = max(peak, n)
	}
	if total == 0 {
		return 0
	}
	return peak / (total / float64(len(after)))
}

func probeCtl(put func(string, float64), lt *trace.LinkTrace, seed int64) {
	// One closed-loop feedback sequence, replayed into every algorithm.
	it := lt.FramesMix(seed, trace.Mix{})
	fbs := make([]ctl.Feedback, 4096)
	r := 0
	for i := range fbs {
		ev, _ := it.Next(r)
		fbs[i] = ctl.Feedback{Kind: ev.Kind, RateIndex: ev.RateIndex, BER: ev.BER, SNRdB: ev.SNRdB, Delivered: ev.Delivered}
		r = (r + 1) % 6
	}
	for _, spec := range ctl.Specs() {
		c := spec.New()
		put("ctl.apply_ns."+spec.Name, timeOps(50*len(fbs), func(n int) {
			for k := 0; k < n/len(fbs); k++ {
				for i := range fbs {
					probeSink += c.Apply(fbs[i])
				}
			}
		}))
		state := make([]byte, c.StateLen())
		put("ctl.state_codec_ns."+spec.Name, timeOps(100000, func(n int) {
			for i := 0; i < n; i++ {
				c.EncodeState(state)
				c.DecodeState(state)
			}
		}))
	}
	sr := core.New(core.DefaultConfig())
	put("core.apply_ns", timeOps(50*len(fbs), func(n int) {
		for k := 0; k < n/len(fbs); k++ {
			for i := range fbs {
				probeSink += sr.Apply(fbs[i].Kind, fbs[i].RateIndex, fbs[i].BER)
			}
		}
	}))
}

func probeColdstore(put func(string, float64), dir string) error {
	const batch = 4096
	recs := make([]coldstore.Record, batch)
	state := make([]byte, 8)
	fill := func(base uint64) {
		for i := range recs {
			recs[i] = coldstore.Record{LinkID: base + uint64(i), Algo: uint8(ctl.AlgoSoftRate), State: state}
		}
	}

	// Index size and recovery time, over one million records.
	const million = 1 << 20
	bigDir := filepath.Join(dir, "cs-big")
	var big *coldstore.Store
	var err error
	perLink := heapDelta(func() any {
		big, err = coldstore.Open(coldstore.Config{Dir: bigDir})
		for b := uint64(0); err == nil && b < million; b += batch {
			fill(b)
			err = big.PutBatch(recs)
		}
		return big
	}) / million
	if err != nil {
		return err
	}
	put("coldstore.index_bytes_per_link", perLink)
	if err := big.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	big, err = coldstore.Open(coldstore.Config{Dir: bigDir})
	if err != nil {
		return err
	}
	put("coldstore.open_recover_s", time.Since(t0).Seconds())
	if err := big.Close(); err != nil {
		return err
	}
	os.RemoveAll(bigDir)

	cs, err := coldstore.Open(coldstore.Config{Dir: filepath.Join(dir, "cs-probe")})
	if err != nil {
		return err
	}
	next := uint64(0)
	put("coldstore.put_ns_per_rec", timeOps(8*batch, func(n int) {
		for k := 0; k < n/batch && err == nil; k++ {
			fill(next)
			next += batch
			err = cs.PutBatch(recs)
		}
	}))
	taken := uint64(0)
	var buf []byte
	put("coldstore.take_ns_per_rec", timeOps(4*batch, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, buf, _, err = cs.Take(taken, buf[:0])
			taken++
		}
	}))
	if err != nil {
		return err
	}
	if err := cs.Close(); err != nil {
		return err
	}

	// One compaction of a half-dead sealed segment. SegmentBytes 1 seals
	// a segment after every batch, so each 32768-record batch is its own
	// segment; every other record of the first is then taken back, which
	// brings it to exactly the default 0.5 dead ratio on the last Take.
	// That Take also wakes the background compactor; CompactOnce is
	// called straight after it and gets the lock first unless the
	// goroutine is descheduled in between, in which case the probe
	// reports 0 and the note says why.
	const segRecs = 32768
	cc, err := coldstore.Open(coldstore.Config{Dir: filepath.Join(dir, "cs-compact"), SegmentBytes: 1})
	if err != nil {
		return err
	}
	defer cc.Close()
	seg := make([]coldstore.Record, segRecs)
	for b := uint64(0); b < 2; b++ {
		for i := range seg {
			seg[i] = coldstore.Record{LinkID: b*segRecs + uint64(i), Algo: uint8(ctl.AlgoSoftRate), State: state}
		}
		if err := cc.PutBatch(seg); err != nil {
			return err
		}
	}
	for id := uint64(0); id < segRecs; id += 2 {
		if _, buf, _, err = cc.Take(id, buf[:0]); err != nil {
			return err
		}
	}
	t0 = time.Now()
	did, err := cc.CompactOnce()
	if err != nil {
		return err
	}
	if did {
		put("coldstore.compact_s", time.Since(t0).Seconds())
	} else {
		put("coldstore.compact_s", 0) // the background compactor won the race
	}

	// faultfs as a passthrough: one positional read through a disarmed
	// injector.
	inj := faultfs.Wrap(faultfs.OS{}, 1, faultfs.Rates{})
	inj.Arm(false)
	f, err := inj.Create(filepath.Join(dir, "ffs-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	block := make([]byte, 64)
	if _, err := f.WriteAt(block, 0); err != nil {
		return err
	}
	put("faultfs.passthrough_ns_per_op", timeOps(50000, func(n int) {
		for i := 0; i < n; i++ {
			f.ReadAt(block, 0)
		}
	}))
	return nil
}

func probePhy(put func(string, float64), seed int64) {
	const nInfo = (240 + 4) * 8 // Fig. 7/9 payload shape
	rng := rand.New(rand.NewSource(seed))
	info := make([]byte, nInfo)
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	var coded []byte
	put("coding.encode_ns_per_frame", timeOps(2000, func(n int) {
		for i := 0; i < n; i++ {
			coded = coding.AppendEncode(coded[:0], info)
		}
	}))
	llrsFor := func() []float64 {
		llrs := make([]float64, len(coded))
		for i, b := range coded {
			x := -1.0
			if b != 0 {
				x = 1.0
			}
			llrs[i] = 2 * (x + 0.7*rng.NormFloat64()) / (0.7 * 0.7)
		}
		return llrs
	}
	llrs := llrsFor()
	var dec coding.Workspace
	var bdec coding.BatchWorkspace
	put("coding.bcjr_ns_per_frame", timeOps(8, func(n int) {
		for i := 0; i < n; i++ {
			dec.DecodeBCJR(llrs, nInfo, coding.LogMAP)
		}
	}))
	jobs := make([]coding.BatchJob, 8)
	for i := range jobs {
		jobs[i] = coding.BatchJob{LLRs: llrsFor(), NInfo: nInfo}
	}
	put("coding.bcjr_batch8_ns_per_frame", timeOps(16, func(n int) {
		for i := 0; i < n/8; i++ {
			bdec.DecodeBCJRBatch(jobs, coding.LogMAP)
		}
	}))
	put("coding.viterbi_ns_per_frame", timeOps(40, func(n int) {
		for i := 0; i < n; i++ {
			dec.DecodeViterbi(llrs, nInfo)
		}
	}))

	var out []float64
	h := complex(0.8, -0.3)
	put("modulation.demap_ns_per_sym", timeOps(200000, func(n int) {
		for i := 0; i < n; i++ {
			y := complex(float64(i&7)/4-1, float64(i&3)/2-0.7)
			out = modulation.Demap(modulation.QAM16, y, h, 0.1, true, out[:0])
		}
	}))
	model := channel.NewStaticModel(phyMeanSNRdB, channel.NewRayleigh(rng, phyDopplerHz, 0))
	put("channel.gain_ns_per_sample", timeOps(100000, func(n int) {
		var acc complex128
		for i := 0; i < n; i++ {
			acc += model.Gain(float64(i) * 4e-6)
		}
		probeSink += int(real(acc))
	}))

	cfg := phy.DefaultConfig()
	ws := phy.NewWorkspace()
	payload := make([]byte, 240)
	rng.Read(payload)
	frame := phy.Frame{Header: []byte{9, 9, 9, 9}, Payload: payload, Rate: rate.ByIndex(4)}
	tx := phy.TransmitWS(ws, cfg, frame)
	put("phy.transmit_ns_per_frame", timeOps(200, func(n int) {
		for i := 0; i < n; i++ {
			tx = phy.TransmitWS(ws, cfg, frame)
		}
	}))
	ns := tx.NumSymbols()
	gains := make([]complex128, ns)
	ivar := make([]float64, ns)
	for j := range gains {
		gains[j] = complex(math.Sqrt(channel.DBToLinear(14)), 0)
	}
	var hints []float64
	put("phy.receive_ns_per_frame", timeOps(8, func(n int) {
		for i := 0; i < n; i++ {
			rx := phy.ReceiveWS(ws, cfg, tx, gains, ivar, rng)
			hints = append(hints[:0], rx.Hints...)
		}
	}))
	chain8 := func() {
		for k := 0; k < 8; k++ {
			tx = phy.TransmitWS(ws, cfg, frame)
			ws.QueueReceive(cfg, tx, gains, ivar, rng)
		}
		for _, rx := range ws.FlushReceptions() {
			probeSink += rx.BitErrors
		}
	}
	put("phy.receive_batch8_ns_per_frame", timeOps(16, func(n int) {
		for i := 0; i < n/8; i++ {
			for k := 0; k < 8; k++ {
				ws.QueueReceive(cfg, tx, gains, ivar, rng)
			}
			ws.FlushReceptions()
		}
	}))
	put("phy.allocs_per_frame", allocsPer(4, chain8)/8)
	nbps := cfg.Mode.InfoBitsPerSymbol(frame.Rate)
	put("softphy.analyze_ns_per_frame", timeOps(2000, func(n int) {
		for i := 0; i < n; i++ {
			a := softphy.Analyze(hints, nbps, softphy.DefaultDetector())
			probeSink += len(a.Excised)
		}
	}))
}

// probeFigs times each §6 figure harness once, and fig14 again on one
// worker for the engine's two-worker speed-up (fig13 is the same harness
// family at 9 s a pass — too long to run twice in every traced run).
func probeFigs(put func(string, float64), seed int64) error {
	walls, _, err := figPass(allFigs, figSeed(seed), figWorkers, nil)
	if err != nil {
		return err
	}
	var fig14 time.Duration
	for i, id := range allFigs {
		put("experiments."+id+"_s", walls[i].Seconds())
		if id == "fig14" {
			fig14 = walls[i]
		}
	}
	one, _, err := figPass([]string{"fig14"}, figSeed(seed), 1, nil)
	if err != nil {
		return err
	}
	put("engine.speedup_w2", one[0].Seconds()/fig14.Seconds())
	return nil
}
