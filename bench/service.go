package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softrate/bench/report"
	"softrate/internal/coldstore"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/server"
)

// serviceSpec is one softrated workload. Sizes are fixed WORK: a trial is
// a fixed number of batches, so what a trial does — and every count the
// server keeps about it — is a function of the op stream alone. How many
// trials a run makes is the only thing -seconds decides.
type serviceSpec struct {
	name      string
	transport string // inproc | tcp | udp | shm
	callers   int    // closed-loop load goroutines (one connection each)
	window    int    // batches outstanding per connection
	hotLinks  int
	batch     int

	// Cold population (cold-churn only): coldPerBatch ops of every batch
	// walk coldPerBatch × lapBatches links round-robin, so one lap takes
	// exactly lapBatches batches.
	coldPerBatch int
	lapBatches   int
	ttl          time.Duration // on the virtual clock; 0 = no eviction
	coldFront    int

	trialBatches int // closed-loop trial, batches per caller

	// Open-loop phase: openBatch-op batches offered at openRate
	// decisions/s by caller 0. The traced run also offers openRates.
	openRate         float64
	openRates        []float64
	openBatch        int
	openTrialBatches int

	// failBound is the failed_share this workload may not exceed: 0 on a
	// lossless transport.
	failBound float64
}

func (sp *serviceSpec) coldLinks() int { return sp.coldPerBatch * sp.lapBatches }

// vtick is how far each batch advances the store's virtual clock. With a
// clock driven by the op stream, TTL evictions, spills and restores
// happen at the same ops on every run.
const vtick = time.Millisecond

var serviceSpecs = []serviceSpec{
	{name: "hot-inproc", transport: "inproc", callers: 2, window: 1, hotLinks: 20000, batch: 128,
		trialBatches: 10000, openRate: 500e3, openRates: []float64{250e3, 500e3, 1e6}, openBatch: 32, openTrialBatches: 3000},
	{name: "wire-tcp", transport: "tcp", callers: 1, window: 8, hotLinks: 20000, batch: 128,
		trialBatches: 12000, openRate: 500e3, openRates: []float64{250e3, 500e3, 1e6}, openBatch: 32, openTrialBatches: 3000},
	{name: "wire-udp", transport: "udp", callers: 1, window: 8, hotLinks: 20000, batch: 128,
		trialBatches: 10000, openRate: 500e3, openRates: []float64{250e3, 500e3, 1e6}, openBatch: 32, openTrialBatches: 3000,
		failBound: 1e-4},
	{name: "wire-shm", transport: "shm", callers: 1, window: 8, hotLinks: 20000, batch: 128,
		trialBatches: 16000, openRate: 500e3, openRates: []float64{250e3, 500e3, 1e6}, openBatch: 32, openTrialBatches: 3000},
	// One lap of the cold population is one trial, so every trial
	// restores and re-evicts each cold link exactly once. 1 ms of virtual
	// time per batch makes a lap 1.74 s against a 0.5 s TTL: a cold link
	// idles past the TTL, and past the 32768-link RAM front (about 57 k
	// cold links are evicted between two touches), before it returns; a
	// hot link returns every 0.385 s and stays hot.
	{name: "cold-churn", transport: "inproc", callers: 1, window: 1, hotLinks: 5000, batch: 128,
		coldPerBatch: 115, lapBatches: 1740, ttl: 500 * time.Millisecond, coldFront: 32768,
		trialBatches: 1740, openRate: 100e3, openRates: []float64{50e3, 100e3, 200e3}, openBatch: 32, openTrialBatches: 1500},
}

func findServiceSpec(name string) *serviceSpec {
	for i := range serviceSpecs {
		if serviceSpecs[i].name == name {
			return &serviceSpecs[i]
		}
	}
	return nil
}

// slot is one outstanding batch.
type slot struct {
	ops []linkstore.Op
	idx []int32
	out []int32
}

// caller is one load goroutine: a generator, a connection and its window.
type caller struct {
	gen   *generator
	conn  conn
	slots []slot
	batch int

	// vclock is the store's virtual clock; tick is what each batch adds
	// (0 when the workload has no TTL).
	vclock *atomic.Int64
	tick   int64

	// Span names for the two transport boundaries; an in-process submit
	// IS the server's Decide and has no separate wait.
	submitSpan, waitSpan string
	tr                   *tracer
}

// closedLoop runs `batches` batches through the window: the next batch is
// generated only when a slot is free, so a slow server receives less load.
func (c *caller) closedLoop(batches int) error {
	root := c.tr.begin("trial", -1, -1)
	defer c.tr.end(root)
	w := len(c.slots)
	for sent, done := 0, 0; done < batches; {
		if sent < batches && sent-done < w {
			s := &c.slots[sent%w]
			sp := c.tr.begin("gen.fill", root, int32(sent))
			s.ops, s.idx = c.gen.fill(c.batch, s.ops, s.idx)
			c.tr.end(sp)
			c.vclock.Add(c.tick)
			sp = c.tr.begin(c.submitSpan, root, int32(sent))
			err := c.conn.submit(sent%w, s.ops)
			c.tr.end(sp)
			if err != nil {
				return fmt.Errorf("submit batch %d: %w", sent, err)
			}
			sent++
			continue
		}
		s := &c.slots[done%w]
		var sp int32 = -1
		if c.waitSpan != "" {
			sp = c.tr.begin(c.waitSpan, root, int32(done))
		}
		answered, err := c.conn.wait(done%w, s.out[:len(s.ops)])
		if c.waitSpan != "" {
			c.tr.end(sp)
		}
		if err != nil {
			return fmt.Errorf("wait batch %d: %w", done, err)
		}
		sp = c.tr.begin("verify", root, int32(done))
		if answered {
			c.gen.absorb(s.ops, s.idx, s.out)
		} else {
			c.gen.lose(s.ops, s.idx)
		}
		c.tr.end(sp)
		done++
	}
	return nil
}

// openLoopTrial offers `batches` batches of n ops at a fixed interval and
// returns each batch's due-to-answer latency and how late it was sent.
func (c *caller) openLoopTrial(batches, n int, interval time.Duration) (lat, late []time.Duration, err error) {
	epoch := time.Now()
	w := len(c.slots)
	return openLoop(func() time.Duration { return time.Since(epoch) }, batches, interval, w,
		func(i int) error {
			s := &c.slots[i%w]
			s.ops, s.idx = c.gen.fill(n, s.ops, s.idx)
			c.vclock.Add(c.tick)
			return c.conn.submit(i%w, s.ops)
		},
		func(i int) (bool, error) {
			s := &c.slots[i%w]
			return c.conn.wait(i%w, s.out[:len(s.ops)])
		},
		func(i int, answered bool) {
			s := &c.slots[i%w]
			if answered {
				c.gen.absorb(s.ops, s.idx, s.out)
			} else {
				c.gen.lose(s.ops, s.idx)
			}
		},
		runtime.Gosched)
}

// instance is one set-up of a service workload: generators, server,
// transport, and every link pre-warmed.
type instance struct {
	spec      *serviceSpec
	srv       *server.Server
	cold      *coldstore.Store
	callers   []*caller
	stopServe func() error
	dir       string

	// baseline is heap+stack in use after generator set-up, before the
	// server exists; resident memory is measured against it.
	baseline uint64
	digest   string // SHA-256 of caller 0's pre-warm op stream
}

// liveBytes forces a collection and returns heap objects plus stacks in
// use.
func liveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc + m.StackInuse
}

// setupService builds an instance under dir and returns how long that
// took: trace generation, link and reference construction, cold-dir open,
// listen and dial, and pre-warm — everything between the workload
// starting and its first timed op. With measureMem the baseline reading
// is taken (and its forced collections are left out of the set-up time).
func setupService(sp *serviceSpec, seed int64, dir string, measureMem bool) (*instance, time.Duration, error) {
	t0 := time.Now()
	var paused time.Duration
	in := &instance{spec: sp, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	gens := newGenerators(genConfig{seed: seed, callers: sp.callers, hotLinks: sp.hotLinks,
		coldLinks: sp.coldLinks(), hotPerBatch: sp.batch - sp.coldPerBatch}, mobileTraces(seed))
	if measureMem {
		p0 := time.Now()
		in.baseline = liveBytes()
		paused = time.Since(p0)
	}

	vclock := new(atomic.Int64)
	vclock.Store(1 << 40) // any fixed epoch; only differences matter
	cfg := linkstore.Config{
		TTL:           sp.ttl,
		Clock:         vclock.Load,
		ExpectedLinks: sp.hotLinks,
	}
	var tick int64
	if sp.ttl > 0 {
		tick = int64(vtick)
	}
	if sp.coldPerBatch > 0 {
		cold, err := coldstore.Open(coldstore.Config{Dir: filepath.Join(dir, "cold")})
		if err != nil {
			return nil, 0, fmt.Errorf("open cold dir: %w", err)
		}
		in.cold = cold
		cfg.Cold = cold
		cfg.ColdFront = sp.coldFront
		// The hot map holds the hot links plus the cold links touched
		// within one TTL.
		cfg.ExpectedLinks = sp.hotLinks + sp.coldPerBatch*int(sp.ttl/vtick)
	}
	in.srv = server.New(server.Config{Store: cfg})
	in.stopServe = func() error { return nil }

	for ci, g := range gens {
		c := &caller{gen: g, batch: sp.batch, vclock: vclock, tick: tick, slots: make([]slot, sp.window)}
		for i := range c.slots {
			c.slots[i].out = make([]int32, sp.batch)
		}
		if sp.transport == "inproc" {
			c.conn = newInprocConn(in.srv, sp.window, sp.batch)
			c.submitSpan = "server.decide"
		} else {
			cn, stop, err := listenAndDial(in.srv, sp.transport, dir, sp.window)
			if err != nil {
				in.close()
				return nil, 0, fmt.Errorf("caller %d: %w", ci, err)
			}
			c.conn, in.stopServe = cn, stop
			c.submitSpan, c.waitSpan = "transport.submit", "transport.wait"
		}
		in.callers = append(in.callers, c)
	}

	// Pre-warm: every hot link's first op, and one full lap of the cold
	// population, go through the server before anything is timed, so maps
	// and slabs are grown, eviction and spill are in steady state, and
	// every later cold touch is a restore.
	in.callers[0].gen.startDigest()
	warm := make([]int, len(in.callers))
	for ci, c := range in.callers {
		hotPer := sp.batch - sp.coldPerBatch
		warm[ci] = (len(c.gen.links) + hotPer - 1) / hotPer
		if c.gen.cold != nil && sp.lapBatches > warm[ci] {
			warm[ci] = sp.lapBatches
		}
	}
	if err := in.runClosed(warm); err != nil {
		in.close()
		return nil, 0, fmt.Errorf("pre-warm: %w", err)
	}
	in.digest = in.callers[0].gen.stopDigest()
	return in, time.Since(t0) - paused, nil
}

// runClosed runs batches[i] closed-loop batches on caller i, all callers
// concurrently, and returns when the last finishes.
func (in *instance) runClosed(batches []int) error {
	if len(in.callers) == 1 {
		return in.callers[0].closedLoop(batches[0])
	}
	errs := make([]error, len(in.callers))
	var wg sync.WaitGroup
	for i, c := range in.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.closedLoop(batches[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// trial runs one closed-loop trial and returns its wall time.
func (in *instance) trial() (time.Duration, error) {
	n := make([]int, len(in.callers))
	for i := range n {
		n[i] = in.spec.trialBatches
	}
	t0 := time.Now()
	err := in.runClosed(n)
	return time.Since(t0), err
}

// trialOps is the decisions one closed-loop trial attempts.
func (in *instance) trialOps() int {
	return in.spec.trialBatches * in.spec.batch * len(in.callers)
}

func (in *instance) counts() (attempted, failed uint64, firstMismatch string) {
	for _, c := range in.callers {
		attempted += c.gen.attempted
		failed += c.gen.failed
		if firstMismatch == "" {
			firstMismatch = c.gen.firstMismatch
		}
	}
	return
}

// verdict fills in a run's attempted and failed counts and whether the
// failed share is within the workload's bound.
func (in *instance) verdict(run *report.Run) {
	if uc, ok := in.callers[0].conn.(*udpConn); ok {
		run.Notes = append(run.Notes, fmt.Sprintf("udp client: %+v", uc.cli.Stats()))
	}
	var mismatch string
	run.Attempted, run.Failed, mismatch = in.counts()
	run.Correct = float64(run.Failed) <= in.spec.failBound*float64(run.Attempted)
	if mismatch != "" {
		run.Notes = append(run.Notes, "first mismatch: "+mismatch)
	}
}

// close tears the instance down: clients, server, serve loop, cold tier,
// and the files under its directory. It waits for every goroutine it
// started.
func (in *instance) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range in.callers {
		keep(c.conn.close())
	}
	in.srv.Close()
	keep(in.stopServe())
	if in.cold != nil {
		keep(in.cold.Close())
	}
	keep(os.RemoveAll(in.dir))
	return first
}

// latencyStats reduces one open-loop trial to p50 and p99 in µs, the
// number of samples beyond the p99, how many requests were lost, and the
// p99 of send lateness.
type latencyStats struct {
	p50us, p90us, p99us, lateP99us float64
	beyondP99, lost                int
	backlogged                     bool
}

func summarizeLatency(lat, late []time.Duration) latencyStats {
	ns := make([]int64, len(lat))
	var st latencyStats
	for i, d := range lat {
		if d == lost {
			st.lost++
		}
		ns[i] = int64(d) // a lost request sorts last: it misses any limit
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	p50, _ := report.PercentileNs(ns, 50)
	p90, _ := report.PercentileNs(ns, 90)
	p99, beyond := report.PercentileNs(ns, 99)
	st.p50us, st.p90us, st.p99us, st.beyondP99 = float64(p50)/1e3, float64(p90)/1e3, float64(p99)/1e3, beyond
	ls := make([]int64, len(late))
	for i, d := range late {
		ls[i] = int64(d)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	l99, _ := report.PercentileNs(ls, 99)
	st.lateP99us = float64(l99) / 1e3
	// A growing backlog: the last tenth of the sends left later than the
	// first tenth by more than the latency limit.
	tenth := len(late) / 10
	if tenth > 0 {
		var head, tail time.Duration
		for i := 0; i < tenth; i++ {
			head += late[i]
			tail += late[len(late)-1-i]
		}
		st.backlogged = (tail-head)/time.Duration(tenth) > latencyLimit
	}
	return st
}

// latencyLimit is the p99 limit behind gen.max_rate_ok.
const latencyLimit = 2 * time.Millisecond

// minTrials is the fewest trials a metric is the median of.
const minTrials = 5

// runService measures one service workload with tracing off and returns
// its end-to-end metrics.
func runService(sp *serviceSpec, o runOpts) (*report.Run, error) {
	run := newRun(sp.name, o)

	// Set-up is measured setupReps times; the last instance is kept.
	var in *instance
	var setups []float64
	for r := 0; r < setupReps; r++ {
		last := r == setupReps-1
		i, d, err := setupService(sp, o.seed, filepath.Join(o.dir, fmt.Sprintf("%s-%d", sp.name, r)), last)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if !last {
			if err := i.close(); err != nil {
				return nil, err
			}
			continue
		}
		in = i
	}
	defer in.close()
	in.corruptReference(o.corruptRef)
	run.OpDigest = in.digest
	run.Metrics["setup_s"] = report.Summarize(setups, "s")

	// Closed-loop and open-loop trials alternate until the time is spent,
	// so both phases sample the whole run: the host's speed drifts on a
	// scale of seconds, and a phase measured in one stretch would inherit
	// whatever state that stretch was in.
	interval := time.Duration(float64(sp.openBatch) / sp.openRate * 1e9)
	var dps, fps, walls, p50s, p90s, p99s []float64
	minBeyond := -1
	for deadline := time.Now().Add(o.seconds); len(dps) < minTrials || time.Now().Before(deadline); {
		f0 := in.srv.Stats().Frames
		_, failed0, _ := in.counts()
		wall, err := in.trial()
		if err != nil {
			return nil, err
		}
		_, failed1, _ := in.counts()
		answered := float64(in.trialOps()) - float64(failed1-failed0)
		dps = append(dps, answered/wall.Seconds())
		fps = append(fps, float64(in.srv.Stats().Frames-f0)/wall.Seconds())
		walls = append(walls, wall.Seconds())

		lat, late, err := in.callers[0].openLoopTrial(sp.openTrialBatches, sp.openBatch, interval)
		if err != nil {
			return nil, err
		}
		st := summarizeLatency(lat, late)
		p50s = append(p50s, st.p50us)
		p90s = append(p90s, st.p90us)
		p99s = append(p99s, st.p99us)
		if minBeyond < 0 || st.beyondP99 < minBeyond {
			minBeyond = st.beyondP99
		}
	}
	run.Metrics["decisions_per_s"] = report.Summarize(dps, "1/s")
	run.Metrics["frames_per_s"] = report.Summarize(fps, "1/s")
	run.Metrics["figs_wall_s"] = report.Summarize(walls, "s")
	run.Metrics["decide_p50_us"] = report.Summarize(p50s, "us")
	run.Metrics["decide_p90_us"] = report.Summarize(p90s, "us")
	run.Metrics["decide_p99_us"] = report.Summarize(p99s, "us")
	run.Notes = append(run.Notes,
		fmt.Sprintf("closed loop: trials of %d decisions; open loop: %.0f decisions/s offered in %d-op batches, %d batches a trial, at least %d samples beyond each trial's p99",
			in.trialOps(), sp.openRate, sp.openBatch, sp.openTrialBatches, minBeyond))

	run.Metrics["resident_mib"] = report.Single(float64(int64(liveBytes())-int64(in.baseline))/(1<<20), "MiB")

	in.verdict(run)
	runtime.KeepAlive(in)
	return run, nil
}

// offByOne is a reference controller that always disagrees.
type offByOne struct{ ctl.Controller }

func (c offByOne) Apply(fb ctl.Feedback) int { return c.Controller.Apply(fb) + 1 }

// corruptReference makes one sampled link's reference controller wrong
// when on is set. It exists so a test can prove that a wrong answer fails
// the run.
func (in *instance) corruptReference(on bool) {
	if !on {
		return
	}
	for i := range in.callers[0].gen.links {
		if l := &in.callers[0].gen.links[i]; l.ref != nil {
			l.ref = offByOne{l.ref}
			return
		}
	}
}
