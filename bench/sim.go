package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"softrate/bench/report"
	"softrate/internal/channel"
	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/experiments"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/softphy"
)

// ---- phy-chain ----

// phy-chain sizes: the Fig. 7/9 frame shape (4-byte header, 240-byte
// payload, 16-QAM 1/2) over a Rayleigh-faded 22 dB link, received through
// the batched log-MAP path eight frames at a time.
const (
	phyBatch       = 8
	phyTrialFrames = 160 // one trial: 20 flushes
	phyWarmFrames  = 64
	phyRefEvery    = 32 // one frame in 32 is also decoded unbatched
	phyMeanSNRdB   = 22
	phyDopplerHz   = 40
	phySpacing     = 0.01 // seconds between frame starts
)

// tapNorms draws receiver noise from rng and, while rec is set, keeps a
// copy of every variate so the same frame can be received a second time
// on identical noise.
type tapNorms struct {
	rng *rand.Rand
	rec bool
	buf []float64
}

func (t *tapNorms) NormFloat64() float64 {
	v := t.rng.NormFloat64()
	if t.rec {
		t.buf = append(t.buf, v)
	}
	return v
}

// replayNorms replays recorded variates.
type replayNorms struct {
	buf []float64
	i   int
}

func (r *replayNorms) NormFloat64() float64 {
	v := r.buf[r.i]
	r.i++
	return v
}

// phyRef is what the unbatched reference receive saw for one frame.
type phyRef struct {
	detected, payloadOK bool
	bitErrors           int
	hints               []float64
}

// phyChain is one set-up of the PHY workload.
type phyChain struct {
	cfg     phy.Config
	ws      *phy.Workspace // batched path
	refWS   *phy.Workspace // unbatched reference path
	model   *channel.Model
	norms   tapNorms
	payload []byte
	prng    *rand.Rand // payload bytes
	ctlr    ctl.Controller
	gains   []complex128
	ivar    []float64

	frame  int // frames transmitted so far
	txAt   [phyBatch]time.Time
	ref    [phyBatch]*phyRef // non-nil for the sampled frames of the batch
	refBuf phyRef

	tr                *tracer
	attempted, failed uint64
	lat               []time.Duration // per frame: transmit start to decision
	firstMismatch     string
}

func setupPhyChain(seed int64) (*phyChain, time.Duration) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	p := &phyChain{
		cfg:     phy.DefaultConfig(),
		ws:      phy.NewWorkspace(),
		refWS:   phy.NewWorkspace(),
		model:   channel.NewStaticModel(phyMeanSNRdB, channel.NewRayleigh(rng, phyDopplerHz, 0)),
		norms:   tapNorms{rng: rand.New(rand.NewSource(seed + 1))},
		payload: make([]byte, 240),
		prng:    rand.New(rand.NewSource(seed + 2)),
		ctlr:    ctl.New(ctl.AlgoSoftRate),
	}
	p.frames(phyWarmFrames)
	p.lat = p.lat[:0]
	return p, time.Since(t0)
}

// frames pushes n frames (a multiple of phyBatch) through TX → channel →
// queued receive, flushing every phyBatch frames, and turns every decoded
// frame's SoftPHY BER estimate into a rate decision.
func (p *phyChain) frames(n int) {
	root := p.tr.begin("trial", -1, -1)
	defer p.tr.end(root)
	T := p.cfg.Mode.SymbolTime()
	r := rate.ByIndex(4)
	for i := 0; i < n; i++ {
		k := i % phyBatch
		p.txAt[k] = time.Now()
		sp := p.tr.begin("phy.transmit", root, int32(p.frame))
		p.prng.Read(p.payload)
		tx := phy.TransmitWS(p.ws, p.cfg, phy.Frame{Header: []byte{9, 9, 9, 9}, Payload: p.payload, Rate: r})
		p.tr.end(sp)

		sp = p.tr.begin("channel.gain", root, int32(p.frame))
		ns := tx.NumSymbols()
		if cap(p.gains) < ns {
			p.gains, p.ivar = make([]complex128, ns), make([]float64, ns)
		}
		gains, ivar := p.gains[:ns], p.ivar[:ns]
		start := float64(p.frame) * phySpacing
		for j := range gains {
			gains[j] = p.model.Gain(start + (float64(j)+0.5)*T)
		}
		p.tr.end(sp)

		sampled := p.frame%phyRefEvery == 0
		p.norms.rec, p.norms.buf = sampled, p.norms.buf[:0]
		sp = p.tr.begin("phy.receive", root, int32(p.frame))
		p.ws.QueueReceive(p.cfg, tx, gains, ivar, &p.norms)
		p.tr.end(sp)
		p.ref[k] = nil
		if sampled {
			// The transmission is workspace-aliased and about to be
			// overwritten: receive it unbatched now, on the same noise.
			sp = p.tr.begin("verify", root, int32(p.frame))
			rx := phy.ReceiveWS(p.refWS, p.cfg, tx, gains, ivar, &replayNorms{buf: p.norms.buf})
			p.refBuf = phyRef{detected: rx.Detected, payloadOK: rx.PayloadOK, bitErrors: rx.BitErrors,
				hints: append(p.refBuf.hints[:0], rx.Hints...)}
			p.ref[k] = &p.refBuf
			p.tr.end(sp)
		}
		p.frame++

		if k == phyBatch-1 {
			sp = p.tr.begin("phy.flush", root, int32(p.frame))
			rxs := p.ws.FlushReceptions()
			p.tr.end(sp)
			sp = p.tr.begin("softphy.decide", root, int32(p.frame))
			for j, rx := range rxs {
				fb := ctl.Feedback{Kind: core.KindSilentLoss, RateIndex: r.Index}
				if rx.Detected {
					fb.Kind, fb.BER, fb.Delivered = core.KindBER, softphy.FrameBER(rx.Hints), rx.PayloadOK
				}
				p.ctlr.Apply(fb)
				p.lat = append(p.lat, time.Since(p.txAt[j]))
				p.attempted++
				if ref := p.ref[j]; ref != nil && !ref.matches(rx) {
					p.failed++
					if p.firstMismatch == "" {
						p.firstMismatch = fmt.Sprintf("frame %d: batched receive differs from the unbatched reference", p.frame-phyBatch+j)
					}
				}
			}
			p.tr.end(sp)
		}
	}
}

func (ref *phyRef) matches(rx *phy.Reception) bool {
	if ref.detected != rx.Detected {
		return false
	}
	if !rx.Detected {
		return true
	}
	if ref.payloadOK != rx.PayloadOK || ref.bitErrors != rx.BitErrors || len(ref.hints) != len(rx.Hints) {
		return false
	}
	for i, h := range ref.hints {
		if h != rx.Hints[i] {
			return false
		}
	}
	return true
}

// putPooledLatency reports per-unit latencies pooled over a run as
// decide_p50_us, decide_p90_us and decide_p99_us. A percentile the sample
// does not support (fewer than ten samples beyond it) is reported as the
// maximum, and the note says so.
func putPooledLatency(run *report.Run, lat []time.Duration) {
	ns := make([]int64, len(lat))
	for i, d := range lat {
		ns[i] = int64(d)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	top := report.TopPercentile(len(ns))
	for _, p := range []float64{50, 90, 99} {
		v, _ := report.PercentileNs(ns, p)
		if p > 50 && p > top {
			v = ns[len(ns)-1]
		}
		run.Metrics[fmt.Sprintf("decide_p%g_us", p)] = report.Single(float64(v)/1e3, "us")
	}
	run.Notes = append(run.Notes, fmt.Sprintf("latency: %d pooled samples support p%g; percentiles above it are the maximum", len(ns), top))
}

func runPhyChain(o runOpts) (*report.Run, error) {
	run := newRun("phy-chain", o)
	base := liveBytes()
	var p *phyChain
	var setups []float64
	for r := 0; r < setupReps; r++ {
		var d time.Duration
		p, d = setupPhyChain(o.seed)
		setups = append(setups, d.Seconds())
	}
	run.Metrics["setup_s"] = report.Summarize(setups, "s")

	var fps, walls []float64
	deadline := time.Now().Add(o.seconds)
	for len(fps) < minTrials || time.Now().Before(deadline) {
		t0 := time.Now()
		p.frames(phyTrialFrames)
		wall := time.Since(t0).Seconds()
		fps = append(fps, phyTrialFrames/wall)
		walls = append(walls, wall)
	}
	// One decision per frame, so both rates count the same events.
	run.Metrics["frames_per_s"] = report.Summarize(fps, "1/s")
	run.Metrics["decisions_per_s"] = report.Summarize(fps, "1/s")
	run.Metrics["figs_wall_s"] = report.Summarize(walls, "s")
	putPooledLatency(run, p.lat)
	run.Metrics["resident_mib"] = report.Single(float64(int64(liveBytes())-int64(base))/(1<<20), "MiB")
	runtime.KeepAlive(p)

	run.Attempted, run.Failed = p.attempted, p.failed
	run.Correct = p.failed == 0
	if p.firstMismatch != "" {
		run.Notes = append(run.Notes, "first mismatch: "+p.firstMismatch)
	}
	return run, nil
}

// ---- paper-figs ----

// figSet is the figure set one untraced pass regenerates: the trace-driven
// §6 evaluation harnesses that finish in under a second each. fig13 and
// fig16 floor their simulated duration at 2 s and take 9 s and 6 s a pass
// at any scale — longer than a whole run — so they are timed once per
// traced run, as experiments.fig13_s and experiments.fig16_s.
var figSet = []string{"fig14", "fig15", "fig17", "fig18"}

// allFigs is the full §6 set the traced run times figure by figure.
var allFigs = []string{"fig13", "fig14", "fig15", "fig16", "fig17", "fig18"}

// figScale is the fixed experiments.Options.Scale (the harness tests'
// floor); figWorkers the engine's trial parallelism.
const (
	figScale   = 0.08
	figWorkers = 2
)

// figPass regenerates the figures once and returns each figure's wall
// time and the SHA-256 of every table's rendered bytes.
func figPass(ids []string, seed int64, workers int, tr *tracer) (walls []time.Duration, sum [32]byte, err error) {
	root := tr.begin("pass", -1, -1)
	defer tr.end(root)
	var buf bytes.Buffer
	for i, id := range ids {
		sp := tr.begin("experiments."+id, root, int32(i))
		t0 := time.Now()
		tables, err := experiments.Run(id, experiments.Options{Scale: figScale, Seed: seed, Workers: workers})
		walls = append(walls, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, sum, err
		}
		for _, t := range tables {
			t.Fprint(&buf)
		}
	}
	return walls, sha256.Sum256(buf.Bytes()), nil
}

// figSeed maps the benchmark seed to an experiments seed (which must be
// non-zero).
func figSeed(seed int64) int64 { return 1 + seed&0x7fffffff }

func runPaperFigs(o runOpts) (*report.Run, error) {
	run := newRun("paper-figs", o)
	seed := figSeed(o.seed)

	// Set-up is one warm pass over two figures: it pages in the
	// calibration tables and runs the engine's worker pool once.
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if _, _, err := figPass([]string{"fig15", "fig14"}, seed, figWorkers, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	run.Metrics["setup_s"] = report.Summarize(setups, "s")

	var passWalls, figsPerS []float64
	var figLat []time.Duration
	var first [32]byte
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(o.seconds)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		t0 := time.Now()
		walls, sum, err := figPass(figSet, seed, figWorkers, nil)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		passWalls = append(passWalls, wall)
		figsPerS = append(figsPerS, float64(len(figSet))/wall)
		figLat = append(figLat, walls...)
		// Every pass runs the same seed, so every pass must render the
		// same bytes: a figure is one attempted op, and a pass whose hash
		// differs from the first fails all of its figures.
		run.Attempted += uint64(len(figSet))
		if pass == 0 {
			first = sum
		} else if sum != first {
			run.Failed += uint64(len(figSet))
		}
	}
	run.Metrics["figs_wall_s"] = report.Summarize(passWalls, "s")
	// The unit of work here is a figure.
	run.Metrics["frames_per_s"] = report.Summarize(figsPerS, "1/s")
	run.Metrics["decisions_per_s"] = report.Summarize(figsPerS, "1/s")
	putPooledLatency(run, figLat)
	// A figure's heap is garbage the moment it returns, and how high the
	// live heap peaks between collections depends on when the collector
	// happens to run (15 % run to run). What repeats (within 0.5 %) is
	// the volume allocated per pass, so that stands in for residency here.
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	run.Metrics["resident_mib"] = report.Single(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(passWalls)), "MiB")
	run.Correct = run.Failed == 0
	run.OpDigest = fmt.Sprintf("%x", first)
	return run, nil
}

// minPasses is the fewest passes figs_wall_s is the median of.
const minPasses = 3
