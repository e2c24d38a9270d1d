package main

import (
	"fmt"
	"path/filepath"
	"time"

	"softrate/bench/report"
)

// The traced run. End-to-end metrics come from runs with tracing off; a
// traced run repeats the workload at FIXED work — a set number of trials
// of one trial's length, no clock-driven loop anywhere — recording spans
// at the boundaries the benchmark crosses and taking counter snapshots at
// the same boundaries, then runs the per-layer probes (probes.go). Because
// the work is fixed, every count it reports repeats exactly for a seed.

// traceReps is how many untraced/traced trial pairs feed
// trace.overhead_share.
const traceReps = 5

// zeroWorkloadMetrics presets the per-layer metrics that come from the
// traced workload itself rather than from a probe; a workload without the
// layer (the simulator has no link store) leaves them 0.
func zeroWorkloadMetrics(run *report.Run) {
	for _, n := range []string{
		"gen.busy_share", "gen.late_p99_us", "gen.max_rate_ok",
		"linkstore.creates", "linkstore.restores", "linkstore.evictions",
		"linkstore.cold_spills", "linkstore.cold_restores", "coldstore.dead_ratio",
		"decide_p50_us", "decide_p90_us", "decide_p99_us", "figs_wall_s",
	} {
		run.Metrics[n] = report.Single(0, unitOf(n))
	}
}

// overheadShare is 1 - traced/untraced throughput, from the medians of
// the alternating trials' wall times.
func overheadShare(untraced, traced []float64) float64 {
	u := report.Summarize(untraced, "s").Median
	t := report.Summarize(traced, "s").Median
	return 1 - u/t
}

func traceService(sp *serviceSpec, o runOpts) (*report.Run, error) {
	run := newRun(sp.name, o)
	zeroWorkloadMetrics(run)
	in, _, err := setupService(sp, o.seed, filepath.Join(o.dir, sp.name+"-traced"), false)
	if err != nil {
		return nil, err
	}
	defer in.close()
	run.OpDigest = in.digest

	var untraced, traced []float64
	var spans []span
	self := map[string]float64{}
	for rep := 0; rep < traceReps; rep++ {
		wall, err := in.trial()
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, wall.Seconds())

		for _, c := range in.callers {
			c.tr = newTracer(4*sp.trialBatches + 8)
		}
		before := in.srv.Stats().Store
		wall, err = in.trial()
		if err != nil {
			return nil, err
		}
		after := in.srv.Stats().Store
		traced = append(traced, wall.Seconds())
		if rep == 0 {
			// Counter snapshots bracket the first traced trial.
			d := func(a, b uint64) report.Value { return report.Single(float64(b-a), "count") }
			run.Metrics["linkstore.creates"] = d(before.Creates, after.Creates)
			run.Metrics["linkstore.restores"] = d(before.Restores, after.Restores)
			run.Metrics["linkstore.evictions"] = d(before.Evictions, after.Evictions)
			if before.Cold != nil {
				run.Metrics["linkstore.cold_spills"] = d(before.Cold.Spills, after.Cold.Spills)
				run.Metrics["linkstore.cold_restores"] = d(before.Cold.Restores, after.Cold.Restores)
				if total := after.Cold.LiveBytes + after.Cold.DeadBytes; total > 0 {
					run.Metrics["coldstore.dead_ratio"] = report.Single(float64(after.Cold.DeadBytes)/float64(total), "share")
				}
			}
			var fill float64
			for _, c := range in.callers {
				st := c.tr.selfTimes()
				for name, s := range st {
					self[name] += s
				}
				fill += st["gen.fill"] + st["verify"]
				spans = append(spans, c.tr.spans...)
			}
			run.Metrics["gen.busy_share"] = report.Single(fill/(wall.Seconds()*float64(len(in.callers))), "share")
		}
		for _, c := range in.callers {
			c.tr = nil
		}
	}
	run.Metrics["trace.overhead_share"] = report.Single(overheadShare(untraced, traced), "share")
	run.Metrics["figs_wall_s"] = report.Summarize(untraced, "s")
	run.SelfTime = self

	// Open loop at each fixed offered rate: latency, lateness, and the
	// highest rate that meets the limit without a growing backlog.
	maxOK := 0.0
	for _, rate := range sp.openRates {
		interval := time.Duration(float64(sp.openBatch) / rate * 1e9)
		lat, late, err := in.callers[0].openLoopTrial(sp.openTrialBatches, sp.openBatch, interval)
		if err != nil {
			return nil, err
		}
		st := summarizeLatency(lat, late)
		ok := st.lost == 0 && st.p99us <= float64(latencyLimit)/1e3 && !st.backlogged
		if ok && rate > maxOK {
			maxOK = rate
		}
		if rate == sp.openRate {
			run.Metrics["gen.late_p99_us"] = report.Single(st.lateP99us, "us")
			run.Metrics["decide_p50_us"] = report.Single(st.p50us, "us")
			run.Metrics["decide_p90_us"] = report.Single(st.p90us, "us")
			run.Metrics["decide_p99_us"] = report.Single(st.p99us, "us")
		}
		run.Notes = append(run.Notes, fmt.Sprintf("open loop at %.0f decisions/s: p50 %.1f us, p99 %.1f us (%d beyond), late p99 %.1f us, %d lost, backlog growing: %v",
			rate, st.p50us, st.p99us, st.beyondP99, st.lateP99us, st.lost, st.backlogged))
	}
	run.Metrics["gen.max_rate_ok"] = report.Single(maxOK, "1/s")

	in.verdict(run)
	run.Metrics["gen.ops_attempted"] = report.Single(float64(run.Attempted), "count")
	run.Metrics["gen.ops_failed"] = report.Single(float64(run.Failed), "count")
	return run, writeSpans(o, sp.name, spans, run)
}

// writeSpans writes the traced run's spans next to the build output.
func writeSpans(o runOpts, workload string, spans []span, run *report.Run) error {
	path := filepath.Join(filepath.Dir(o.dir), "spans-"+workload+".jsonl")
	if err := writeJSONL(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	run.Notes = append(run.Notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return nil
}

func tracePhyChain(o runOpts) (*report.Run, error) {
	run := newRun("phy-chain", o)
	zeroWorkloadMetrics(run)
	p, _ := setupPhyChain(o.seed)
	var untraced, traced []float64
	var spans []span
	for rep := 0; rep < traceReps; rep++ {
		t0 := time.Now()
		p.frames(phyTrialFrames)
		untraced = append(untraced, time.Since(t0).Seconds())
		p.tr = newTracer(8 * phyTrialFrames)
		t0 = time.Now()
		p.frames(phyTrialFrames)
		traced = append(traced, time.Since(t0).Seconds())
		if rep == 0 {
			run.SelfTime = p.tr.selfTimes()
			spans = p.tr.spans
		}
		p.tr = nil
	}
	run.Metrics["trace.overhead_share"] = report.Single(overheadShare(untraced, traced), "share")
	run.Metrics["figs_wall_s"] = report.Summarize(untraced, "s")
	run.Attempted, run.Failed = p.attempted, p.failed
	run.Metrics["gen.ops_attempted"] = report.Single(float64(run.Attempted), "count")
	run.Metrics["gen.ops_failed"] = report.Single(float64(run.Failed), "count")
	putPooledLatency(run, p.lat)
	run.Correct = p.failed == 0
	if p.firstMismatch != "" {
		run.Notes = append(run.Notes, "first mismatch: "+p.firstMismatch)
	}
	return run, writeSpans(o, "phy-chain", spans, run)
}

func tracePaperFigs(o runOpts) (*report.Run, error) {
	run := newRun("paper-figs", o)
	zeroWorkloadMetrics(run)
	seed := figSeed(o.seed)
	t0 := time.Now()
	_, first, err := figPass(figSet, seed, figWorkers, nil)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0).Seconds()
	tr := newTracer(16)
	t0 = time.Now()
	walls, sum, err := figPass(figSet, seed, figWorkers, tr)
	if err != nil {
		return nil, err
	}
	traced := time.Since(t0).Seconds()
	run.Metrics["trace.overhead_share"] = report.Single(1-untraced/traced, "share")
	run.Metrics["figs_wall_s"] = report.Single(untraced, "s")
	run.SelfTime = tr.selfTimes()
	run.Attempted = uint64(2 * len(figSet))
	if sum != first {
		run.Failed = uint64(len(figSet))
	}
	run.Metrics["gen.ops_attempted"] = report.Single(float64(run.Attempted), "count")
	run.Metrics["gen.ops_failed"] = report.Single(float64(run.Failed), "count")
	putPooledLatency(run, walls)
	run.Correct = run.Failed == 0
	return run, writeSpans(o, "paper-figs", tr.spans, run)
}
