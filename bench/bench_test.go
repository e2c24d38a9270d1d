package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"softrate/bench/report"
	"softrate/internal/linkstore"
)

// tinyColdChurn is cold-churn at 1/100 size, on the same virtual clock:
// 50 hot links, a 2070-link cold population lapped every 18 batches
// against a 5-batch TTL and a 328-link RAM front.
func tinyColdChurn() *serviceSpec {
	sp := *findServiceSpec("cold-churn")
	sp.hotLinks = 50
	sp.lapBatches = 18
	sp.trialBatches = 18
	sp.ttl = 5 * vtick
	sp.coldFront = 328
	sp.openTrialBatches = 50
	return &sp
}

// digestOf generates `batches` batches for a seed against a stand-in
// server that answers every op with rate (RateIndex+1) mod 6.
func digestOf(seed int64, batches int) string {
	g := newGenerators(genConfig{seed: seed, callers: 1, hotLinks: 500}, mobileTraces(seed))[0]
	g.startDigest()
	var ops []linkstore.Op
	var idx []int32
	out := make([]int32, 64)
	for b := 0; b < batches; b++ {
		ops, idx = g.fill(64, ops, idx)
		for i := range ops {
			out[i] = (ops[i].RateIndex + 1) % 6
		}
		g.absorb(ops, idx, out)
	}
	return g.stopDigest()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := digestOf(7, 40), digestOf(7, 40), digestOf(8, 40)
	if a != b {
		t.Errorf("same seed, different op streams: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 generated the same op stream %s", a)
	}
}

// TestOpenLoopChargesAStallToTheRequestsBehindIt drives the pacer on a
// fake clock: sends are instantaneous and answers take 2 ms, except that
// the third send stalls for 50 ms. Requests 3 and 4 were due during the
// stall; their latency must run from when they were DUE, and the pacer
// must report how late they left.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	var now time.Duration
	const interval = 10 * time.Millisecond
	sentAt := map[int]time.Duration{}
	lat, late, err := openLoop(func() time.Duration { return now }, 6, interval, 8,
		func(i int) error {
			if i == 2 {
				now += 50 * time.Millisecond
			}
			sentAt[i] = now
			return nil
		},
		func(i int) (bool, error) {
			if done := sentAt[i] + 2*time.Millisecond; now < done {
				now = done
			}
			return i != 5, nil // the last request is never answered
		},
		func(int, bool) {},
		func() { now += time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Request 2 was due at 20 ms, stalled until 70, answered at 72.
	if got := ms(lat[2]); got != 52 {
		t.Errorf("stalled request: latency %v ms, want 52", got)
	}
	// Request 3 was due at 30 ms but could only leave when the stall
	// ended at 70 ms: 40 ms late, and that wait is part of its latency.
	if got := ms(late[3]); got != 40 {
		t.Errorf("request behind the stall left %v ms late, want 40", got)
	}
	if got := ms(lat[3]); got != 42 {
		t.Errorf("request behind the stall: latency %v ms from its due time, want 42", got)
	}
	if ms(late[0]) != 0 || ms(lat[0]) != 2 {
		t.Errorf("undisturbed request: late %v ms, latency %v ms, want 0 and 2", ms(late[0]), ms(lat[0]))
	}
	if lat[5] != lost {
		t.Errorf("unanswered request has latency %v, want the lost marker", lat[5])
	}
	if st := summarizeLatency(lat, late); st.lost != 1 || st.lateP99us != 40000 {
		t.Errorf("summary: lost %d, late p99 %v us; want 1 and 40000", st.lost, st.lateP99us)
	}
}

// coldCounts runs tiny cold-churn (set-up plus three laps) and returns
// the store's churn counters.
func coldCounts(t *testing.T, seed int64) [5]uint64 {
	in, _, err := setupService(tinyColdChurn(), seed, filepath.Join(t.TempDir(), "cc"), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := in.trial(); err != nil {
			t.Fatal(err)
		}
	}
	st := in.srv.Stats().Store
	if _, failed, mismatch := in.counts(); failed != 0 {
		t.Errorf("%d ops failed: %s", failed, mismatch)
	}
	if err := in.close(); err != nil {
		t.Fatal(err)
	}
	return [5]uint64{st.Creates, st.Restores, st.Evictions, st.Cold.Spills, st.Cold.Restores}
}

func TestColdChurnCountsRepeatOnTheVirtualClock(t *testing.T) {
	a, b := coldCounts(t, 3), coldCounts(t, 3)
	if a != b {
		t.Errorf("creates/restores/evictions/cold spills/cold restores differ between two runs of one seed: %v vs %v", a, b)
	}
	if a[3] == 0 || a[4] == 0 {
		t.Errorf("tiny cold-churn never reached the disk tier: counts %v", a)
	}
}

func TestACorruptReferenceFailsTheRun(t *testing.T) {
	o := runOpts{seed: 5, seconds: 10 * time.Millisecond, dir: t.TempDir()}
	run, err := runService(tinyColdChurn(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct || exitStatus(run) != 0 {
		t.Fatalf("clean run: correct=%v, %d of %d failed", run.Correct, run.Failed, run.Attempted)
	}
	o.corruptRef = true
	run, err = runService(tinyColdChurn(), o)
	if err != nil {
		t.Fatal(err)
	}
	if run.Correct || run.Failed == 0 || exitStatus(run) == 0 {
		t.Errorf("one reference controller was corrupted, yet the run passed: correct=%v failed=%d", run.Correct, run.Failed)
	}
}

// TestBenchmarkJSONMatchesTheSpec keeps BENCHMARK.json equal to spec.go
// and checks that the driver's result line carries exactly the declared
// metrics.
func TestBenchmarkJSONMatchesTheSpec(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk report.Spec
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `bash bench/run.sh -spec > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]report.Metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, traced := range []bool{false, true} {
		run := &report.Run{Traced: traced, Attempted: 1, Correct: true, Metrics: map[string]report.Value{}}
		list := endToEnd
		if traced {
			list = perLayer
		}
		for _, m := range list {
			run.Metrics[m.Name] = report.Single(1, m.Unit)
		}
		run.Metrics["raw.extra"] = report.Single(1, "s")
		var res struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(contractLine(run)), &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(list) {
			t.Errorf("traced=%v: result line has %d metrics, the spec declares %d", traced, len(res.Metrics), len(list))
		}
	}
}
