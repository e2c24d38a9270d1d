// Command bench is the repository's one benchmark: seven workloads over
// softrated (the decision service) and the simulator (the PHY chain and
// the trace-driven figure harnesses), named end-to-end metrics with
// regression bounds, per-layer probes, and a separate traced run.
//
//	bash bench/run.sh -seed 1 -out A.json            # every workload, tracing off
//	bash bench/run.sh -workload wire-udp -seed 1     # one workload
//	bash bench/run.sh -workload wire-udp -trace 1    # its traced run: per-layer numbers
//	bash bench/run.sh -spec                          # print BENCHMARK.json
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. The exit status is
// non-zero ("correct" false) when answers disagreed with their reference
// beyond the workload's failed_share bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"softrate/bench/report"
)

// setupReps is how many times a run sets a workload up; setup_s is the
// median.
const setupReps = 3

// runOpts are one workload run's inputs.
type runOpts struct {
	seed    int64
	seconds time.Duration
	dir     string // scratch directory, inside the checkout
	traced  bool
	// corruptRef makes one reference controller wrong on purpose (tests).
	corruptRef bool
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all seven)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 8, "how long one untraced run measures")
	trace := fs.Int("trace", 0, "1 makes the traced run: spans, counter snapshots, per-layer probes")
	out := fs.String("out", "", "also write the full report (quartiles, env stamp, notes) to this file")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		blob, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
		fmt.Fprintln(stdout, string(blob))
		return 0
	}

	// Load comes from one process with at most two load goroutines; two
	// Ps keep the server's goroutines from being starved by them and
	// make the numbers comparable across hosts with more cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	names := []string{*workload}
	if *workload == "" {
		names = workloadNames()
	}
	file := report.File{Schema: report.Schema, Env: envStamp(".", scratch)}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: scratch, traced: *trace != 0}
	status := 0
	for _, name := range names {
		run, err := runWorkload(name, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printRun(stderr, run)
		file.Runs = append(file.Runs, *run)
		if exitStatus(run) != 0 {
			fmt.Fprintf(stderr, "bench: %s: FAILED: %d of %d ops failed, beyond the workload's failed_share bound\n",
				name, run.Failed, run.Attempted)
			status = 1
		}
	}
	if *out != "" {
		if err := file.Save(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *workload != "" {
		fmt.Fprintln(stdout, contractLine(&file.Runs[0]))
	}
	return status
}

// newRun starts a workload's result.
func newRun(workload string, o runOpts) *report.Run {
	return &report.Run{Workload: workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Metrics: map[string]report.Value{}}
}

// exitStatus is a run's contribution to the process exit status: non-zero
// when its failed_share bound was exceeded.
func exitStatus(run *report.Run) int {
	if run.Correct {
		return 0
	}
	return 1
}

// runWorkload runs one workload between two spin-score readings.
func runWorkload(name string, o runOpts, stderr io.Writer) (*report.Run, error) {
	before := spinScore()
	var run *report.Run
	var err error
	sp := findServiceSpec(name)
	switch {
	case sp != nil && o.traced:
		run, err = traceService(sp, o)
	case sp != nil:
		run, err = runService(sp, o)
	case name == "phy-chain" && o.traced:
		run, err = tracePhyChain(o)
	case name == "phy-chain":
		run, err = runPhyChain(o)
	case name == "paper-figs" && o.traced:
		run, err = tracePaperFigs(o)
	case name == "paper-figs":
		run, err = runPaperFigs(o)
	default:
		err = fmt.Errorf("unknown workload (have %v)", workloadNames())
	}
	if err != nil {
		return nil, err
	}
	if o.traced {
		fmt.Fprintf(stderr, "bench: %s: running the per-layer probes\n", name)
		if err := probeSuite(run, o); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	run.Traced = o.traced
	run.SpinBefore, run.SpinAfter = before, spinScore()
	return run, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// printRun prints every metric by name with its unit, quartiles and
// sample count.
func printRun(w io.Writer, run *report.Run) {
	mode := "end-to-end, tracing off"
	if run.Traced {
		mode = "traced run, per-layer"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s) ==\n", run.Workload, run.Seed, mode)
	names := make([]string, 0, len(run.Metrics))
	for n := range run.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := run.Metrics[n]
		fmt.Fprintf(w, "  %-42s %16.6g %-6s q1 %.6g  q3 %.6g  n %d\n", n, v.Median, v.Unit, v.Q1, v.Q3, v.N)
	}
	share := 0.0
	if run.Attempted > 0 {
		share = float64(run.Failed) / float64(run.Attempted)
	}
	fmt.Fprintf(w, "  %-42s %16.6g        (%d failed of %d attempted)\n", "failed_share", share, run.Failed, run.Attempted)
	fmt.Fprintf(w, "  %-42s %16.6g\n  %-42s %16.6g\n", "env.spin_before", run.SpinBefore, "env.spin_after", run.SpinAfter)
	for _, n := range run.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// contractLine renders a run as the driver's result object: exactly the
// end-to-end metrics of an untraced run, exactly the per-layer metrics of
// a traced one.
func contractLine(run *report.Run) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEnd
	if run.Traced {
		list = perLayer
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{run.Correct, run.Attempted, run.Failed, map[string]mv{}}
	for _, m := range list {
		v, ok := run.Metrics[m.Name]
		if !ok {
			panic("bench: workload " + run.Workload + " did not produce metric " + m.Name)
		}
		res.Metrics[m.Name] = mv{v.Median, m.Unit}
	}
	blob, _ := json.Marshal(res)
	return string(blob)
}

func benchmarkSpec() report.Spec {
	return report.Spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 8,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
