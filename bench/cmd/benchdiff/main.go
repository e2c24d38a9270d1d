// Command benchdiff compares two bench reports (bench -out A.json,
// B.json): one row per workload and end-to-end metric with both medians,
// both quartile pairs and the ratio B/A, judged against the bounds in
// BENCHMARK.json.
//
//	cd bench && go run ./cmd/benchdiff A.json B.json
//
// A side may hold several runs of a workload (append reports with
// repeated -a / -b, or pass files that already contain several); the
// side's value is then the median of the runs' medians and its quartiles
// are taken across runs. With one run a side, the run's own trial
// quartiles are used.
//
// Verdicts: "ok" — B is not worse than A by more than the metric's bound;
// "worse" — it is; "unresolved" — either side's quartile spread is wider
// than the bound, so the comparison cannot tell. Exact-count metrics of
// traced runs with equal seeds must be identical ("same" / "differs").
// Exit status 1 when any row is "worse" or "differs".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"softrate/bench/report"
)

// exactCounts are the per-layer metrics that are functions of the op
// stream alone and so must repeat exactly for a seed.
var exactCounts = []string{
	"gen.ops_attempted", "linkstore.creates", "linkstore.restores",
	"linkstore.evictions", "linkstore.cold_spills", "linkstore.cold_restores",
}

type multi []string

func (m *multi) String() string     { return strings.Join(*m, ",") }
func (m *multi) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	specPath := flag.String("spec", "", "the benchmark contract holding the bounds (default: BENCHMARK.json here or one directory up)")
	var as, bs multi
	flag.Var(&as, "a", "additional report for side A (repeatable)")
	flag.Var(&bs, "b", "additional report for side B (repeatable)")
	flag.Parse()
	if flag.NArg() == 2 {
		as = append(as, flag.Arg(0))
		bs = append(bs, flag.Arg(1))
	}
	if len(as) == 0 || len(bs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-spec BENCHMARK.json] A.json B.json")
		os.Exit(2)
	}
	if *specPath == "" {
		*specPath = "BENCHMARK.json"
		if _, err := os.Stat(*specPath); err != nil {
			*specPath = "../BENCHMARK.json"
		}
	}
	spec, err := report.LoadSpec(*specPath)
	if err == nil {
		var a, b []report.Run
		if a, err = loadRuns(as); err == nil {
			b, err = loadRuns(bs)
		}
		if err == nil {
			if bad := diff(os.Stdout, spec, a, b); bad {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func loadRuns(paths []string) ([]report.Run, error) {
	var runs []report.Run
	for _, p := range paths {
		f, err := report.Load(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, f.Runs...)
	}
	return runs, nil
}

// side reduces one side's runs of one workload to a value for a metric.
func side(runs []report.Run, workload, metric string, traced bool) (report.Value, bool) {
	var medians []float64
	var single report.Value
	for _, r := range runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			medians = append(medians, v.Median)
			single = v
		}
	}
	switch len(medians) {
	case 0:
		return report.Value{}, false
	case 1:
		return single, true
	}
	return report.Summarize(medians, single.Unit), true
}

func spread(v report.Value) float64 {
	if v.Median == 0 {
		return 0
	}
	s := (v.Q3 - v.Q1) / v.Median
	if s < 0 {
		s = -s
	}
	return s
}

// diff prints the comparison and reports whether any row failed.
func diff(w io.Writer, spec *report.Spec, a, b []report.Run) (bad bool) {
	fmt.Fprintf(w, "%-11s %-16s %14s %25s %14s %25s %8s  %s\n",
		"workload", "metric", "A median", "A [q1, q3] n", "B median", "B [q1, q3] n", "B/A", "verdict (bound)")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, okA := side(a, wl.Name, m.Name, false)
			vb, okB := side(b, wl.Name, m.Name, false)
			if !okA || !okB {
				continue
			}
			ratio := vb.Median / va.Median
			verdict := "ok"
			switch {
			case m.Better == "higher" && ratio < 1-m.Bound, m.Better == "lower" && ratio > 1+m.Bound:
				verdict = "worse"
				bad = true
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-11s %-16s %14.6g %25s %14.6g %25s %8.4f  %s (%.2f, %s is better)\n",
				wl.Name, m.Name, va.Median, quart(va), vb.Median, quart(vb), ratio, verdict, m.Bound, m.Better)
		}
		fa, na := failedShare(a, wl.Name)
		fb, nb := failedShare(b, wl.Name)
		if na > 0 && nb > 0 {
			fmt.Fprintf(w, "%-11s %-16s %14.3g %25s %14.3g %25s\n", wl.Name, "failed_share", fa, "", fb, "")
		}
		bad = exact(w, wl.Name, a, b) || bad
	}
	return bad
}

func quart(v report.Value) string {
	return fmt.Sprintf("[%.5g, %.5g] %d", v.Q1, v.Q3, v.N)
}

func failedShare(runs []report.Run, workload string) (share float64, n int) {
	var failed, attempted uint64
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
			n++
		}
	}
	if attempted == 0 {
		return 0, n
	}
	return float64(failed) / float64(attempted), n
}

// exact compares the exact-count metrics of traced runs that share a
// workload and a seed.
func exact(w io.Writer, workload string, a, b []report.Run) (bad bool) {
	bySeed := map[int64]*report.Run{}
	for i := range a {
		if a[i].Workload == workload && a[i].Traced {
			bySeed[a[i].Seed] = &a[i]
		}
	}
	var seeds []int64
	pairs := map[int64]*report.Run{}
	for i := range b {
		if b[i].Workload == workload && b[i].Traced && bySeed[b[i].Seed] != nil {
			seeds = append(seeds, b[i].Seed)
			pairs[b[i].Seed] = &b[i]
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		ra, rb := bySeed[seed], pairs[seed]
		for _, name := range exactCounts {
			va, vb := ra.Metrics[name].Median, rb.Metrics[name].Median
			verdict := "same"
			if va != vb {
				verdict = "differs"
				bad = true
			}
			fmt.Fprintf(w, "%-11s %-24s %14.0f %14.0f  seed %d  %s\n", workload, name, va, vb, seed, verdict)
		}
	}
	return bad
}
