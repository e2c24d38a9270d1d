// Command softrate-experiments regenerates the tables and figures of the
// SoftRate paper (SIGCOMM 2009) from this repository's simulation stack.
//
// Usage:
//
//	softrate-experiments -list
//	softrate-experiments -run fig13 [-scale 1.0] [-seed 42] [-workers 4]
//	softrate-experiments -all [-scale 0.25] [-format json|csv]
//
// Scale 1.0 approximates the paper's sample sizes (slow); the default 0.25
// reproduces every shape in a few minutes. Experiments shard into
// independent trials executed across -workers goroutines (default: one
// per CPU); output is byte-identical at any worker count for a fixed
// seed. Tables go to stdout — as aligned text (default), JSON or CSV —
// and per-experiment wall times go to stderr. Bad flags exit 2 before any
// experiment runs, with nothing on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"softrate/internal/experiments"
)

// report is one experiment's machine-readable output. It carries no
// timing: stdout must be byte-identical across runs for a fixed seed so
// results can be diffed across commits; wall times go to stderr.
type report struct {
	Experiment string               `json:"experiment"`
	Tables     []*experiments.Table `json:"tables"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run regenerates the chosen experiments and returns the exit status: 2
// for bad flags, 1 if an experiment or its output fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("softrate-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiment IDs")
		runIDs  = fs.String("run", "", "comma-separated experiment IDs to run")
		all     = fs.Bool("all", false, "run every experiment")
		scale   = fs.Float64("scale", 0.25, "sample-size scale (1.0 = paper scale)")
		seed    = fs.Int64("seed", 1, "PRNG seed (nonzero)")
		workers = fs.Int("workers", 0, "max concurrent trials (0 = one per CPU)")
		format  = fs.String("format", "text", "output format: text, json or csv")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return bad("-scale %v: want a finite value above 0", *scale)
	}
	if *seed == 0 {
		return bad("-seed 0: want a nonzero seed (0 would run seed 1)")
	}
	switch *format {
	case "text", "json", "csv":
	default:
		return bad("unknown -format %q (want text, json or csv)", *format)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *runIDs != "":
		known := experiments.IDs()
		for _, id := range strings.Split(*runIDs, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			if !slices.Contains(known, id) {
				return bad("unknown experiment %q (-list shows them)", id)
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return bad("-run %q names no experiment", *runIDs)
		}
	default:
		fmt.Fprintln(stderr, "specify -list, -run <ids> or -all")
		fs.Usage()
		return 2
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers}
	var reports []report
	total := time.Duration(0)
	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(stderr, "error: %v\n", err)
			return 1
		}
		elapsed := time.Since(start)
		total += elapsed

		switch *format {
		case "text":
			for _, t := range tables {
				t.Fprint(stdout)
			}
		case "csv":
			for _, t := range tables {
				if err := t.WriteCSV(stdout); err != nil {
					fmt.Fprintf(stderr, "error: %v\n", err)
					return 1
				}
			}
		case "json":
			reports = append(reports, report{Experiment: id, Tables: tables})
		}
		fmt.Fprintf(stderr, "-- %s completed in %v --\n", id, elapsed.Round(time.Millisecond))
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(stderr, "error: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "-- total: %d experiment(s) in %v --\n", len(ids), total.Round(time.Millisecond))
	return 0
}
