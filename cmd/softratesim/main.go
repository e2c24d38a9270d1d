// Command softratesim runs a single-link TCP simulation with a chosen rate
// adaptation algorithm over a chosen channel — a quick way to compare
// algorithms outside the fixed experiment harnesses.
//
// Usage:
//
//	softratesim -alg softrate -channel walking -duration 10
//	softratesim -alg samplerate -channel fading -doppler 400 -snr 18
//	softratesim -alg all -channel walking
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"softrate/internal/channel"
	"softrate/internal/netsim"
	"softrate/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run simulates the chosen algorithms, writes one result row per algorithm
// to stdout and returns the exit status: 2 for bad flags.
func run(args []string, stdout io.Writer) int {
	var keys []string
	for _, a := range netsim.Algorithms() {
		keys = append(keys, a.Key)
	}
	fs := flag.NewFlagSet("softratesim", flag.ContinueOnError)
	var (
		alg      = fs.String("alg", "softrate", strings.Join(keys, " | ")+" | all")
		chanKind = fs.String("channel", "walking", "walking | fading | static")
		doppler  = fs.Float64("doppler", 40, "Doppler Hz (fading)")
		snr      = fs.Float64("snr", 18, "mean SNR dB (fading/static)")
		duration = fs.Float64("duration", 10, "seconds (at least one 1 ms slot)")
		flows    = fs.Int("flows", 1, "number of TCP flows/clients")
		seed     = fs.Int64("seed", 1, "PRNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
		return 2
	}
	if *flows < 1 {
		return bad("-flows %d: need at least one flow", *flows)
	}
	if !(*duration >= trace.DefaultInterval) {
		return bad("-duration %v is shorter than one %v s slot", *duration, trace.DefaultInterval)
	}
	var algs []netsim.Algorithm
	for _, a := range netsim.Algorithms() {
		if *alg == "all" || *alg == a.Key {
			algs = append(algs, a)
		}
	}
	if len(algs) == 0 {
		return bad("unknown algorithm %q (want %s | all)", *alg, strings.Join(keys, " | "))
	}

	var fwd, rev []*trace.LinkTrace
	for i := 0; i < *flows; i++ {
		for j := 0; j < 2; j++ {
			s := *seed + int64(2*i+j)
			model, err := channel.NewKind(*chanKind, rand.New(rand.NewSource(s)), *snr, *doppler)
			if err != nil { // an unknown kind fails here, before the first trace
				return bad("%v", err)
			}
			lt := trace.Generate(trace.GenConfig{Model: model, Duration: *duration, Seed: s + 100})
			if j == 0 {
				fwd = append(fwd, lt)
			} else {
				rev = append(rev, lt)
			}
		}
	}

	for _, a := range algs {
		cfg := netsim.DefaultConfig()
		cfg.Duration = *duration
		cfg.Seed = *seed
		res := netsim.RunUplink(cfg, fwd, rev, a.Factory)
		fmt.Fprintf(stdout, "%-12s aggregate %7.2f Mbps", a.Key, res.AggregateBps/1e6)
		for i, f := range res.Flows {
			fmt.Fprintf(stdout, "  flow%d %.2f Mbps (retx %d, timeouts %d)", i, f.ThroughputBps/1e6, f.Retransmits, f.Timeouts)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
