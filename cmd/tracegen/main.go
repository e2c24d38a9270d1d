// Command tracegen generates link traces (the §6.1 methodology) and writes
// them as gzip-compressed JSON for inspection or replay.
//
// Usage:
//
//	tracegen -kind walking -duration 10 -seed 3 -o walking.trace.gz
//	tracegen -kind fading -doppler 400 -snr 18 -o vehicular.trace.gz
//	tracegen -kind static -snr 20 -o static.trace.gz
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"softrate/internal/channel"
	"softrate/internal/trace"
)

func main() { os.Exit(run(os.Args[1:])) }

// run generates and writes one trace and returns the exit status: 2 for
// bad flags, 1 when the trace cannot be written.
func run(args []string) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		kind     = fs.String("kind", "walking", "channel kind: walking | fading | static")
		duration = fs.Float64("duration", 10, "trace duration in seconds (at least one 1 ms slot)")
		doppler  = fs.Float64("doppler", 40, "Doppler spread in Hz (fading kind)")
		snr      = fs.Float64("snr", 18, "mean SNR in dB (fading/static kinds)")
		payload  = fs.Int("payload", 1400, "frame payload bytes the trace describes")
		seed     = fs.Int64("seed", 1, "PRNG seed")
		out      = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*duration >= trace.DefaultInterval) {
		fmt.Fprintf(os.Stderr, "-duration %v is shorter than one %v s slot\n", *duration, trace.DefaultInterval)
		return 2
	}

	model, err := channel.NewKind(*kind, rand.New(rand.NewSource(*seed)), *snr, *doppler)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	lt := trace.Generate(trace.GenConfig{
		Model:        model,
		Duration:     *duration,
		PayloadBytes: *payload,
		Seed:         *seed + 1,
	})

	if *out != "" {
		err = trace.SaveFile(*out, lt)
	} else {
		err = trace.Save(os.Stdout, lt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %d rates x %d slots (%.1f s, monotone-BER fraction %.2f)\n",
		lt.NumRates(), len(lt.Snapshots[0]), lt.Duration(), lt.MonotoneBERFraction())
	return 0
}
