package netsim

import (
	"math/rand"

	"softrate/internal/core"
	"softrate/internal/rate"
	"softrate/internal/ratectl"
	"softrate/internal/trace"
)

// Algorithm is one entry of the paper's §6.1 comparison set.
type Algorithm struct {
	// Name is the figure legend's name, e.g. "SNR (trained)".
	Name string
	// Key is the command-line name, e.g. "snr". Every key but
	// "omniscient" is also the ctl registry name of the algorithm's
	// served configuration.
	Key string
	// Factory builds the algorithm's controller for one link.
	Factory AdapterFactory
}

// Algorithms returns the §6.1 comparison set in the paper's legend order.
func Algorithms() []Algorithm {
	return []Algorithm{
		{"Omniscient", "omniscient", Omniscient},
		{"SoftRate", "softrate", SoftRate},
		{"SNR (trained)", "snr", TrainedSNR},
		{"CHARM", "charm", TrainedCHARM},
		{"RRAA", "rraa", RRAA},
		{"SampleRate", "samplerate", SampleRate},
	}
}

// evalRates and nominalAirtimes are the rate set and 1400-byte lossless
// airtimes every link's SampleRate and RRAA read; the controllers never
// write them, so all links share one copy.
var (
	evalRates       = rate.Evaluation()
	nominalAirtimes = ratectl.NominalAirtimes()
)

// Omniscient picks every frame's best rate from the link's own trace: the
// §6.1 upper bound, not a realizable protocol.
func Omniscient(fwd *trace.LinkTrace, _ *rand.Rand) ratectl.Adapter {
	return &ratectl.Omniscient{Oracle: fwd.BestRateAt}
}

// SoftRate is the paper's algorithm in its default configuration, the
// same controller ctl's registry serves as "softrate".
func SoftRate(*trace.LinkTrace, *rand.Rand) ratectl.Adapter {
	return ratectl.NewSoftRate(core.DefaultConfig())
}

// TrainedSNR is the per-frame SNR protocol with thresholds trained on the
// link's own trace (§6.1 computes SNR-BER relationships "from the traces
// used for evaluation").
func TrainedSNR(fwd *trace.LinkTrace, _ *rand.Rand) ratectl.Adapter {
	return ratectl.NewSNRBased(trainedThresholds(fwd), "SNR (trained)")
}

// TrainedCHARM is CHARM trained the same way as TrainedSNR.
func TrainedCHARM(fwd *trace.LinkTrace, _ *rand.Rand) ratectl.Adapter {
	return ratectl.NewCHARM(trainedThresholds(fwd))
}

func trainedThresholds(fwd *trace.LinkTrace) []float64 {
	return ratectl.TrainThresholds(fwd.TrainingSamples(), fwd.NumRates(), 0.9)
}

// RRAA is RRAA with adaptive RTS on.
func RRAA(*trace.LinkTrace, *rand.Rand) ratectl.Adapter {
	return ratectl.NewRRAA(evalRates, nominalAirtimes, true)
}

// SampleRate is SampleRate with its own math/rand source, seeded by one
// draw from the run's rng.
func SampleRate(_ *trace.LinkTrace, rng *rand.Rand) ratectl.Adapter {
	return ratectl.NewSampleRate(evalRates, nominalAirtimes, rand.New(rand.NewSource(rng.Int63())))
}
