// Package trace implements the trace-driven PHY methodology of §6.1: a
// link's channel behaviour is captured, per bit rate, as a time series of
// snapshots that completely specify what would happen to a frame sent at
// any instant — whether it is detected and delivered, what SNR estimate
// the receiver would measure, and what interference-free BER its SoftPHY
// hints would report. The network simulator then replays these snapshots
// instead of running the expensive PHY chain per frame.
//
// The paper seeds its ns-3 simulations with traces captured from live
// software-radio runs; lacking radios, we generate traces by sweeping the
// same fading channel models through the PHY's Monte-Carlo calibration
// (phy.BERModel). Crucially, all rates of a link share one fading process
// evaluated at identical times, satisfying the consistency requirement the
// paper verifies ("the BER across the various bit rates is monotonic in
// 96% of such 5 ms cycles"). That sharing is structural: Generate sweeps
// the channel once per time slot and every rate reads a prefix of the same
// SNR series, rather than each rate recomputing a process that merely
// evaluates to the same values.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/core"
	"softrate/internal/ofdm"
	"softrate/internal/phy"
	"softrate/internal/rate"
)

// Snapshot captures the channel's effect on one hypothetical frame sent at
// one instant at one rate.
type Snapshot struct {
	// Detected reports whether the preamble would be found.
	Detected bool
	// Delivered reports whether the frame would be received intact.
	Delivered bool
	// DeliverProb is the underlying delivery probability (the oracle's
	// knowledge; Delivered is one draw from it).
	DeliverProb float64
	// BER is the interference-free channel BER the receiver's SoftPHY
	// hints would estimate over the frame.
	BER float64
	// SNRdB is the preamble-based SNR estimate the receiver would echo.
	SNRdB float64
}

// LinkTrace is the per-rate snapshot series for one unidirectional link.
type LinkTrace struct {
	// Interval is the snapshot spacing in seconds.
	Interval float64
	// FrameBits is the frame size the snapshots were generated for.
	FrameBits int
	// Snapshots[rateIdx][slot] is the snapshot grid.
	Snapshots [][]Snapshot
}

// NumRates returns the number of rates traced.
func (lt *LinkTrace) NumRates() int { return len(lt.Snapshots) }

// Duration returns the trace length in seconds.
func (lt *LinkTrace) Duration() float64 {
	if len(lt.Snapshots) == 0 {
		return 0
	}
	return float64(len(lt.Snapshots[0])) * lt.Interval
}

// slot maps a time to a snapshot index, wrapping so simulations may run
// longer than the trace (the paper's ten 10-second traces are similarly
// reused across runs).
func (lt *LinkTrace) slot(t float64) int {
	n := len(lt.Snapshots[0])
	s := int(math.Floor(t/lt.Interval)) % n
	if s < 0 {
		s += n
	}
	return s
}

// At returns the snapshot governing a frame sent at time t at rate index
// ri.
func (lt *LinkTrace) At(ri int, t float64) Snapshot {
	return lt.Snapshots[ri][lt.slot(t)]
}

// BestRateAt implements the omniscient oracle of §6.1: "always picks the
// highest rate guaranteed to succeed, which a simulator with a priori
// knowledge of channel characteristics computes from the traces". Since a
// trace completely specifies each frame's fate, "guaranteed" means the
// realized outcome at that slot: the highest rate whose snapshot actually
// delivers; rate 0 if none does.
func (lt *LinkTrace) BestRateAt(t float64) int {
	best := 0
	s := lt.slot(t)
	for ri := range lt.Snapshots {
		if lt.Snapshots[ri][s].Delivered {
			best = ri
		}
	}
	return best
}

// MonotoneBERFraction returns the fraction of slots in which the BER is
// non-decreasing across rates — the cross-rate consistency metric the
// paper reports as 96%. Like any measurement on estimated BERs, the check
// tolerates estimator noise: a violation requires the faster rate's BER to
// fall below half of the slower rate's, and BERs beneath 1e-9 (far below
// one expected error per trace) are treated as indistinguishable.
func (lt *LinkTrace) MonotoneBERFraction() float64 {
	if lt.NumRates() == 0 {
		return 0
	}
	n := len(lt.Snapshots[0])
	good := 0
	for s := 0; s < n; s++ {
		ok := true
		for ri := 1; ri < lt.NumRates(); ri++ {
			hi := lt.Snapshots[ri-1][s].BER
			lo := lt.Snapshots[ri][s].BER
			if hi > 1e-9 && lo < hi/2 {
				ok = false
				break
			}
		}
		if ok {
			good++
		}
	}
	return float64(good) / float64(n)
}

// GenConfig controls trace generation.
type GenConfig struct {
	// Model is the time-varying channel (shared across all rates).
	Model *channel.Model
	// BERModel is the PHY calibration (default phy.DefaultBERModel).
	BERModel *phy.BERModel
	// Duration is the trace length in seconds (default 10).
	Duration float64
	// PayloadBytes is the frame size snapshots describe (default
	// core.NominalFrameBytes).
	PayloadBytes int
	// Seed drives all randomness in generation.
	Seed int64
}

// DefaultInterval is Generate's snapshot spacing: 1 ms, the paper's trace
// slot. Generate traces rate.Evaluation() in ofdm.Simulation timing.
const DefaultInterval = 1e-3

// The measurement noise of the traced receiver.
const (
	// snrNoiseDB is the σ of Gaussian measurement noise on the SNR
	// estimate: 0.7 dB, the preamble estimator's finite-sample spread
	// (calibration).
	snrNoiseDB = 0.7
	// berJitter is the σ (natural-log units) of lognormal noise on the
	// hint-estimated BER: 0.23 reproduces the estimator spread "below
	// one-tenth of one order of magnitude" the paper measures (§5.2).
	berJitter = 0.23
	// effJitterDB is the σ (dB) of the gap between the preamble SNR
	// estimate and the SNR that actually governs the frame body's BER.
	// Physically this is frequency-selective fading across the band plus
	// receiver calibration error — the reason the paper's Figure 7(c)
	// scatter is so wide and SNR-based protocols misfire even when
	// trained in situ. One draw per time slot, shared by all rates, so
	// cross-rate BER consistency is preserved. 2 dB is a model choice.
	effJitterDB = 2
)

func (gc *GenConfig) fill() {
	if gc.BERModel == nil {
		gc.BERModel = phy.DefaultBERModel
	}
	if gc.PayloadBytes <= 0 {
		gc.PayloadBytes = core.NominalFrameBytes
	}
	if gc.Duration <= 0 {
		gc.Duration = 10
	}
}

// Generate builds a LinkTrace by sweeping the channel model across time
// and querying the PHY calibration per rate — the software-radio trace
// collection of Table 4, one level down.
//
// The channel is swept once per time slot: the preamble and data SNR
// series are sampled at the longest traced frame's symbol count and
// located on the calibration grid once, and each rate evaluates its BER
// and λ tables over the prefix its own frame occupies. The random draws
// follow in a second pass, because the order they are taken from the one
// generator is part of what a Seed means and it is rate-major: per rate,
// per slot, BER jitter, the delivery draw when the preamble is detected,
// SNR noise.
//
// Generate panics if Duration is shorter than one DefaultInterval: a
// trace needs at least one slot.
func Generate(gc GenConfig) *LinkTrace { return generate(gc, rate.Evaluation(), DefaultInterval) }

// generate is Generate over any rate set and slot spacing.
func generate(gc GenConfig, rates []rate.Rate, interval float64) *LinkTrace {
	gc.fill()
	if !(gc.Duration >= interval) {
		panic(fmt.Sprintf("trace: Duration %v s is shorter than one Interval of %v s", gc.Duration, interval))
	}
	rng := rand.New(rand.NewSource(gc.Seed))
	nSlots := int(gc.Duration / interval)
	lt := &LinkTrace{
		Interval:  interval,
		FrameBits: (gc.PayloadBytes + 4) * 8,
	}
	T := ofdm.Simulation.SymbolTime()
	// Per-slot effective-SNR offset, invisible to the preamble estimator
	// and shared across rates (a channel property, not a rate property).
	effJitter := make([]float64, nSlots)
	for s := range effJitter {
		effJitter[s] = rng.NormFloat64() * effJitterDB
	}

	// Per-rate frame length in symbols (the precise count for the
	// punctured stream) and info bits per symbol.
	nSym := make([]int, len(rates))
	bitsPerSym := make([]float64, len(rates))
	maxSym := 0
	for ri, r := range rates {
		num, den := r.Code.Fraction()
		nSym[ri] = ofdm.Simulation.DataSymbols((lt.FrameBits+6)*den/num, r.Scheme)
		bitsPerSym[ri] = float64(ofdm.Simulation.InfoBitsPerSymbol(r))
		maxSym = max(maxSym, nSym[ri])
	}
	lt.Snapshots = make([][]Snapshot, len(rates))
	for ri := range lt.Snapshots {
		lt.Snapshots[ri] = make([]Snapshot, nSlots)
	}

	// Pass 1, slot-major: everything that is a function of the channel.
	preSNR := make([]float64, ofdm.PreambleSymbols)
	dataSNR := make([]float64, maxSym)
	cur := make([]phy.Cursor, 0, maxSym)
	for s := 0; s < nSlots; s++ {
		t0 := float64(s) * interval
		// Per-symbol SNR across the frame duration, preamble first.
		gc.Model.SampleSNRdB(preSNR, t0, T)
		gc.Model.SampleSNRdB(dataSNR, t0+float64(ofdm.PreambleSymbols)*T, T)
		for j := range dataSNR {
			dataSNR[j] += effJitter[s]
		}
		var preLin float64
		for _, s := range preSNR {
			preLin += channel.DBToLinear(s)
		}
		preLin /= float64(len(preSNR))
		detected := preLin >= phy.DetectSINR
		preDB := channel.LinearToDB(preLin)

		cur = gc.BERModel.Locate(cur[:0], dataSNR)
		for ri := range rates {
			ber, dp := gc.BERModel.FrameOver(ri, cur, nSym[ri], bitsPerSym[ri])
			if !detected {
				dp = 0
			}
			lt.Snapshots[ri][s] = Snapshot{
				Detected:    detected,
				DeliverProb: dp,
				BER:         ber,
				SNRdB:       preDB,
			}
		}
	}

	// Pass 2, rate-major: the draws.
	for _, snaps := range lt.Snapshots {
		for s := range snaps {
			sn := &snaps[s]
			sn.BER *= math.Exp(rng.NormFloat64() * berJitter)
			if sn.BER > 0.5 {
				sn.BER = 0.5
			}
			sn.Delivered = sn.Detected && rng.Float64() < sn.DeliverProb
			sn.SNRdB += rng.NormFloat64() * snrNoiseDB
		}
	}
	return lt
}

// NewSynthetic builds a trace directly from per-rate snapshot series, for
// controlled experiments like the good/bad channel switch of Figure 15.
func NewSynthetic(interval float64, frameBits int, snapshots [][]Snapshot) *LinkTrace {
	return &LinkTrace{Interval: interval, FrameBits: frameBits, Snapshots: snapshots}
}
