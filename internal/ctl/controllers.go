package ctl

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"softrate/internal/core"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/ratectl"
)

// servingWindowCap bounds SampleRate's per-rate sample ring in the
// serving configuration: the averaging metric sees at most the last 16
// transmissions per rate, which keeps the relocatable snapshot at a fixed
// ~1.7 KB instead of the simulators' unbounded in-window sample set.
const servingWindowCap = 16

var (
	servingSNROnce  sync.Once
	servingSNRThres []float64
)

// ServingSNRThresholds returns the registry's SNR/CHARM threshold vector:
// for each evaluation rate, the lowest SNR (0.5 dB grid) at which the
// calibrated PHY model predicts at least 90% delivery of a 1400-byte
// frame over a flat channel. This is the serving-side stand-in for the
// per-trace training the simulators perform (§6.1): deterministic,
// derived from the same embedded BERModel the trace generator uses, and
// therefore "trained on the right environment" for AWGN-like links.
func ServingSNRThresholds() []float64 {
	servingSNROnce.Do(func() {
		rates := rate.Evaluation()
		bits := float64(core.NominalFrameBytes * 8)
		servingSNRThres = make([]float64, len(rates))
		for i := range rates {
			th := math.Inf(1)
			for s := 30.0; s >= -2; s -= 0.5 {
				p := math.Exp(-phy.DefaultBERModel.LambdaAt(i, s) * bits)
				if p < 0.9 {
					break
				}
				th = s
			}
			servingSNRThres[i] = th
		}
		if math.IsInf(servingSNRThres[0], 1) {
			servingSNRThres[0] = -30 // there must always be a usable rate
		}
		for i := 1; i < len(servingSNRThres); i++ {
			if servingSNRThres[i] < servingSNRThres[i-1] {
				servingSNRThres[i] = servingSNRThres[i-1]
			}
		}
	})
	out := make([]float64, len(servingSNRThres))
	copy(out, servingSNRThres)
	return out
}

// --- SoftRate ---

// SoftRate serves core.SoftRate. Its snapshot is the same 8 bytes as
// core.State (rate index and silent-loss run, both int32 little-endian),
// so the store's SoftRate path stays as small and as fast as it was when
// the store knew only SoftRate.
type SoftRate struct {
	SR *core.SoftRate
}

// softRateStateBytes is core.State encoded: RateIndex i32, SilentRun i32.
const softRateStateBytes = 8

// Apply implements Controller.
func (c *SoftRate) Apply(fb Feedback) int {
	return c.SR.Apply(fb.Kind, fb.RateIndex, fb.BER)
}

// StateLen implements Controller.
func (c *SoftRate) StateLen() int { return softRateStateBytes }

// EncodeState implements Controller.
func (c *SoftRate) EncodeState(dst []byte) {
	st := c.SR.Snapshot()
	binary.LittleEndian.PutUint32(dst[0:4], uint32(st.RateIndex))
	binary.LittleEndian.PutUint32(dst[4:8], uint32(st.SilentRun))
}

// DecodeState implements Controller.
func (c *SoftRate) DecodeState(src []byte) error {
	if len(src) < softRateStateBytes {
		return fmt.Errorf("ctl: SoftRate state is %d bytes, need %d", len(src), softRateStateBytes)
	}
	c.SR.Restore(core.State{
		RateIndex: int32(binary.LittleEndian.Uint32(src[0:4])),
		SilentRun: int32(binary.LittleEndian.Uint32(src[4:8])),
	})
	return nil
}

// --- clocked: glue for the frame-level ratectl algorithms ---

// algorithm is a frame-level ratectl algorithm with a fixed-width
// snapshot: what clocked serves.
type algorithm interface {
	ratectl.Adapter
	StateLen() int
	EncodeState(dst []byte)
	DecodeState(src []byte) error
}

// clocked serves a frame-level ratectl algorithm. The algorithms reason in
// transmission time (SampleRate's window, RRAA's ordering), which the
// decision service does not have — so clocked keeps a per-link virtual
// clock advanced by each frame's airtime (measured when the feedback
// carries it, the rate's nominal airtime otherwise) and snapshots the
// clock ahead of the algorithm state, making window arithmetic relocate
// with the link.
type clocked struct {
	a       algorithm
	nominal []float64
	clock   float64
}

// resultFor maps one service-side feedback to the simulator Result the
// algorithm consumes, advancing the given virtual clock by the
// frame's airtime (measured when the feedback carries it, the rate's
// nominal airtime otherwise). Both Apply and ApplyInPlace go through
// this one mapping, so the two serving paths cannot diverge.
func (c *clocked) resultFor(fb Feedback, clock float64) (ratectl.Result, float64) {
	at := fb.Airtime
	if !(at > 0) || math.IsInf(at, 0) {
		ri := fb.RateIndex
		if ri < 0 {
			ri = 0
		}
		if ri >= len(c.nominal) {
			ri = len(c.nominal) - 1
		}
		at = c.nominal[ri]
	}
	clock += at
	res := ratectl.Result{
		Time:      clock,
		RateIndex: fb.RateIndex,
		Airtime:   at,
		SNRdB:     math.NaN(),
	}
	switch fb.Kind {
	case core.KindBER:
		res.FeedbackReceived = true
		res.BER = fb.BER
		res.SNRdB = fb.SNRdB
		res.Delivered = fb.Delivered
	case core.KindCollision:
		res.FeedbackReceived = true
		res.Collision = true
		res.BER = fb.BER
		res.SNRdB = fb.SNRdB
	case core.KindPostamble:
		res.FeedbackReceived = true
		res.PostambleOnly = true
	default:
		// Silent loss (and unknown kinds, read conservatively): no
		// feedback of any kind.
	}
	return res, clock
}

// Apply implements Controller.
func (c *clocked) Apply(fb Feedback) int {
	res, clock := c.resultFor(fb, c.clock)
	c.clock = clock
	c.a.OnResult(res)
	return c.a.NextRate(c.clock)
}

// clockBytes prefixes every clocked snapshot: the virtual clock as f64.
const clockBytes = 8

// inPlaceCodec is the codec-side surface of the in-slab fast path:
// OnResult + NextRate executed directly against an encoded snapshot (sans
// the clock prefix, which clocked manages itself).
type inPlaceCodec interface {
	InPlaceOK() bool
	ApplyEncoded(state []byte, res ratectl.Result) (int, bool)
}

// InPlaceOK implements InPlace: true when the algorithm can run against
// its encoded state (currently SampleRate in the serving
// configuration — bounded window, relocatable SplitMix PRNG).
func (c *clocked) InPlaceOK() bool {
	ip, ok := c.a.(inPlaceCodec)
	return ok && ip.InPlaceOK()
}

// ApplyInPlace implements InPlace: Apply's exact mapping (via resultFor),
// but the clock is read from and written to the snapshot and the
// algorithm state never leaves the buffer.
func (c *clocked) ApplyInPlace(state []byte, fb Feedback) (int, bool) {
	ip, ok := c.a.(inPlaceCodec)
	if !ok || len(state) < c.StateLen() {
		return 0, false
	}
	res, clock := c.resultFor(fb, math.Float64frombits(binary.LittleEndian.Uint64(state[0:8])))
	ri, ok := ip.ApplyEncoded(state[clockBytes:], res)
	if !ok {
		return 0, false // state untouched; caller recovers via DecodeState
	}
	binary.LittleEndian.PutUint64(state[0:8], math.Float64bits(clock))
	return ri, true
}

// StateLen implements Controller.
func (c *clocked) StateLen() int { return clockBytes + c.a.StateLen() }

// EncodeState implements Controller.
func (c *clocked) EncodeState(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], math.Float64bits(c.clock))
	c.a.EncodeState(dst[clockBytes:])
}

// DecodeState implements Controller.
func (c *clocked) DecodeState(src []byte) error {
	if len(src) < c.StateLen() {
		return fmt.Errorf("ctl: %s state is %d bytes, need %d", c.a.Name(), len(src), c.StateLen())
	}
	c.clock = math.Float64frombits(binary.LittleEndian.Uint64(src[0:8]))
	return c.a.DecodeState(src[clockBytes:])
}

// --- registry ---

func init() {
	nominal := ratectl.NominalAirtimes
	register(Spec{
		ID: AlgoSoftRate, Name: "softrate", StateLen: softRateStateBytes,
		New: func() Controller { return &SoftRate{SR: core.New(core.DefaultConfig())} },
	})
	srLen := clockBytes + 16 + len(rate.Evaluation())*(2+servingWindowCap*17)
	register(Spec{
		ID: AlgoSampleRate, Name: "samplerate", StateLen: srLen,
		New: func() Controller {
			s := ratectl.NewSampleRate(rate.Evaluation(), nominal(), ratectl.NewSplitMix(1))
			s.WindowCap = servingWindowCap
			return &clocked{a: s, nominal: s.LosslessAirtime}
		},
	})
	register(Spec{
		ID: AlgoRRAA, Name: "rraa", StateLen: clockBytes + 8,
		New: func() Controller {
			// No adaptive RTS in the serving configuration: the decision
			// service answers rates, the sender owns its RTS policy.
			return &clocked{a: ratectl.NewRRAA(rate.Evaluation(), nominal(), false), nominal: nominal()}
		},
	})
	register(Spec{
		ID: AlgoSNR, Name: "snr", StateLen: clockBytes + 12,
		New: func() Controller {
			return &clocked{a: ratectl.NewSNRBased(ServingSNRThresholds(), "SNR"), nominal: nominal()}
		},
	})
	register(Spec{
		ID: AlgoCHARM, Name: "charm", StateLen: clockBytes + 12,
		New: func() Controller {
			return &clocked{a: ratectl.NewCHARM(ServingSNRThresholds()), nominal: nominal()}
		},
	})
}
