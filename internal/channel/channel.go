// Package channel provides the statistical wireless channel models used in
// place of the paper's RF testbed: additive white Gaussian noise, Rayleigh
// multipath fading with a configurable Doppler spread (the Zheng–Xiao
// sum-of-sinusoids formulation of the Jakes model — the same simulator the
// paper itself uses for its controlled experiments, reference [26]),
// log-distance path loss, and simple mobility trajectories.
//
// Conventions: the receiver noise floor is normalized to unit complex
// variance, so the squared magnitude of the composite channel gain at time
// t *is* the instantaneous SNR (E_s/N_0) of a symbol sent at t.
package channel

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// DefaultOscillators is the number of sinusoids in the fading model.
// Zheng & Xiao show 8+ suffices for accurate second-order statistics.
const DefaultOscillators = 16

// Rayleigh is a wide-sense-stationary Rayleigh fading process with the
// classic Jakes (U-shaped) Doppler spectrum. It is a pure function of
// time: Gain may be evaluated at arbitrary, even non-monotonic, times,
// which is what lets the trace generator present an *identical* fading
// process to every bit rate (the consistency requirement of §6.1).
type Rayleigh struct {
	doppler float64
	// Per-oscillator angular frequencies and phases, packed I rail
	// (0..n-1) then Q rail (n..2n-1), so one cosine sweep covers both.
	w, phi []float64
	scale  float64
}

// NewRayleigh builds a Rayleigh fading process with maximum Doppler shift
// dopplerHz using n oscillators, drawing its random phases from rng.
// E[|h|^2] = 1.
func NewRayleigh(rng *rand.Rand, dopplerHz float64, n int) *Rayleigh {
	if n <= 0 {
		n = DefaultOscillators
	}
	r := &Rayleigh{
		doppler: dopplerHz,
		w:       make([]float64, 2*n),
		phi:     make([]float64, 2*n),
		scale:   1 / math.Sqrt(float64(n)),
	}
	theta := (rng.Float64()*2 - 1) * math.Pi
	wd := 2 * math.Pi * dopplerHz
	for k := 0; k < n; k++ {
		// Zheng–Xiao arrival angles: alpha_k = (2*pi*k - pi + theta)/(4n).
		alpha := (2*math.Pi*float64(k+1) - math.Pi + theta) / (4 * float64(n))
		r.w[k] = wd * math.Cos(alpha)
		r.w[n+k] = wd * math.Sin(alpha)
		r.phi[k] = (rng.Float64()*2 - 1) * math.Pi
		r.phi[n+k] = (rng.Float64()*2 - 1) * math.Pi
	}
	return r
}

// Doppler returns the maximum Doppler shift of the process in Hz.
func (r *Rayleigh) Doppler() float64 { return r.doppler }

// Gain returns the complex channel gain at time t (seconds). With the
// AVX2 kernel it is gainScalar's value bit for bit: the same cosines,
// summed per rail from zero in ascending oscillator order.
func (r *Rayleigh) Gain(t float64) complex128 {
	if !hasCosKernel {
		return r.gainScalar(t)
	}
	n := len(r.w) / 2
	var c [cosBlock]float64
	var hi, hq float64
	for base := 0; base < 2*n; base += cosBlock {
		m := min(cosBlock, 2*n-base)
		cosLanes(c[:m], r.w[base:base+m], r.phi[base:base+m], t)
		split := min(max(n-base, 0), m) // lanes of c before the Q rail
		for _, v := range c[:split] {
			hi += v
		}
		for _, v := range c[split:m] {
			hq += v
		}
	}
	return complex(hi*r.scale, hq*r.scale)
}

// gainScalar is Gain without the vector kernel: the path on hosts without
// AVX2 and off amd64, and the reference the kernel is tested against.
func (r *Rayleigh) gainScalar(t float64) complex128 {
	n := len(r.w) / 2
	var hi, hq float64
	for k := 0; k < n; k++ {
		hi += math.Cos(r.w[k]*t + r.phi[k])
		hq += math.Cos(r.w[n+k]*t + r.phi[n+k])
	}
	return complex(hi*r.scale, hq*r.scale)
}

// cosBlock is how many lanes Gain evaluates per kernel call: both rails
// of DefaultOscillators in one.
const cosBlock = 2 * DefaultOscillators

// cosLanes sets dst[i] = math.Cos(w[i]*t + phi[i]) bit for bit, len(dst)
// at most 64, with the kernel over the leading multiple of four lanes.
func cosLanes(dst, w, phi []float64, t float64) {
	n := len(dst) &^ 3
	if n > 0 {
		for fix := cosLanesAVX2(&dst[0], &w[0], &phi[0], t, n); fix != 0; fix &= fix - 1 {
			i := bits.TrailingZeros64(fix)
			dst[i] = math.Cos(w[i]*t + phi[i])
		}
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.Cos(w[i]*t + phi[i])
	}
}

// CoherenceTime returns the approximate channel coherence time for a given
// Doppler spread, using the rule of thumb T_c ≈ 0.4/f_d cited by the paper
// (footnote 2, after Tse & Viswanath).
func CoherenceTime(dopplerHz float64) float64 {
	if dopplerHz <= 0 {
		return math.Inf(1)
	}
	return 0.4 / dopplerHz
}

// DopplerForCoherence inverts CoherenceTime.
func DopplerForCoherence(tc float64) float64 {
	if tc <= 0 {
		return math.Inf(1)
	}
	return 0.4 / tc
}

// AWGN is a complex additive white Gaussian noise source with total
// variance Var (Var/2 per real dimension).
type AWGN struct {
	rng *rand.Rand
	sd  float64
	v   float64
}

// NewAWGN builds a noise source of total complex variance variance.
func NewAWGN(rng *rand.Rand, variance float64) *AWGN {
	return &AWGN{rng: rng, sd: math.Sqrt(variance / 2), v: variance}
}

// Variance returns the total complex noise variance.
func (a *AWGN) Variance() float64 { return a.v }

// Sample draws one complex noise sample.
func (a *AWGN) Sample() complex128 {
	return complex(a.sd*a.rng.NormFloat64(), a.sd*a.rng.NormFloat64())
}

// PathLoss is a log-distance large-scale propagation model: the mean SNR at
// distance d is SNR(d0) - 10*Exponent*log10(d/d0) dB.
type PathLoss struct {
	// RefSNRdB is the mean SNR at the reference distance.
	RefSNRdB float64
	// RefDist is the reference distance in meters.
	RefDist float64
	// Exponent is the path-loss exponent (2 free space, 3-4 indoor).
	Exponent float64
}

// SNRdB returns the mean SNR in dB at distance d meters.
func (p PathLoss) SNRdB(d float64) float64 {
	if d < p.RefDist {
		d = p.RefDist
	}
	return p.RefSNRdB - 10*p.Exponent*math.Log10(d/p.RefDist)
}

// LinearTrajectory models a node moving radially at constant speed, e.g.
// the walking experiments of Table 4 where the sender moves away from the
// receiver at walking speed.
type LinearTrajectory struct {
	// StartDist is the distance at t=0 in meters.
	StartDist float64
	// Speed is the radial speed in m/s (positive = moving away).
	Speed float64
}

// Distance returns the sender-receiver distance at time t.
func (l LinearTrajectory) Distance(t float64) float64 {
	d := l.StartDist + l.Speed*t
	if d < 0.1 {
		return 0.1
	}
	return d
}

// DopplerAt24GHz returns the maximum Doppler shift for a given speed in the
// 2.4 GHz band (f_d = v/λ, λ ≈ 12.5 cm).
func DopplerAt24GHz(speedMS float64) float64 {
	const lambda = 299792458.0 / 2.4e9
	return speedMS / lambda
}

// Model is a composite time-varying channel: a deterministic mean-SNR
// profile (large-scale attenuation) multiplied by an optional small-scale
// fading process, with unit-variance receiver noise implied.
type Model struct {
	// MeanSNRdB gives the large-scale mean SNR at time t. Required.
	MeanSNRdB func(t float64) float64
	// Fading is the small-scale process; nil means a pure AWGN channel.
	Fading *Rayleigh

	// constMean records that MeanSNRdB is NewStaticModel's constant, so a
	// fading-free model is one value at every instant. Replacing MeanSNRdB
	// on a model built by NewStaticModel is unsupported.
	constMean bool
}

// NewStaticModel returns a channel with a constant mean SNR and optional
// fading.
func NewStaticModel(snrDB float64, fading *Rayleigh) *Model {
	return &Model{MeanSNRdB: func(float64) float64 { return snrDB }, Fading: fading, constMean: true}
}

// NewWalkingModel composes a linear move-away trajectory with a path-loss
// law and walking-speed Rayleigh fading, reproducing the structure of the
// paper's Figure 1 channel.
func NewWalkingModel(rng *rand.Rand, traj LinearTrajectory, pl PathLoss) *Model {
	fd := DopplerAt24GHz(math.Abs(traj.Speed))
	if fd < 1 {
		fd = 1
	}
	return &Model{
		MeanSNRdB: func(t float64) float64 { return pl.SNRdB(traj.Distance(t)) },
		Fading:    NewRayleigh(rng, fd, DefaultOscillators),
	}
}

// NewTable4Walking returns the paper's Table 4 "Walking" channel: the
// sender starts 2 m from the receiver and walks away at 1.2 m/s, over a
// path loss of 26 dB SNR at 1 m with exponent 2.2.
func NewTable4Walking(rng *rand.Rand) *Model {
	return NewWalkingModel(rng,
		LinearTrajectory{StartDist: 2, Speed: 1.2},
		PathLoss{RefSNRdB: 26, RefDist: 1, Exponent: 2.2})
}

// NewKind builds a channel by the name the command-line tools take:
// "walking" (Table 4's walking channel; snrDB and dopplerHz unused),
// "fading" (Rayleigh fading at dopplerHz around a constant snrDB) or
// "static" (a constant snrDB, no fading).
func NewKind(kind string, rng *rand.Rand, snrDB, dopplerHz float64) (*Model, error) {
	switch kind {
	case "walking":
		return NewTable4Walking(rng), nil
	case "fading":
		return NewStaticModel(snrDB, NewRayleigh(rng, dopplerHz, 0)), nil
	case "static":
		return NewStaticModel(snrDB, nil), nil
	}
	return nil, fmt.Errorf("unknown channel kind %q (want walking | fading | static)", kind)
}

// Gain returns the composite complex gain at time t. |Gain|^2 is the
// instantaneous SNR against the unit noise floor.
func (m *Model) Gain(t float64) complex128 {
	amp := math.Sqrt(DBToLinear(m.MeanSNRdB(t)))
	if m.Fading == nil {
		return complex(amp, 0)
	}
	return complex(amp, 0) * m.Fading.Gain(t)
}

// SNR returns the instantaneous linear SNR at time t.
func (m *Model) SNR(t float64) float64 {
	g := m.Gain(t)
	return real(g)*real(g) + imag(g)*imag(g)
}

// SampleSNRdB fills dst with the instantaneous SNR in dB at len(dst)
// consecutive symbol midpoints: dst[j] is the SNR at t0 + (j+0.5)·T. A
// constant-mean model without fading evaluates its one value once.
func (m *Model) SampleSNRdB(dst []float64, t0, T float64) {
	if m.constMean && m.Fading == nil {
		v := LinearToDB(m.SNR(t0))
		for j := range dst {
			dst[j] = v
		}
		return
	}
	for j := range dst {
		dst[j] = LinearToDB(m.SNR(t0 + (float64(j)+0.5)*T))
	}
}

// DBToLinear converts decibels to a linear power ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to decibels.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}
