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
	"math/rand"
	"runtime"

	"softrate/internal/vmath"
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
		w:     make([]float64, 2*n),
		phi:   make([]float64, 2*n),
		scale: 1 / math.Sqrt(float64(n)),
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

// Gain returns the complex channel gain at time t (seconds): the cosines
// of both rails from vmath.CosLanes, each rail summed from zero in
// ascending oscillator order.
func (r *Rayleigh) Gain(t float64) complex128 {
	n := len(r.w) / 2
	var c [cosBlock]float64
	var hi, hq float64
	for base := 0; base < 2*n; base += cosBlock {
		m := min(cosBlock, 2*n-base)
		vmath.CosLanes(c[:m], r.w[base:base+m], r.phi[base:base+m], t)
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

// cosBlock is how many lanes Gain evaluates per CosLanes call: both rails
// of DefaultOscillators in one.
const cosBlock = 2 * DefaultOscillators

// railSums sets hi[j] and hq[j] to the I and Q rail sums Gain(ts[j])
// scales, for up to sweepBlock times: each rail summed a lane per time by
// vmath.CosSums, the same cosines added in the same order as Gain's.
func (r *Rayleigh) railSums(hi, hq, ts []float64) {
	n := len(r.w) / 2
	vmath.CosSums(hi, ts, r.w[:n], r.phi[:n])
	vmath.CosSums(hq, ts, r.w[n:], r.phi[n:])
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
// "static" (a constant snrDB, no fading). A non-finite snrDB (fading,
// static) or dopplerHz (fading) is an error, returned before any draw
// from rng.
func NewKind(kind string, rng *rand.Rand, snrDB, dopplerHz float64) (*Model, error) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case kind == "walking":
		return NewTable4Walking(rng), nil
	case kind != "fading" && kind != "static":
		return nil, fmt.Errorf("unknown channel kind %q (want walking | fading | static)", kind)
	case !finite(snrDB):
		return nil, fmt.Errorf("%s channel: mean SNR %v dB is not finite", kind, snrDB)
	case kind == "static":
		return NewStaticModel(snrDB, nil), nil
	case !finite(dopplerHz):
		return nil, fmt.Errorf("fading channel: Doppler spread %v Hz is not finite", dopplerHz)
	}
	return NewStaticModel(snrDB, NewRayleigh(rng, dopplerHz, 0)), nil
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
// consecutive symbol midpoints: dst[j] is the SNR at t0 + (j+0.5)·T,
// LinearToDB(m.SNR(t)) bit for bit. A constant-mean model without fading
// evaluates its one value once. Otherwise the symbols go in blocks: the
// mean SNR per symbol (once for a constant mean), DBToLinear's Exp and
// LinearToDB's Log through vmath's lanes, and the block's fading gains in
// one call.
func (m *Model) SampleSNRdB(dst []float64, t0, T float64) {
	if m.constMean && m.Fading == nil {
		v := LinearToDB(m.SNR(t0))
		for j := range dst {
			dst[j] = v
		}
		return
	}
	var ts, hi, hq [sweepBlock]float64
	for base := 0; base < len(dst); base += sweepBlock {
		out := dst[base:min(base+sweepBlock, len(dst))]
		for j := range out {
			ts[j] = t0 + (float64(base+j)+0.5)*T
		}
		// out holds the linear mean SNR until the last step.
		if m.constMean {
			v := DBToLinear(m.MeanSNRdB(ts[0]))
			for j := range out {
				out[j] = v
			}
		} else {
			for j := range out {
				out[j] = m.MeanSNRdB(ts[j])
			}
			dbToLinearLanes(out, out)
		}
		if m.Fading != nil {
			m.Fading.railSums(hi[:len(out)], hq[:len(out)], ts[:len(out)])
		}
		for j := range out {
			// Gain's and SNR's expressions, so the bits are theirs; hi
			// takes the linear SNR.
			g := complex(math.Sqrt(out[j]), 0)
			if f := m.Fading; f != nil {
				g *= complex(hi[j]*f.scale, hq[j]*f.scale)
			}
			hi[j] = real(g)*real(g) + imag(g)*imag(g)
		}
		linearToDBLanes(out, hi[:len(out)])
	}
}

// sweepBlock is how many symbols SampleSNRdB evaluates per batch.
const sweepBlock = 32

// ln10 and frac10·2^exp10 are math.Log(10) and math.Frexp(10), which
// math.Pow(10, y) recomputes on every call.
var (
	ln10          = math.Log(10)
	frac10, exp10 = math.Frexp(10)
)

// DBToLinear converts decibels to a linear power ratio: math.Pow(10,
// db/10) bit for bit. It runs Pow's own steps for x = 10 with ln10 and
// Frexp(10) hoisted — split y into integer and fraction, take the
// fraction as Exp(yf·ln10), multiply in the integer power by repeated
// squaring of the mantissa while summing exponents, then Ldexp — and
// leaves Pow the arguments it special-cases (and the one port whose Pow
// is assembly).
func DBToLinear(db float64) float64 {
	y, yi, yf, ok := pow10Split(db)
	if !ok {
		return math.Pow(10, y)
	}
	a1 := 1.0
	if yf != 0 {
		a1 = math.Exp(yf * ln10)
	}
	return pow10Join(y, yi, a1)
}

// dbToLinearLanes sets dst[j] = DBToLinear(db[j]) for up to sweepBlock
// lanes, the Exp calls batched through vmath.ExpLanes. dst may be db. A
// lane without a fraction takes Exp(0), which is 1 as DBToLinear's a1.
func dbToLinearLanes(dst, db []float64) {
	var y, yi [sweepBlock]float64
	var pow uint64 // lanes left to math.Pow
	for j, v := range db {
		yj, yij, yf, ok := pow10Split(v)
		y[j], yi[j] = yj, yij
		if !ok {
			pow |= 1 << j
		}
		dst[j] = yf * ln10
	}
	vmath.ExpLanes(dst, dst)
	for j := range dst {
		if pow&(1<<j) != 0 {
			dst[j] = math.Pow(10, y[j])
		} else {
			dst[j] = pow10Join(y[j], yi[j], dst[j])
		}
	}
}

// pow10Split is math.Pow(10, y), y = db/10, up to its Exp: ok false
// means Pow special-cases y (NaN, ±Inf, huge, and its shortcuts), and
// otherwise |y| splits into integer part yi and fraction yf in (-0.5,
// 0.5], zero when Pow takes no Exp.
func pow10Split(db float64) (y, yi, yf float64, ok bool) {
	y = db / 10
	ay := math.Abs(y)
	if !(ay < 1<<63) || y == 0 || y == 1 || ay == 0.5 || runtime.GOARCH == "s390x" {
		return y, 0, 0, false
	}
	yi, yf = math.Modf(ay)
	if yf > 0.5 {
		yf--
		yi++
	}
	return y, yi, yf, true
}

// pow10Join finishes math.Pow(10, y) from pow10Split's yi and a1 =
// Exp(yf·ln10): the integer power by repeated squaring, then Ldexp.
func pow10Join(y, yi, a1 float64) float64 {
	ae := 0
	x1, xe := frac10, exp10
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe // Ldexp under- or overflows below
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// LinearToDB converts a linear power ratio to decibels.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// linearToDBLanes sets dst[j] = LinearToDB(lin[j]), the logarithms
// batched through vmath.LogLanes: math.Log10(x) is Log(x)*(1/Ln10) on
// every port but s390x, whose Log10 is its own assembly. dst must not
// overlap lin.
func linearToDBLanes(dst, lin []float64) {
	if runtime.GOARCH == "s390x" {
		for j, v := range lin {
			dst[j] = LinearToDB(v)
		}
		return
	}
	vmath.LogLanes(dst, lin)
	for j, v := range lin {
		if v <= 0 {
			dst[j] = math.Inf(-1)
		} else {
			dst[j] = 10 * (dst[j] * (1 / math.Ln10))
		}
	}
}
