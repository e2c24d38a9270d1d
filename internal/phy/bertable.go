package phy

import (
	"math"
	"math/rand"
	"sync/atomic"

	"softrate/internal/channel"
	"softrate/internal/experiments/engine"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
	"softrate/internal/softphy"
	"softrate/internal/vmath"
)

// BERModel is an empirical characterization of this PHY: for each rate and
// each SNR grid point it records the post-decoder bit error rate (measured
// via SoftPHY hints, so it is meaningful even deep below one error per
// frame) and the frame error-event rate λ (errors per information bit,
// from measured frame error rates, so P(deliver an N-bit frame) = e^{-λN}).
//
// It plays the role the authors' software-radio packet traces play in
// their ns-3 evaluation (§6.1): a faithful statistical summary of the real
// PHY that the network simulator can query cheaply. It is produced by
// Calibrate — Monte Carlo over the actual encode/channel/BCJR chain — and
// a pre-generated copy (DefaultBERModel) is embedded so simulations start
// instantly; `go run ./cmd/calibrate` regenerates it.
type BERModel struct {
	// SNRdB is the calibration grid (ascending).
	SNRdB []float64
	// BER[rateIdx][k] is the mean post-decode BER at SNRdB[k].
	BER [][]float64
	// Lambda[rateIdx][k] is the error-event rate per info bit at
	// SNRdB[k]; 0 means no frame errors were observed.
	Lambda [][]float64

	// tab caches the tables' interpolation form, built on first query.
	// Changing SNRdB, BER or Lambda after the first query is unsupported:
	// queries keep answering from the tables as they were.
	tab atomic.Pointer[berTables]
}

// CalibrationConfig controls Calibrate.
type CalibrationConfig struct {
	// PHY is the PHY configuration to characterize.
	PHY Config
	// Rates to calibrate (index order defines BERModel rows).
	Rates []rate.Rate
	// SNRdB grid points.
	SNRdB []float64
	// FramesPerPoint is the Monte Carlo depth (default 8).
	FramesPerPoint int
	// PayloadBytes is the probe frame size (default 250).
	PayloadBytes int
	// Seed makes the calibration reproducible.
	Seed int64
	// Workers bounds the decode-stage parallelism; zero or negative means
	// one worker per CPU, as in engine.MapWith, which runs it. The calibration
	// is byte-identical at any worker count: payloads and receiver noise
	// are drawn serially from the master stream (detection is pure, so
	// each frame's consumption is known up front) and only the pure decode
	// work fans out.
	Workers int
}

// DefaultCalibrationGrid returns the standard grid: -2..30 dB in 1 dB
// steps.
func DefaultCalibrationGrid() []float64 {
	var g []float64
	for s := -2.0; s <= 30.0; s++ {
		g = append(g, s)
	}
	return g
}

// replayNorms replays a pre-drawn slice of normal variates; it panics if a
// consumer asks for more than were predicted, which would mean the draw
// prediction (Transmission.NoiseDraws) diverged from the receive chain.
type replayNorms struct {
	v []float64
	i int
}

func (r *replayNorms) NormFloat64() float64 {
	x := r.v[r.i]
	r.i++
	return x
}

// calFrame is one pre-generated calibration frame: everything QueueReceive
// needs, with its randomness already drawn from the master stream.
type calFrame struct {
	tx       *Transmission
	gains    []complex128
	ivar     []float64
	noise    []float64
	detected bool
}

// calResult is the per-frame summary the aggregation stage folds in master
// order.
type calResult struct {
	detected  bool
	errored   bool // undetected or any payload bit error
	logEstBER float64
	nBits     int
}

// calSummarize folds one decoded calibration frame into the per-frame
// summary the serial aggregation stage consumes.
func calSummarize(rx *Reception, f calFrame) calResult {
	res := calResult{
		detected: rx.Detected,
		errored:  !rx.Detected || rx.BitErrors > 0,
		nBits:    len(f.tx.InfoBits()),
	}
	if rx.Detected {
		res.logEstBER = math.Log(math.Max(softphy.FrameBER(rx.Hints), 1e-12))
	} else {
		res.logEstBER = math.Log(0.4)
	}
	return res
}

// Calibrate measures the PHY by Monte Carlo: constant-SNR AWGN channel,
// real encode/decode chain, hint-based BER estimation.
//
// The pipeline is two-stage so the expensive decodes parallelize without
// perturbing the sequential master PRNG: a serial pass draws each frame's
// payload and receiver noise (preamble detection is pure, so the exact
// number of variates a frame consumes is known before decoding it), then
// the decode stage fans the frames across cc.Workers goroutines, each with
// its own Workspace, replaying the pre-drawn noise. Results are aggregated
// in frame order, so the output is byte-identical at any worker count —
// including to the historical fully-serial implementation.
func Calibrate(cc CalibrationConfig) *BERModel { return calibrate(cc, calibrationBatch) }

// calibrationBatch is how many frames each decode-stage worker claims and
// decodes as one lockstep batch (QueueReceive/FlushReceptions).
const calibrationBatch = 8

// calibrate is Calibrate at a given batch size (at least 1). The batch
// decoder is exact, so the tables are bit-identical at every size.
func calibrate(cc CalibrationConfig, batch int) *BERModel {
	if cc.FramesPerPoint <= 0 {
		cc.FramesPerPoint = 8
	}
	if cc.PayloadBytes <= 0 {
		cc.PayloadBytes = 250
	}
	if len(cc.SNRdB) == 0 {
		cc.SNRdB = DefaultCalibrationGrid()
	}
	if len(cc.Rates) == 0 {
		cc.Rates = rate.Evaluation()
	}
	rng := rand.New(rand.NewSource(cc.Seed))
	m := &BERModel{SNRdB: append([]float64{}, cc.SNRdB...)}
	T := cc.PHY.Mode.SymbolTime()
	for _, r := range cc.Rates {
		// Stage 1 (serial, owns the master rng): generate every frame of
		// this rate row. One row at a time bounds the noise buffers held
		// in flight to a few dozen megabytes.
		frames := make([]calFrame, 0, len(cc.SNRdB)*cc.FramesPerPoint)
		for _, snr := range cc.SNRdB {
			model := channel.NewStaticModel(snr, nil)
			for i := 0; i < cc.FramesPerPoint; i++ {
				payload := make([]byte, cc.PayloadBytes)
				rng.Read(payload)
				tx := Transmit(cc.PHY, Frame{Header: []byte{1, 2, 3, 4}, Payload: payload, Rate: r})
				n := tx.NumSymbols()
				gains := make([]complex128, n)
				ivar := make([]float64, n)
				start := float64(i)
				for j := 0; j < n; j++ {
					gains[j] = model.Gain(start + float64(j)*T + T/2)
				}
				det := PreambleDetects(gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols])
				noise := make([]float64, tx.NoiseDraws(det))
				for j := range noise {
					noise[j] = rng.NormFloat64()
				}
				frames = append(frames, calFrame{tx: tx, gains: gains, ivar: ivar, noise: noise, detected: det})
			}
		}

		// Stage 2 (parallel, pure): decode each frame from its replayed
		// noise stream. Each worker claims a contiguous chunk of frames,
		// replays their noise through the queued front end and decodes the
		// chunk in one lockstep batch — the same bits at any chunk size,
		// since the batch decoder is exact and each frame consumes only
		// its own pre-drawn variates.
		results := make([]calResult, len(frames))
		nChunks := (len(frames) + batch - 1) / batch
		engine.MapWith(cc.Workers, nChunks, NewWorkspace, func(ws *Workspace, c int) struct{} {
			lo, hi := c*batch, min((c+1)*batch, len(frames))
			for i := lo; i < hi; i++ {
				f := frames[i]
				ws.QueueReceive(cc.PHY, f.tx, f.gains, f.ivar, &replayNorms{v: f.noise})
			}
			for k, rx := range ws.FlushReceptions() {
				results[lo+k] = calSummarize(rx, frames[lo+k])
			}
			return struct{}{}
		})

		// Stage 3 (serial): fold per-point sums in frame order — the same
		// floating-point summation the historical loop performed.
		bers := make([]float64, len(cc.SNRdB))
		lambdas := make([]float64, len(cc.SNRdB))
		for k := range cc.SNRdB {
			var hintBERSum float64
			frameErrs := 0
			var nBits int
			for i := 0; i < cc.FramesPerPoint; i++ {
				res := results[k*cc.FramesPerPoint+i]
				nBits = res.nBits
				if res.errored {
					frameErrs++
				}
				hintBERSum += res.logEstBER
			}
			bers[k] = math.Exp(hintBERSum / float64(cc.FramesPerPoint))
			fer := float64(frameErrs) / float64(cc.FramesPerPoint)
			if fer >= 1 {
				fer = 1 - 1e-9
			}
			if fer > 0 {
				lambdas[k] = -math.Log(1-fer) / float64(nBits)
			}
		}
		m.BER = append(m.BER, bers)
		m.Lambda = append(m.Lambda, lambdas)
	}
	return m
}

// BERAt returns the interpolated post-decode BER for rate index ri at the
// given instantaneous SNR. Interpolation is log-linear in BER over the dB
// axis; beyond the grid it clamps to 0.5 below and extrapolates the final
// slope above (floored at 1e-12).
func (m *BERModel) BERAt(ri int, snrDB float64) float64 {
	return m.tables().ber[ri].at(m.locate(snrDB, 0))
}

// LambdaAt returns the interpolated error-event rate per info bit.
func (m *BERModel) LambdaAt(ri int, snrDB float64) float64 {
	return m.tables().lam[ri].at(m.locate(snrDB, 0))
}

// DeliverProb returns the probability that a frame of nInfoBits at rate ri
// survives a sequence of per-symbol SNRs, each symbol carrying bitsPerSym
// info bits: P = exp(-Σ λ(snr_j)·bits_j).
func (m *BERModel) DeliverProb(ri int, snrsDB []float64, bitsPerSym float64) float64 {
	_, dp := m.FrameOver(ri, m.Locate(nil, snrsDB), len(snrsDB), bitsPerSym)
	return dp
}

// MeanBER returns the mean post-decode BER over a sequence of per-symbol
// SNRs at rate ri.
func (m *BERModel) MeanBER(ri int, snrsDB []float64) float64 {
	ber, _ := m.FrameOver(ri, m.Locate(nil, snrsDB), len(snrsDB), 0)
	return ber
}

// Cursor is a run of bit-identical SNR samples located on a model's
// calibration grid: which grid segment they fall in, how far along it,
// and how many samples the run holds. Locating is the part of an
// interpolation that depends only on the sample, so one Cursor serves the
// BER and λ tables of every rate — the trace generator locates each
// symbol of a time slot once and evaluates all rates from the result,
// each rate over the prefix its frame occupies. A Cursor is only
// meaningful to the model that produced it.
type Cursor struct {
	// seg is the interior segment k (SNRdB[k] < snr <= SNRdB[k+1]), or
	// segBelow / segAbove beyond the grid.
	seg int32
	// n is the number of samples in the run, at least 1.
	n int32
	// frac is the position within the segment in [0, 1]; above the grid
	// it is the distance past the last grid point in dB.
	frac float64
}

const (
	segBelow = -1
	segAbove = -2
)

// locate places one SNR sample on the grid, scanning from segment hint
// (grids are small, and consecutive symbols of a frame rarely leave their
// predecessor's segment). On an ascending grid every hint finds the same
// segment. NaN lands in segment 0 with a NaN fraction, so it propagates
// through at.
func (m *BERModel) locate(snrDB float64, hint int) Cursor {
	g := m.SNRdB
	switch {
	case snrDB <= g[0]:
		return Cursor{seg: segBelow, n: 1}
	case snrDB >= g[len(g)-1]:
		return Cursor{seg: segAbove, n: 1, frac: snrDB - g[len(g)-1]}
	}
	k := hint
	for k > 0 && !(g[k] < snrDB) {
		k--
	}
	for k+1 < len(g) && g[k+1] < snrDB {
		k++
	}
	return Cursor{seg: int32(k), n: 1, frac: (snrDB - g[k]) / (g[k+1] - g[k])}
}

// Locate appends to dst one cursor per run of bit-identical samples of
// snrsDB — every symbol of a frame on a fading-free link is one run — and
// returns the extended slice.
func (m *BERModel) Locate(dst []Cursor, snrsDB []float64) []Cursor {
	hint := 0
	for i := 0; i < len(snrsDB); {
		s := snrsDB[i]
		j := i + 1
		for j < len(snrsDB) && math.Float64bits(snrsDB[j]) == math.Float64bits(s) {
			j++
		}
		c := m.locate(s, hint)
		if c.seg >= 0 {
			hint = int(c.seg)
		}
		c.n = int32(j - i)
		dst = append(dst, c)
		i = j
	}
	return dst
}

// FrameOver returns MeanBER and DeliverProb for rate ri over the first n
// samples of already-located runs, both tables evaluated in one pass.
func (m *BERModel) FrameOver(ri int, cur []Cursor, n int, bitsPerSym float64) (meanBER, deliverProb float64) {
	t := m.tables()
	ber, lam := frameSums(&t.ber[ri], &t.lam[ri], cur, n, bitsPerSym)
	if n > 0 {
		meanBER = ber / float64(n)
	}
	return meanBER, math.Exp(-lam)
}

// logTable is one rate's BER or λ row prepared for interpolation of
// log(v) linearly over the dB grid, so that an evaluation takes no
// logarithm of a table entry. Entries at or below floor are treated as
// floor; with a zero floor (λ) they have no logarithm, and a segment
// between two of them evaluates to zero.
type logTable struct {
	ceil, floor float64
	// a[k] is the log value at SNRdB[k] and d[k] the log difference to
	// SNRdB[k+1]. a[k] = -Inf marks a segment with both ends at a zero
	// floor; a single zero end stands in as 1e-15.
	a, d []float64
	// extB is the log value at the last grid point and extSlope the slope
	// over the last five segments, for extrapolating above the grid.
	// extB = -Inf means no slope exists (a zero-floor end, or a grid of
	// fewer than six points) and evaluates to floor.
	extB, extSlope float64
}

func newLogTable(g, v []float64, ceil, floor float64) logTable {
	logv := make([]float64, len(v))
	for i, x := range v {
		switch {
		case x > floor || x != x: // NaN entries stay NaN
			logv[i] = math.Log(x)
		case floor == 0:
			logv[i] = math.Inf(-1)
		default:
			logv[i] = math.Log(floor)
		}
	}
	n := len(g)
	t := logTable{ceil: ceil, floor: floor, extB: math.Inf(-1)}
	if n < 2 {
		return t
	}
	t.a, t.d = make([]float64, n-1), make([]float64, n-1)
	tiny := math.Log(math.Max(floor, 1e-15))
	for k := range t.a {
		a, b := logv[k], logv[k+1]
		switch {
		case math.IsInf(a, -1) && math.IsInf(b, -1):
			t.a[k] = a
			continue
		case math.IsInf(b, -1):
			b = tiny
		case math.IsInf(a, -1):
			a = tiny
		}
		t.a[k], t.d[k] = a, b-a
	}
	if n >= 6 {
		// Extrapolate with the slope of the last decade of grid.
		if a, b := logv[n-6], logv[n-1]; !math.IsInf(a, -1) && !math.IsInf(b, -1) {
			t.extB, t.extSlope = b, (b-a)/(g[n-1]-g[n-6])
		}
	}
	return t
}

// at evaluates the table at a located sample.
func (t *logTable) at(c Cursor) float64 {
	var x float64
	switch c.seg {
	case segBelow:
		return t.ceil
	case segAbove:
		if math.IsInf(t.extB, -1) {
			return t.floor
		}
		x = t.extB + t.extSlope*c.frac
	default:
		a := t.a[c.seg]
		if math.IsInf(a, -1) {
			return t.floor
		}
		x = a + c.frac*t.d[c.seg]
	}
	return t.clamp(math.Exp(x))
}

// clamp bounds an Exp result to [floor, ceil]; NaN stays NaN.
func (t *logTable) clamp(val float64) float64 {
	if val > t.ceil {
		return t.ceil
	}
	if val < t.floor {
		return t.floor
	}
	return val
}

// sumBlock is how many runs frameSums evaluates per vmath.ExpLanes call.
const sumBlock = 16

// frameSums returns Σ ber.at(c) and Σ lam.at(c)·bitsPerSym over the first
// n samples of cur, each run's value added once per sample, in sample
// order. For a block of runs, the Exps of both tables inside the grid go
// through one vmath.ExpLanes call (the rest take at), and the two sums
// advance together.
func frameSums(ber, lam *logTable, cur []Cursor, n int, bitsPerSym float64) (sb, sl float64) {
	var xs, exps [2 * sumBlock]float64 // lane 2i is run i's BER, 2i+1 its λ
	for n > 0 && len(cur) > 0 {
		// The block: runs up to the one holding sample n.
		var direct uint64 // lanes whose xs entry is at's value
		m, covered := 0, 0
		for ; m < min(sumBlock, len(cur)) && covered < n; m++ {
			c := cur[m]
			for ti, t := range [2]*logTable{ber, lam} {
				if i := 2*m + ti; c.seg >= 0 && !math.IsInf(t.a[c.seg], -1) {
					xs[i] = t.a[c.seg] + c.frac*t.d[c.seg] // at's exponent
				} else {
					direct |= 1 << i
					xs[i] = t.at(c)
				}
			}
			covered += int(c.n)
		}
		vmath.ExpLanes(exps[:2*m], xs[:2*m])
		for i, c := range cur[:m] {
			vb, vl := xs[2*i], xs[2*i+1]
			if direct&(1<<(2*i)) == 0 {
				vb = ber.clamp(exps[2*i])
			}
			if direct&(1<<(2*i+1)) == 0 {
				vl = lam.clamp(exps[2*i+1])
			}
			vl *= bitsPerSym
			k := min(int(c.n), n)
			n -= k
			for ; k > 0; k-- {
				sb += vb
				sl += vl
			}
		}
		cur = cur[m:]
	}
	return sb, sl
}

// berTables is the interpolation form of a BERModel's BER and Lambda rows.
type berTables struct {
	ber, lam []logTable
}

// tables returns the model's interpolation tables, building them on first
// use. Concurrent first users may each build a copy; the copies are
// identical and any one of them wins.
func (m *BERModel) tables() *berTables {
	if t := m.tab.Load(); t != nil {
		return t
	}
	t := &berTables{
		ber: make([]logTable, len(m.BER)),
		lam: make([]logTable, len(m.Lambda)),
	}
	for ri, v := range m.BER {
		t.ber[ri] = newLogTable(m.SNRdB, v, 0.5, 1e-12)
	}
	for ri, v := range m.Lambda {
		t.lam[ri] = newLogTable(m.SNRdB, v, 1e-2, 0)
	}
	m.tab.Store(t)
	return t
}
