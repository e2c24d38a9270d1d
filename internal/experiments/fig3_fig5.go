package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"softrate/internal/channel"
	"softrate/internal/experiments/engine"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/softphy"
	"softrate/internal/stats"
	"softrate/internal/trace"
)

func init() {
	register("fig3", runFig3)
	register("fig5", runFig5)
}

// runFig3 reproduces Figure 3: the per-bit SoftPHY hint pattern of a frame
// lost to a collision (sharp, localized confidence crater) versus one lost
// to channel fading (diffuse, gradual degradation). Both frames run
// through the real PHY chain.
func runFig3(o Options) []*Table {
	cfg := phy.DefaultConfig()

	mkFrame := func(rng *rand.Rand) phy.Frame {
		payload := make([]byte, 480)
		rng.Read(payload)
		return phy.Frame{Header: []byte{1, 2, 3, 4}, Payload: payload, Rate: rate.ByIndex(3)}
	}

	// Two trials: the collision loss and the fading loss.
	receptions := engine.Map(o.Workers, 2, func(i int) *phy.Reception {
		if i == 0 {
			// Collision case: strong static channel, an interferer 2 dB
			// below the sender covering the middle of the frame.
			colLink := &phy.Link{Cfg: cfg, Model: channel.NewStaticModel(17, nil), Rng: rand.New(rand.NewSource(o.Seed + 1))}
			colTx := phy.Transmit(cfg, mkFrame(rand.New(rand.NewSource(o.Seed))))
			T := cfg.Mode.SymbolTime()
			n := colTx.NumSymbols()
			burst := phy.Burst{Start: float64(n) * T * 0.45, End: float64(n) * T * 0.75, Power: channel.DBToLinear(15)}
			return colLink.Deliver(colTx, 0, []phy.Burst{burst})
		}
		// Fading case: marginal mean SNR over a walking-speed channel;
		// pick a frame that actually had errors.
		fadeLink := &phy.Link{
			Cfg:   cfg,
			Model: channel.NewStaticModel(10, channel.NewRayleigh(rand.New(rand.NewSource(o.Seed+2)), 40, 0)),
			Rng:   rand.New(rand.NewSource(o.Seed + 3)),
		}
		// The two trials used to draw payloads from one shared stream,
		// collision frame first; skipping that frame's bytes keeps this
		// trial's frames (and hence which fade is displayed) identical to
		// the serial harness while letting the trials run concurrently.
		payloadRng := rand.New(rand.NewSource(o.Seed))
		payloadRng.Read(make([]byte, 480))
		for f := 0; f < 200; f++ {
			rx := fadeLink.Deliver(phy.Transmit(cfg, mkFrame(payloadRng)), float64(f)*0.021, nil)
			if rx.Detected && rx.BitErrors > 5 {
				return rx
			}
		}
		return nil
	})
	colRx, fadeRx := receptions[0], receptions[1]

	out := &Table{
		ID:     "fig3",
		Title:  "Per-OFDM-symbol mean SoftPHY hint: collision vs fading loss",
		Header: []string{"symbol", "hint(collision)", "p_j(collision)", "hint(fading)", "p_j(fading)"},
	}
	colSym := softphy.SymbolBERs(colRx.Hints, colRx.InfoBitsPerSymbol)
	var fadeSym []float64
	if fadeRx != nil {
		fadeSym = softphy.SymbolBERs(fadeRx.Hints, fadeRx.InfoBitsPerSymbol)
	}
	rows := len(colSym)
	if len(fadeSym) > rows {
		rows = len(fadeSym)
	}
	meanHint := func(hints []float64, nbps, j int) float64 {
		base := j * nbps
		if base >= len(hints) {
			return 0
		}
		end := base + nbps
		if end > len(hints) {
			end = len(hints)
		}
		return stats.Mean(hints[base:end])
	}
	for j := 0; j < rows; j++ {
		c1, c2, f1, f2 := "-", "-", "-", "-"
		if j < len(colSym) {
			c1 = fmt.Sprintf("%.2f", meanHint(colRx.Hints, colRx.InfoBitsPerSymbol, j))
			c2 = fmtBER(colSym[j])
		}
		if j < len(fadeSym) {
			f1 = fmt.Sprintf("%.2f", meanHint(fadeRx.Hints, fadeRx.InfoBitsPerSymbol, j))
			f2 = fmtBER(fadeSym[j])
		}
		out.AddRow(fmt.Sprintf("%d", j), c1, c2, f1, f2)
	}

	// Shape checks: the collision's BER series must jump abruptly; the
	// detector must fire on the collision frame.
	det := softphy.Analyze(colRx.Hints, softphy.BlockBits(colRx.InfoBitsPerSymbol), softphy.DefaultDetector())
	out.AddNote("interference detector verdict on collision frame: %v (excised %d symbols)", det.Collision, countTrue(det.Excised))
	if fadeRx != nil {
		detF := softphy.Analyze(fadeRx.Hints, softphy.BlockBits(fadeRx.InfoBitsPerSymbol), softphy.DefaultDetector())
		out.AddNote("interference detector verdict on fading frame: %v (false positive if true)", detF.Collision)
	}
	return []*Table{out}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// runFig5 reproduces Figure 5: BER at the QPSK 3/4 rate versus BER at two
// lower and two higher rates over the walking trace, verifying the two
// BER-prediction observations of §3.3 (monotonicity and order-of-magnitude
// spacing).
func runFig5(o Options) []*Table {
	// The whole figure hangs off one trace generation: a single trial.
	lt := engine.Map(o.Workers, 1, func(int) *trace.LinkTrace {
		rng := rand.New(rand.NewSource(o.Seed))
		model := channel.NewStaticModel(14, channel.NewRayleigh(rng, 40, 0))
		// Small probe frames, as in the paper's round-robin trace
		// collection: a 1400-byte BPSK frame lasts ~1.3 ms and would
		// straddle fades that a 0.4 ms QPSK-3/4 frame misses, corrupting
		// the cross-rate comparison.
		return trace.Generate(trace.GenConfig{
			Model:        model,
			Duration:     float64(o.scaled(40)) * 0.25, // default 10 s at scale 1
			PayloadBytes: 100,
			Seed:         o.Seed + 1,
		})
	})[0]

	ref := 3                    // QPSK 3/4
	others := []int{0, 2, 4, 5} // BPSK 1/2, QPSK 1/2, QAM16 1/2, QAM16 3/4

	out := &Table{
		ID:     "fig5",
		Title:  "BER at other rates vs BER at QPSK 3/4 (walking trace, log-binned)",
		Header: []string{"BER@QPSK3/4", "BPSK 1/2", "QPSK 1/2", "QAM16 1/2", "QAM16 3/4", "n"},
	}

	// Collect per-slot BER pairs and bin by the reference rate's BER.
	nSlots := len(lt.Snapshots[ref])
	var xs []float64
	ys := make([][]float64, len(others))
	for s := 0; s < nSlots; s++ {
		bRef := lt.Snapshots[ref][s].BER
		if bRef <= 1e-11 {
			continue
		}
		xs = append(xs, bRef)
		for k, ri := range others {
			ys[k] = append(ys[k], lt.Snapshots[ri][s].BER)
		}
	}
	// Bin by decade of the reference BER.
	type agg struct {
		sums  []float64
		count int
	}
	bins := map[int]*agg{}
	for i, x := range xs {
		k := decade(x)
		a := bins[k]
		if a == nil {
			a = &agg{sums: make([]float64, len(others))}
			bins[k] = a
		}
		a.count++
		for j := range others {
			a.sums[j] += ys[j][i]
		}
	}
	var keys []int
	for k := range bins {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	monoOK, spacingOK, spacingTotal, total := 0, 0, 0, 0
	for _, k := range keys {
		a := bins[k]
		center := pow10(k)
		row := []string{fmtBER(center)}
		var means []float64
		for j := range others {
			m := a.sums[j] / float64(a.count)
			means = append(means, m)
			row = append(row, fmtBER(m))
		}
		row = append(row, fmt.Sprintf("%d", a.count))
		out.AddRow(row...)
		if a.count < 5 {
			continue // too noisy to judge shape
		}
		// Shape check per bin (obs. 1): BER non-decreasing across rates,
		// with a factor-2 tolerance for estimator jitter; bins where the
		// reference BER has saturated (> 0.1) are excluded — every rate
		// is equally dead there.
		total++
		seq := []float64{means[0], means[1], center, means[2], means[3]}
		mono := center <= 0.1
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1]/2 {
				mono = false
			}
		}
		if mono {
			monoOK++
		}
		// Obs. 2 (order-of-magnitude spacing) in the usable range,
		// between the reference and the next *modulation* step up.
		if center < 1e-2 && center > 1e-7 {
			spacingTotal++
			if means[2] >= center*5 {
				spacingOK++
			}
		}
	}
	out.AddNote("monotonicity (obs. 1) holds in %d/%d judged bins", monoOK, total)
	out.AddNote("QAM16-1/2 BER >= 5x the QPSK-3/4 BER (obs. 2) in %d/%d usable-range bins", spacingOK, spacingTotal)
	return []*Table{out}
}

func decade(x float64) int {
	k := 0
	for x < 1 {
		x *= 10
		k--
	}
	return k
}

func pow10(k int) float64 {
	v := 1.0
	for ; k < 0; k++ {
		v /= 10
	}
	return v
}
