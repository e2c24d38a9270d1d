package experiments

import (
	"fmt"
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/experiments/engine"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/softphy"
)

func init() {
	register("fig10", runFig10)
	register("fig11", runFig11)
}

// interferenceOutcome classifies one frame of the static-interference
// experiment (Table 4, "Static (interference)"): correct reception,
// received-with-errors flagged as collision, received-with-errors flagged
// as noise, or silent loss.
type interferenceOutcome int

const (
	outCorrect interferenceOutcome = iota
	outCollision
	outNoise
	outSilent
)

// runInterferenceTrial sends frames from a sender at a healthy SNR while
// an interferer of the given relative power (dB, relative to the sender)
// transmits with random jitter of about one packet time, mirroring the
// paper's static interference experiment. It returns outcome counts and
// detection accuracy.
func runInterferenceTrial(ws *phy.Workspace, relPowerDB float64, ri int, frames int, seed int64) (counts [4]int, accuracy float64) {
	cfg := phy.DefaultConfig()
	const senderSNR = 17.0
	link := &phy.Link{
		Cfg:   cfg,
		Model: channel.NewStaticModel(senderSNR, nil),
		Rng:   rand.New(rand.NewSource(seed)),
		WS:    ws,
	}
	rng := rand.New(rand.NewSource(seed + 1))
	det := softphy.DefaultDetector()

	payload := make([]byte, 480)
	flagged, errored := 0, 0
	classify := func(rx *phy.Reception) {
		switch {
		case !rx.Detected:
			counts[outSilent]++
		case rx.BitErrors == 0:
			counts[outCorrect]++
		default:
			errored++
			a := softphy.Analyze(rx.Hints, softphy.BlockBits(rx.InfoBitsPerSymbol), det)
			if a.Collision {
				counts[outCollision]++
				flagged++
			} else {
				counts[outNoise]++
			}
		}
	}
	for i := 0; i < frames; i++ {
		rng.Read(payload)
		tx := phy.TransmitWS(ws, cfg, phy.Frame{Header: []byte{7, 7, 7, 7}, Payload: payload, Rate: rate.ByIndex(ri)})
		air := tx.Airtime()
		// Interferer power relative to the unit noise floor.
		iPow := channel.DBToLinear(senderSNR + relPowerDB)
		// Random jitter of around one packet-time between transmissions.
		offset := (rng.Float64()*2 - 1) * air
		start := float64(i) * 0.02
		burst := phy.Burst{Start: start + offset, End: start + offset + air, Power: iPow}
		link.QueueDeliver(tx, start, []phy.Burst{burst})
		if ws.PendingReceives() == decodeBatch || i == frames-1 {
			for _, rx := range ws.FlushReceptions() {
				classify(rx)
			}
		}
	}
	if errored > 0 {
		accuracy = float64(flagged) / float64(errored)
	}
	return counts, accuracy
}

// runFig10 reproduces Figure 10: interference detection accuracy as a
// function of relative interferer power, with the outcome mix per power.
func runFig10(o Options) []*Table {
	out := &Table{
		ID:     "fig10",
		Title:  "Interference detection accuracy vs relative interferer power (QPSK 3/4 sender)",
		Header: []string{"rel power (dB)", "correct", "collision", "noise", "silent", "accuracy"},
	}
	frames := o.scaled(60)
	rels := []float64{-15, -8, -4, -2, 0}
	type powerTrial struct {
		counts [4]int
		acc    float64
		fp     float64
	}
	// One trial per interferer power, plus a final trial measuring the
	// false-positive rate on an interference-free fading channel.
	res := engine.MapWith(o.Workers, len(rels)+1, phy.NewWorkspace, func(ws *phy.Workspace, i int) powerTrial {
		if i == len(rels) {
			return powerTrial{fp: falsePositiveRate(ws, o)}
		}
		counts, acc := runInterferenceTrial(ws, rels[i], 3, frames, o.Seed+int64(rels[i]*13))
		return powerTrial{counts: counts, acc: acc}
	})
	okAll := true
	for i, rel := range rels {
		counts, acc := res[i].counts, res[i].acc
		total := float64(counts[0] + counts[1] + counts[2] + counts[3])
		out.AddRow(fmt.Sprintf("%.0f", rel),
			fmtPct(float64(counts[outCorrect])/total),
			fmtPct(float64(counts[outCollision])/total),
			fmtPct(float64(counts[outNoise])/total),
			fmtPct(float64(counts[outSilent])/total),
			fmtPct(acc))
		if counts[outCollision]+counts[outNoise] >= 5 && acc < 0.8 {
			okAll = false
		}
	}
	out.AddNote("paper: accuracy always above 80%% of errored receptions; all-powers-above-80%% holds here: %v", okAll)

	// False positives: fading-only channel, no interference.
	out.AddNote("false positive rate on interference-free fading losses: %s (paper: under 1%%)", fmtPct(res[len(rels)].fp))
	return []*Table{out}
}

// falsePositiveRate measures how often the detector flags fading-induced
// errors as collisions on a quiet band (the §5.3 false-positive check).
func falsePositiveRate(ws *phy.Workspace, o Options) float64 {
	cfg := phy.DefaultConfig()
	link := &phy.Link{
		Cfg:   cfg,
		Model: channel.NewStaticModel(11, channel.NewRayleigh(rand.New(rand.NewSource(o.Seed+77)), 40, 0)),
		Rng:   rand.New(rand.NewSource(o.Seed + 78)),
		WS:    ws,
	}
	rng := rand.New(rand.NewSource(o.Seed + 79))
	det := softphy.DefaultDetector()
	payload := make([]byte, 480)
	flagged, errored := 0, 0
	classify := func(rx *phy.Reception) {
		if !rx.Detected || rx.BitErrors == 0 {
			return
		}
		errored++
		if softphy.Analyze(rx.Hints, softphy.BlockBits(rx.InfoBitsPerSymbol), det).Collision {
			flagged++
		}
	}
	n := o.scaled(160)
	for i := 0; i < n; i++ {
		rng.Read(payload)
		tx := phy.TransmitWS(ws, cfg, phy.Frame{Header: []byte{7}, Payload: payload, Rate: rate.ByIndex(3)})
		link.QueueDeliver(tx, float64(i)*0.023, nil)
		if ws.PendingReceives() == decodeBatch || i == n-1 {
			for _, rx := range ws.FlushReceptions() {
				classify(rx)
			}
		}
	}
	if errored == 0 {
		return 0
	}
	return float64(flagged) / float64(errored)
}

// runFig11 reproduces Figure 11: detection accuracy broken down by the
// sender's bit rate at a fixed interferer power.
func runFig11(o Options) []*Table {
	out := &Table{
		ID:     "fig11",
		Title:  "Interference detection accuracy vs transmit bit rate (interferer at -4 dB)",
		Header: []string{"rate", "correct", "collision", "noise", "silent", "accuracy"},
	}
	frames := o.scaled(60)
	const nRates = 5 // the paper omits QAM16 3/4 (untuned)
	type rateTrial struct {
		counts [4]int
		acc    float64
	}
	res := engine.MapWith(o.Workers, nRates, phy.NewWorkspace, func(ws *phy.Workspace, ri int) rateTrial {
		counts, acc := runInterferenceTrial(ws, -4, ri, frames, o.Seed+int64(ri)*101)
		return rateTrial{counts, acc}
	})
	for ri := 0; ri < nRates; ri++ {
		counts, acc := res[ri].counts, res[ri].acc
		total := float64(counts[0] + counts[1] + counts[2] + counts[3])
		out.AddRow(rate.ByIndex(ri).Name(),
			fmtPct(float64(counts[outCorrect])/total),
			fmtPct(float64(counts[outCollision])/total),
			fmtPct(float64(counts[outNoise])/total),
			fmtPct(float64(counts[outSilent])/total),
			fmtPct(acc))
	}
	out.AddNote("paper reports >80%% of errored frames identified as collisions at every rate (QAM16 3/4 omitted as untuned)")
	return []*Table{out}
}
