package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"softrate/internal/channel"
	"softrate/internal/experiments/engine"
	"softrate/internal/ofdm"
	"softrate/internal/phy"
	"softrate/internal/rate"
)

func init() {
	register("fig1", runFig1)
	register("tab2", runTab2)
	register("tab3", runTab3)
}

// runFig1 reproduces Figure 1: SNR fluctuation over a fading channel with
// walking-speed mobility across a 10-second window, a 350 ms detail, and
// the induced BER at BPSK 1/2.
func runFig1(o Options) []*Table {
	rng := rand.New(rand.NewSource(o.Seed))
	// Parameters chosen so the 10 s window spans roughly the ~20 dB of
	// combined large-scale attenuation and fading the paper's Figure 1
	// shows. The model is pure in t after construction, so the coarse and
	// detail windows are two trials sharing it read-only.
	model := channel.NewWalkingModel(rng,
		channel.LinearTrajectory{StartDist: 3, Speed: 1.0},
		channel.PathLoss{RefSNRdB: 30, RefDist: 1, Exponent: 2.0})
	m := phy.DefaultBERModel

	tables := engine.Map(o.Workers, 2, func(i int) *Table {
		if i == 0 {
			coarse := &Table{
				ID:     "fig1",
				Title:  "SNR and BPSK-1/2 BER over a walking-speed fading channel (10 s window, 100 ms sampling)",
				Header: []string{"t(s)", "SNR(dB)", "BER@BPSK1/2"},
			}
			var minSNR, maxSNR float64 = 1e9, -1e9
			for ti := 0; ti < 100; ti++ {
				t := float64(ti) * 0.1
				snr := channel.LinearToDB(model.SNR(t))
				if snr < minSNR {
					minSNR = snr
				}
				if snr > maxSNR {
					maxSNR = snr
				}
				coarse.AddRow(fmt.Sprintf("%.1f", t), fmt.Sprintf("%+.1f", snr), fmtBER(m.BERAt(0, snr)))
			}
			coarse.AddNote("large-scale fading: SNR spans %.1f dB over the window (paper shows ~20 dB swings)", maxSNR-minSNR)
			return coarse
		}
		detail := &Table{
			ID:     "fig1-detail",
			Title:  "350 ms detail (5 ms sampling): fades tens of milliseconds long",
			Header: []string{"t(ms)", "SNR(dB)", "BER@BPSK1/2"},
		}
		// Count fade dips below the window median to show tens-of-ms fades.
		var vals []float64
		for ti := 0; ti < 70; ti++ {
			t := 3.0 + float64(ti)*0.005
			snr := channel.LinearToDB(model.SNR(t))
			vals = append(vals, snr)
			detail.AddRow(fmt.Sprintf("%.0f", (t-3.0)*1e3), fmt.Sprintf("%+.1f", snr), fmtBER(m.BERAt(0, snr)))
		}
		med := median(vals)
		fades := 0
		inFade := false
		for _, v := range vals {
			if v < med-6 {
				if !inFade {
					fades++
					inFade = true
				}
			} else {
				inFade = false
			}
		}
		detail.AddNote("%d deep fades (>6 dB below median) in 350 ms — tens-of-ms fade durations, as in the paper", fades)
		return detail
	})
	return tables
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	return s[len(s)/2]
}

// runTab2 reproduces Table 2: the modulation/code-rate combinations and
// their raw 20 MHz throughput, plus implementation status (all eight are
// implemented here; the paper's prototype stopped at QAM16 3/4).
func runTab2(o Options) []*Table {
	t := &Table{
		ID:     "tab2",
		Title:  "802.11a/g modulation and coding combinations",
		Header: []string{"Modulation", "Code Rate", "802.11 Rate", "Paper prototype", "This repo"},
	}
	paperImpl := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}
	for _, r := range rate.All() {
		impl := "No"
		if paperImpl[r.Index] {
			impl = "Yes"
		}
		t.AddRow(r.Scheme.String(), r.Code.String(), fmt.Sprintf("%g Mbps", r.Mbps), impl, "Yes")
	}
	return []*Table{t}
}

// runTab3 reproduces Table 3: the OFDM prototype's modes of operation.
func runTab3(o Options) []*Table {
	t := &Table{
		ID:     "tab3",
		Title:  "Modes of operation of the OFDM prototype",
		Header: []string{"Mode", "Bandwidth", "Tones", "Symbol time"},
	}
	for _, m := range []ofdm.Mode{ofdm.LongRange, ofdm.ShortRange, ofdm.Simulation} {
		t.AddRow(m.Name,
			fmt.Sprintf("%g kHz", m.Bandwidth/1e3),
			fmt.Sprintf("%d", m.Tones),
			fmt.Sprintf("%.3g ms", m.SymbolTime()*1e3))
	}
	t.AddNote("cyclic prefix is one quarter of the subcarrier count, as in the paper")
	return []*Table{t}
}
