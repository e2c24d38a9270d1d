package softphy_test

import (
	"fmt"
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/softphy"
)

// One frame collided mid-air, through the real PHY (§3.2). The detector
// finds the burst in the per-symbol BER series and excises it, so the
// interference-free estimate reports the clean channel underneath: the
// sender should keep its rate.
func ExampleAnalyze_collision() {
	cfg := phy.DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 600)
	rng.Read(payload)
	link := &phy.Link{Cfg: cfg, Model: channel.NewStaticModel(16, nil), Rng: rng}
	tx := phy.Transmit(cfg, phy.Frame{Header: []byte{1}, Payload: payload, Rate: rate.ByIndex(3)})

	// An interferer 14 dB above the noise floor covers 40-70% of the frame.
	T, n := cfg.Mode.SymbolTime(), float64(tx.NumSymbols())
	burst := phy.Burst{Start: 0.4 * n * T, End: 0.7 * n * T, Power: channel.DBToLinear(14)}
	rx := link.Deliver(tx, 0, []phy.Burst{burst})

	a := softphy.Analyze(rx.Hints, softphy.BlockBits(rx.InfoBitsPerSymbol), softphy.DefaultDetector())
	excised := 0
	for _, e := range a.Excised {
		if e {
			excised++
		}
	}
	fmt.Printf("frame delivered: %v, true BER %.2e\n", rx.PayloadOK, rx.TrueBER)
	fmt.Printf("whole-frame estimated BER:      %.2e\n", a.FrameBER)
	fmt.Printf("interference detected:          %v (excised %d/%d symbols)\n", a.Collision, excised, len(a.SymbolBERs))
	fmt.Printf("interference-free BER estimate: %.2e\n", a.InterferenceFreeBER)
	// Output:
	// frame delivered: false, true BER 1.13e-01
	// whole-frame estimated BER:      8.41e-02
	// interference detected:          true (excised 3/9 symbols)
	// interference-free BER estimate: 1.67e-10
}
