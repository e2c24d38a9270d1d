package core_test

import (
	"fmt"
	"math/rand"

	"softrate/internal/channel"
	"softrate/internal/core"
	"softrate/internal/phy"
	"softrate/internal/softphy"
)

// The SoftRate loop in its smallest form. Frames travel through the real
// PHY chain over a walking-speed Rayleigh channel around 14 dB. The
// receiver computes SoftPHY hints with the soft-output BCJR decoder and
// estimates the interference-free BER (Equations 3 and 4), and the sender
// uses that one number to pick the next bit rate.
func Example_quickstart() {
	rng := rand.New(rand.NewSource(42))
	link := &phy.Link{
		Cfg:   phy.DefaultConfig(),
		Model: channel.NewStaticModel(14, channel.NewRayleigh(rng, 40, 0)),
		Rng:   rand.New(rand.NewSource(43)),
	}
	// The sender starts at 6 Mbps and adapts on per-frame BER feedback.
	cfg := core.DefaultConfig()
	sr := core.New(cfg)
	detector := softphy.DefaultDetector()
	payload := make([]byte, 300)
	rng.Read(payload)

	fmt.Println("frame  rate          SNRest   est BER    true BER   delivered  next rate")
	for i := 0; i < 16; i++ {
		r := cfg.Rates[sr.CurrentIndex()]
		tx := phy.Transmit(link.Cfg, phy.Frame{Header: []byte{0x01, 0x02}, Payload: payload, Rate: r})
		rx := link.Deliver(tx, 0.02*float64(i), nil) // a frame every 20 ms
		if !rx.Detected {
			// No preamble, no feedback: a silent loss.
			sr.OnSilentLoss()
			fmt.Printf("%5d  %-12s  (silent loss)  %s\n", i, r.Name(), cfg.Rates[sr.CurrentIndex()].Name())
			continue
		}
		// Receiver side: hints -> per-symbol BERs -> interference-free
		// BER estimate, echoed to the sender in the link-layer ACK.
		a := softphy.Analyze(rx.Hints, softphy.BlockBits(rx.InfoBitsPerSymbol), detector)
		sr.OnFeedback(core.Feedback{RateIndex: r.Index, BER: a.InterferenceFreeBER, Collision: a.Collision})
		fmt.Printf("%5d  %-12s  %5.1fdB  %-9.2e  %-9.2e  %-9v  %s\n",
			i, r.Name(), rx.SNREstDB, a.InterferenceFreeBER, rx.TrueBER, rx.PayloadOK, cfg.Rates[sr.CurrentIndex()].Name())
	}
	// Output:
	// frame  rate          SNRest   est BER    true BER   delivered  next rate
	//     0  BPSK 1/2        3.9dB  5.07e-14   0.00e+00   true       QPSK 1/2
	//     1  QPSK 1/2        5.3dB  1.54e-12   0.00e+00   true       QAM16 1/2
	//     2  QAM16 1/2     (silent loss)  QAM16 1/2
	//     3  QAM16 1/2      12.9dB  4.55e-25   0.00e+00   true       QAM16 3/4
	//     4  QAM16 3/4      12.1dB  5.36e-06   0.00e+00   true       QAM16 3/4
	//     5  QAM16 3/4      12.0dB  1.21e-05   0.00e+00   true       QAM16 3/4
	//     6  QAM16 3/4      20.9dB  5.33e-76   0.00e+00   true       QAM16 3/4
	//     7  QAM16 3/4      15.6dB  5.37e-15   0.00e+00   true       QAM16 3/4
	//     8  QAM16 3/4      13.4dB  2.00e-08   0.00e+00   true       QAM16 3/4
	//     9  QAM16 3/4       4.5dB  2.42e-01   4.63e-01   false      QPSK 3/4
	//    10  QPSK 3/4       14.9dB  5.90e-89   0.00e+00   true       QAM16 3/4
	//    11  QAM16 3/4      13.7dB  4.03e-10   0.00e+00   true       QAM16 3/4
	//    12  QAM16 3/4      18.9dB  3.21e-37   0.00e+00   true       QAM16 3/4
	//    13  QAM16 3/4      12.9dB  1.45e-06   0.00e+00   true       QAM16 3/4
	//    14  QAM16 3/4      16.4dB  2.12e-18   0.00e+00   true       QAM16 3/4
	//    15  QAM16 3/4      10.8dB  7.14e-03   1.47e-02   false      QAM16 1/2
}
