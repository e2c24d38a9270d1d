package phy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
)

func staticLink(snrDB float64, seed int64) *Link {
	return &Link{
		Cfg:   DefaultConfig(),
		Model: channel.NewStaticModel(snrDB, nil),
		Rng:   rand.New(rand.NewSource(seed)),
	}
}

func testFrame(rng *rand.Rand, n int, r rate.Rate) Frame {
	payload := make([]byte, n)
	rng.Read(payload)
	return Frame{
		Header:  []byte{0xAB, 0xCD, 0x01, 0x02, 0x00, 0x10},
		Payload: payload,
		Rate:    r,
	}
}

func TestCleanRoundTripAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	link := staticLink(30, 2)
	for _, r := range rate.All() {
		f := testFrame(rng, 200, r)
		tx := Transmit(link.Cfg, f)
		rx := link.Deliver(tx, 0, nil)
		if !rx.Detected {
			t.Fatalf("%v: frame not detected at 30 dB", r)
		}
		if !rx.HeaderOK {
			t.Fatalf("%v: header CRC failed at 30 dB", r)
		}
		if !bytes.Equal(rx.Header, f.Header) {
			t.Fatalf("%v: header mismatch", r)
		}
		if !rx.PayloadOK {
			t.Fatalf("%v: payload CRC failed at 30 dB (trueBER=%v)", r, rx.TrueBER)
		}
		if !bytes.Equal(rx.Payload, f.Payload) {
			t.Fatalf("%v: payload mismatch", r)
		}
		if rx.BitErrors != 0 {
			t.Fatalf("%v: %d bit errors at 30 dB", r, rx.BitErrors)
		}
	}
}

func TestSilentLossAtVeryLowSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	link := staticLink(-15, 4)
	f := testFrame(rng, 100, rate.ByIndex(0))
	rx := link.Deliver(Transmit(link.Cfg, f), 0, nil)
	if rx.Detected {
		t.Fatal("frame detected at -15 dB SNR")
	}
}

func TestSNREstimateTracksChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, snr := range []float64{5, 10, 15, 20} {
		link := staticLink(snr, rng.Int63())
		f := testFrame(rng, 100, rate.ByIndex(2))
		var sum float64
		const n = 20
		for i := 0; i < n; i++ {
			rx := link.Deliver(Transmit(link.Cfg, f), float64(i), nil)
			sum += rx.SNREstDB
		}
		if got := sum / n; math.Abs(got-snr) > 1.0 {
			t.Errorf("SNR estimate %.2f dB, channel %v dB", got, snr)
		}
	}
}

func TestHintsReflectChannelQuality(t *testing.T) {
	// Average hint-implied error probability must be near zero on a clean
	// channel and large on a marginal one.
	rng := rand.New(rand.NewSource(6))
	f := testFrame(rng, 200, rate.ByIndex(3)) // QPSK 3/4

	berFromHints := func(rx *Reception) float64 {
		var sum float64
		for _, s := range rx.Hints {
			sum += 1 / (1 + math.Exp(s))
		}
		return sum / float64(len(rx.Hints))
	}

	clean := staticLink(25, 7)
	rxClean := clean.Deliver(Transmit(clean.Cfg, f), 0, nil)
	if b := berFromHints(rxClean); b > 1e-6 {
		t.Errorf("clean channel hint BER %v, want < 1e-6", b)
	}

	noisy := staticLink(3, 8)
	rxNoisy := noisy.Deliver(Transmit(noisy.Cfg, f), 0, nil)
	if b := berFromHints(rxNoisy); b < 1e-3 {
		t.Errorf("marginal channel hint BER %v, want > 1e-3", b)
	}
	if rxNoisy.TrueBER == 0 {
		t.Skip("marginal frame happened to be error free")
	}
}

func TestHintEstimateMatchesTrueBER(t *testing.T) {
	// Across frames with errors, hint-estimated BER and true BER must
	// agree within an order of magnitude (they agree much better in
	// aggregate; per-frame we allow slack). This is Figure 7(a) in
	// miniature.
	rng := rand.New(rand.NewSource(9))
	link := staticLink(6.5, 10)
	f := testFrame(rng, 300, rate.ByIndex(3))
	var ratios []float64
	for i := 0; i < 30; i++ {
		rx := link.Deliver(Transmit(link.Cfg, f), float64(i), nil)
		if rx.BitErrors < 20 {
			continue
		}
		var est float64
		for _, s := range rx.Hints {
			est += 1 / (1 + math.Exp(s))
		}
		est /= float64(len(rx.Hints))
		ratios = append(ratios, est/rx.TrueBER)
	}
	if len(ratios) < 5 {
		t.Skip("not enough errored frames at this operating point")
	}
	var mean float64
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	if mean < 0.3 || mean > 3 {
		t.Errorf("mean est/true BER ratio %v, want within [0.3, 3]", mean)
	}
}

func TestInterferenceBurstRaisesSymbolBER(t *testing.T) {
	// An interference burst covering the middle third of the frame must
	// raise the hint-implied BER of those symbols by orders of magnitude
	// relative to the clean symbols — the Figure 3 signature.
	rng := rand.New(rand.NewSource(11))
	link := staticLink(18, 12)
	f := testFrame(rng, 600, rate.ByIndex(3))
	tx := Transmit(link.Cfg, f)
	T := link.Cfg.Mode.SymbolTime()
	nd := len(tx.dataSyms)
	dataStart := float64(tx.dataSymbolOffset()) * T
	burst := Burst{
		Start: dataStart + float64(nd/3)*T,
		End:   dataStart + float64(2*nd/3)*T,
		Power: 10, // 10 dB above noise floor
	}
	rx := link.Deliver(tx, 0, []Burst{burst})
	if !rx.Detected || !rx.HeaderOK {
		t.Fatal("mid-frame burst must not kill preamble/header")
	}
	nbps := rx.InfoBitsPerSymbol
	symBER := func(j int) float64 {
		var s float64
		for _, h := range rx.Hints[j*nbps : (j+1)*nbps] {
			s += 1 / (1 + math.Exp(h))
		}
		return s / float64(nbps)
	}
	nSym := len(rx.Hints) / nbps
	var cleanMax, dirtyMin float64
	dirtyMin = 1
	for j := 0; j < nSym; j++ {
		b := symBER(j)
		inBurst := j > nd/3 && j < 2*nd/3-1
		if inBurst && b < dirtyMin {
			dirtyMin = b
		}
		if !inBurst && j < nd/3-1 && b > cleanMax {
			cleanMax = b
		}
	}
	if dirtyMin < 100*cleanMax {
		t.Errorf("burst symbols BER >= %v vs clean <= %v: jump too small", dirtyMin, cleanMax)
	}
}

func TestPostambleSurvivesPreambleCollision(t *testing.T) {
	// Interference covering only the start of the frame kills the
	// preamble but leaves the postamble detectable — the silent-loss
	// disambiguation mechanism of §3.2.
	rng := rand.New(rand.NewSource(13))
	link := staticLink(12, 14)
	f := testFrame(rng, 400, rate.ByIndex(2))
	f.Postamble = true
	tx := Transmit(link.Cfg, f)
	T := link.Cfg.Mode.SymbolTime()
	burst := Burst{Start: 0, End: 3 * T, Power: 300}
	rx := link.Deliver(tx, 0, []Burst{burst})
	if rx.Detected {
		t.Fatal("preamble should be lost under a 25 dB collision")
	}
	if !rx.PostambleDetected {
		t.Fatal("postamble should survive a head-only collision")
	}
}

func TestNoPostambleFieldWithoutPostamble(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	link := staticLink(20, 16)
	f := testFrame(rng, 100, rate.ByIndex(1))
	rx := link.Deliver(Transmit(link.Cfg, f), 0, nil)
	if rx.PostambleDetected {
		t.Fatal("postamble reported on a frame that carried none")
	}
}

func TestTransmissionGeometry(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(17))
	f := testFrame(rng, 1400, rate.ByIndex(5))
	tx := Transmit(cfg, f)
	// Airtime equals symbol count times symbol time.
	if got, want := tx.Airtime(), float64(tx.NumSymbols())*cfg.Mode.SymbolTime(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("airtime %v, want %v", got, want)
	}
	f.Postamble = true
	tx2 := Transmit(cfg, f)
	if tx2.NumSymbols() != tx.NumSymbols()+ofdm.PostambleSymbols {
		t.Fatal("postamble must add exactly PostambleSymbols")
	}
	// Padded info bits plus the 6 tail bits must tile OFDM symbols
	// exactly (the 802.11 padding rule); the hint stream is therefore 6
	// entries short of a whole symbol count, and the interference
	// detector's final group is allowed to be short.
	if (len(tx.InfoBits())+6)%cfg.Mode.InfoBitsPerSymbol(f.Rate) != 0 {
		t.Fatal("padded info bits + tail not a whole number of symbols")
	}
}

func TestHeaderSurvivesBodyErrors(t *testing.T) {
	// At an SNR where QAM16 3/4 fails, the BPSK 1/2 header must still
	// decode: this property is what lets the receiver send BER feedback
	// for errored frames.
	rng := rand.New(rand.NewSource(19))
	link := staticLink(8, 20)
	f := testFrame(rng, 400, rate.ByIndex(5))
	headerOK, payloadBad := 0, 0
	for i := 0; i < 15; i++ {
		rx := link.Deliver(Transmit(link.Cfg, f), float64(i), nil)
		if !rx.Detected {
			continue
		}
		if rx.HeaderOK {
			headerOK++
		}
		if !rx.PayloadOK {
			payloadBad++
		}
	}
	if headerOK < 14 {
		t.Errorf("header decoded only %d/15 times at 8 dB", headerOK)
	}
	if payloadBad < 10 {
		t.Errorf("QAM16 3/4 payload failed only %d/15 times at 8 dB; SNR choice wrong", payloadBad)
	}
}

func TestFadingChannelProducesBursts(t *testing.T) {
	// Over a walking-speed fading channel, losses must be bursty: the
	// frame BER sequence should show both clean and heavily-errored
	// frames at the same mean SNR.
	rng := rand.New(rand.NewSource(21))
	link := &Link{
		Cfg:   DefaultConfig(),
		Model: channel.NewStaticModel(12, channel.NewRayleigh(rng, 40, 0)),
		Rng:   rand.New(rand.NewSource(22)),
	}
	f := testFrame(rng, 400, rate.ByIndex(3))
	clean, dirty := 0, 0
	for i := 0; i < 40; i++ {
		rx := link.Deliver(Transmit(link.Cfg, f), float64(i)*0.05, nil)
		if !rx.Detected {
			dirty++
			continue
		}
		if rx.TrueBER == 0 {
			clean++
		} else if rx.TrueBER > 1e-3 {
			dirty++
		}
	}
	if clean == 0 || dirty == 0 {
		t.Errorf("fading channel gave %d clean / %d dirty frames; expected a mix", clean, dirty)
	}
}

func BenchmarkDeliver400BQPSK34(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	link := staticLink(10, 24)
	f := testFrame(rng, 400, rate.ByIndex(3))
	tx := Transmit(link.Cfg, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Deliver(tx, float64(i), nil)
	}
}

func BenchmarkTransmit1400B(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	cfg := DefaultConfig()
	f := testFrame(rng, 1400, rate.ByIndex(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transmit(cfg, f)
	}
}
