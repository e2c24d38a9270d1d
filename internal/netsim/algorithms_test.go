package netsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/ctl"
	"softrate/internal/trace"
)

// TestAlgorithmsLegend pins the §6.1 set as Figure 13 prints it.
func TestAlgorithmsLegend(t *testing.T) {
	var names, keys []string
	for _, a := range Algorithms() {
		names = append(names, a.Name)
		keys = append(keys, a.Key)
	}
	wantNames := []string{"Omniscient", "SoftRate", "SNR (trained)", "CHARM", "RRAA", "SampleRate"}
	wantKeys := []string{"omniscient", "softrate", "snr", "charm", "rraa", "samplerate"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("names %q, want %q", names, wantNames)
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("keys %q, want %q", keys, wantKeys)
	}
}

// TestAlgorithmKeysAreRegistryNames: softratesim -alg and softrated -algo
// name the same algorithm. The oracle is a closure over the trace and has
// no served form.
func TestAlgorithmKeysAreRegistryNames(t *testing.T) {
	for _, a := range Algorithms() {
		if _, ok := ctl.ByName(a.Key); ok == (a.Key == "omniscient") {
			t.Errorf("%s: ctl.ByName(%q) found %v", a.Name, a.Key, ok)
		}
	}
}

// TestSoftRateIsTheServedController: SoftRate is simulated in the exact
// configuration the registry serves, so over one replay both give the same
// decisions and the same encoded state after every frame.
func TestSoftRateIsTheServedController(t *testing.T) {
	lt := trace.Generate(trace.GenConfig{
		Model:    channel.NewTable4Walking(rand.New(rand.NewSource(3))),
		Duration: 0.5,
		Seed:     4,
	})
	sim := SoftRate(lt, rand.New(rand.NewSource(1)))
	served := ctl.New(ctl.AlgoSoftRate)
	if sim.StateLen() != served.StateLen() {
		t.Fatalf("state widths %d and %d", sim.StateLen(), served.StateLen())
	}
	a, b := make([]byte, sim.StateLen()), make([]byte, served.StateLen())
	it := lt.FramesMix(5, trace.Mix{CollisionProb: 0.2, PreambleLossProb: 0.3, PostambleProb: 0.5})
	cur := sim.NextRate(0)
	for i := 0; i < it.Len(); i++ {
		ev, _ := it.Next(cur)
		fb := ctl.Feedback{Kind: ev.Kind, RateIndex: ev.RateIndex, BER: ev.BER, SNRdB: ev.SNRdB, Delivered: ev.Delivered}
		cur = sim.Apply(fb)
		if got := served.Apply(fb); got != cur {
			t.Fatalf("frame %d: simulated rate %d, served %d", i, cur, got)
		}
		sim.EncodeState(a)
		served.EncodeState(b)
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d: simulated state %x, served %x", i, a, b)
		}
	}
}
