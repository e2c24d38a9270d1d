package netsim

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/ratectl"
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
// configuration the registry serves. Over one replay the simulated adapter,
// fed the Results the MAC builds, and the served controller, fed the same
// frames as service feedback, pick the same rate after every frame, and the
// adapter's core state encodes to the served 8-byte snapshot.
func TestSoftRateIsTheServedController(t *testing.T) {
	lt := trace.Generate(trace.GenConfig{
		Model:    channel.NewTable4Walking(rand.New(rand.NewSource(3))),
		Duration: 0.5,
		Seed:     4,
	})
	sim := SoftRate(lt, rand.New(rand.NewSource(1))).(*ratectl.SoftRateAdapter)
	served := ctl.New(ctl.AlgoSoftRate)
	if served.StateLen() != 8 {
		t.Fatalf("served SoftRate state width %d, want 8", served.StateLen())
	}
	a, b := make([]byte, 8), make([]byte, 8)
	airtimes := ratectl.NominalAirtimes()
	it := lt.FramesMix(5, trace.Mix{CollisionProb: 0.2, PreambleLossProb: 0.3, PostambleProb: 0.5})
	now := 0.0
	cur := sim.NextRate(now)
	// Two passes: the first holds no collision inside a silent-loss run,
	// where only the Collision flag keeps the run from being cleared.
	for i := 0; i < 2*it.Len(); i++ {
		ev, _ := it.Next(cur)
		now += airtimes[ev.RateIndex]
		res := ratectl.Result{Time: now, RateIndex: ev.RateIndex, Airtime: airtimes[ev.RateIndex], SNRdB: math.NaN()}
		switch ev.Kind {
		case core.KindBER:
			res.FeedbackReceived, res.Delivered, res.BER, res.SNRdB = true, ev.Delivered, ev.BER, ev.SNRdB
		case core.KindCollision:
			res.FeedbackReceived, res.Collision, res.BER, res.SNRdB = true, true, ev.BER, ev.SNRdB
		case core.KindPostamble:
			res.FeedbackReceived, res.PostambleOnly = true, true
		}
		sim.OnResult(res)
		cur = sim.NextRate(now)
		fb := ctl.Feedback{Kind: ev.Kind, RateIndex: ev.RateIndex, BER: ev.BER, SNRdB: ev.SNRdB, Delivered: ev.Delivered}
		if got := served.Apply(fb); got != cur {
			t.Fatalf("frame %d (%v): simulated rate %d, served %d", i, ev.Kind, cur, got)
		}
		st := sim.SR.Snapshot()
		binary.LittleEndian.PutUint32(a[0:4], uint32(st.RateIndex))
		binary.LittleEndian.PutUint32(a[4:8], uint32(st.SilentRun))
		served.EncodeState(b)
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d: simulated state %x, served %x", i, a, b)
		}
	}
}
