package rate

import (
	"math"
	"testing"

	"softrate/internal/coding"
	"softrate/internal/modulation"
)

func TestTableMatchesPaper(t *testing.T) {
	// Table 2 of the paper, verbatim.
	want := []struct {
		scheme modulation.Scheme
		code   coding.CodeRate
		mbps   float64
	}{
		{modulation.BPSK, coding.Rate12, 6},
		{modulation.BPSK, coding.Rate34, 9},
		{modulation.QPSK, coding.Rate12, 12},
		{modulation.QPSK, coding.Rate34, 18},
		{modulation.QAM16, coding.Rate12, 24},
		{modulation.QAM16, coding.Rate34, 36},
		{modulation.QAM64, coding.Rate23, 48},
		{modulation.QAM64, coding.Rate34, 54},
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("table has %d rates, want %d", len(all), len(want))
	}
	for i, w := range want {
		r := all[i]
		if r.Index != i || r.Scheme != w.scheme || r.Code != w.code || r.Mbps != w.mbps {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestMbpsProportionalToInfoBits(t *testing.T) {
	// Nominal Mbps must be proportional to info bits per subcarrier: the
	// 802.11 rates are all built on 48 data subcarriers and 4 us symbols,
	// i.e. Mbps = 12 * info bits per subcarrier (coded bits × code rate).
	for _, r := range All() {
		want := 12 * float64(r.Scheme.BitsPerSymbol()) * r.Code.Value()
		if math.Abs(r.Mbps-want) > 1e-9 {
			t.Errorf("%v: Mbps %v but 12*infobits = %v", r, r.Mbps, want)
		}
	}
}

func TestMonotoneThroughput(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i].Mbps <= all[i-1].Mbps {
			t.Fatalf("rate table not monotonically increasing at %d", i)
		}
	}
}

func TestEvaluationSubset(t *testing.T) {
	ev := Evaluation()
	if len(ev) != 6 {
		t.Fatalf("evaluation subset has %d rates, want 6", len(ev))
	}
	if ev[0].Mbps != 6 || ev[5].Mbps != 36 {
		t.Fatalf("evaluation subset spans %g..%g Mbps, want 6..36", ev[0].Mbps, ev[5].Mbps)
	}
}

func TestByIndexAndLowest(t *testing.T) {
	if Lowest().Mbps != 6 {
		t.Fatal("Lowest() must be 6 Mbps")
	}
	for i := 0; i < Count(); i++ {
		if ByIndex(i).Index != i {
			t.Fatalf("ByIndex(%d).Index = %d", i, ByIndex(i).Index)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ByIndex out of range must panic")
		}
	}()
	ByIndex(99)
}

func TestStringForms(t *testing.T) {
	r := ByIndex(3)
	if r.String() != "QPSK 3/4 (18 Mbps)" {
		t.Fatalf("String() = %q", r.String())
	}
	if r.Name() != "QPSK 3/4" {
		t.Fatalf("Name() = %q", r.Name())
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Mbps = 999
	if All()[0].Mbps == 999 {
		t.Fatal("All() exposes internal table storage")
	}
}
