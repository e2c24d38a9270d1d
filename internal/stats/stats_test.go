package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("std = %v", StdDev(xs))
	}
	if StdDev([]float64{1}) != 0 {
		t.Fatal("single-element std must be 0")
	}
}

func TestLogBin(t *testing.T) {
	xs := []float64{1e-5, 1.1e-5, 1e-3, 0, -1}
	ys := []float64{1, 3, 10, 99, 99}
	bins := LogBin(xs, ys, 0.5)
	if len(bins) != 2 {
		t.Fatalf("got %d bins: %+v", len(bins), bins)
	}
	if bins[0].Count != 2 || bins[0].Mean != 2 {
		t.Fatalf("first bin %+v", bins[0])
	}
	if bins[1].Count != 1 || bins[1].Mean != 10 {
		t.Fatalf("second bin %+v", bins[1])
	}
	// Ordered by center, ascending.
	if bins[0].Center >= bins[1].Center {
		t.Fatal("bins not ordered")
	}
}

func TestLogBinPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogBin([]float64{1}, nil, 0.1)
}

func TestLinBin(t *testing.T) {
	xs := []float64{0.2, 0.7, 1.4, 1.9}
	ys := []float64{1, 3, 5, 7}
	bins := LinBin(xs, ys, 1)
	if len(bins) != 2 || bins[0].Mean != 2 || bins[1].Mean != 6 {
		t.Fatalf("bins %+v", bins)
	}
}

func TestCCDF(t *testing.T) {
	// Runs: 1,1,2,3 -> P(>=1)=1, P(>=2)=0.5, P(>=3)=0.25.
	ccdf := CCDF([]int{1, 1, 2, 3})
	want := []float64{1, 1, 0.5, 0.25}
	if len(ccdf) != len(want) {
		t.Fatalf("len %d, want %d", len(ccdf), len(want))
	}
	for i := range want {
		if math.Abs(ccdf[i]-want[i]) > 1e-12 {
			t.Fatalf("ccdf[%d] = %v, want %v", i, ccdf[i], want[i])
		}
	}
	if CCDF(nil) != nil {
		t.Fatal("empty CCDF must be nil")
	}
}

func TestCCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		runs := make([]int, 1+rng.Intn(50))
		for i := range runs {
			runs[i] = 1 + rng.Intn(10)
		}
		c := CCDF(runs)
		for i := 1; i < len(c); i++ {
			if c[i] > c[i-1]+1e-12 {
				return false
			}
		}
		return c[1] == 1 // every run is at least length 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunLengths(t *testing.T) {
	flags := []bool{true, true, false, true, false, false, true, true, true}
	got := RunLengths(flags)
	want := []int{2, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("runs %v, want %v", got, want)
		}
	}
	if RunLengths(nil) != nil {
		t.Fatal("empty input must give nil")
	}
	if rl := RunLengths([]bool{true}); len(rl) != 1 || rl[0] != 1 {
		t.Fatal("trailing run not captured")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("p50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 100) != 5 {
		t.Fatalf("p100 = %v", Percentile(xs, 100))
	}
	if Percentile(xs, 0) != 1 {
		t.Fatalf("p0 = %v", Percentile(xs, 0))
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
}
