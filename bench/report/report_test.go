package report

import "testing"

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := TopPercentile(c.n); got != c.want {
			t.Errorf("TopPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNsCountsSamplesBeyond(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if v, beyond := PercentileNs(xs, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %d with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := PercentileNs(xs, 50); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %d with %d beyond, want 500 with 500", v, beyond)
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartile rule to
// statistics.quantiles(xs, n=4) and statistics.median.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	v := Summarize([]float64{5, 1, 3, 2, 4}, "s")
	if v.Median != 3 || v.Q1 != 1.5 || v.Q3 != 4.5 || v.N != 5 {
		t.Errorf("Summarize(1..5) = %+v, want median 3, quartiles 1.5 and 4.5, n 5", v)
	}
	v = Summarize([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, "s")
	if v.Median != 55 || v.Q1 != 27.5 || v.Q3 != 82.5 {
		t.Errorf("Summarize(10..100) = %+v, want median 55, quartiles 27.5 and 82.5", v)
	}
	if v := Summarize([]float64{7}, "s"); v.Median != 7 || v.Q1 != 7 || v.Q3 != 7 {
		t.Errorf("Summarize of one value = %+v, want 7 throughout", v)
	}
}
