// Package stats provides the small statistical toolkit the experiment
// harnesses share: means and deviations, logarithmic binning of BER data
// (the paper bins BER estimates "in fixed-sized bins of 0.1 units in the
// SoftPHY metric", i.e. roughly log-sized BER bins), and complementary
// CDFs for run-length plots like Figure 4.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Bin is one aggregation bucket: values' mean, standard deviation and
// count, keyed by the bucket center.
type Bin struct {
	// Center is the representative x-value of the bin.
	Center float64
	// Mean and Std summarize the y-values that fell in the bin.
	Mean, Std float64
	// Count is the number of samples aggregated.
	Count int
}

// LogBin groups (x, y) pairs by log10(x) with the given bin width (the
// paper uses 0.1-decade bins) and returns per-bin mean/σ of y, ordered by
// center. Pairs with non-positive x are dropped.
func LogBin(xs, ys []float64, width float64) []Bin {
	if len(xs) != len(ys) {
		panic("stats: LogBin length mismatch")
	}
	if width <= 0 {
		width = 0.1
	}
	groups := map[int][]float64{}
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		k := int(math.Floor(math.Log10(x) / width))
		groups[k] = append(groups[k], ys[i])
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Bin, 0, len(keys))
	for _, k := range keys {
		v := groups[k]
		out = append(out, Bin{
			Center: math.Pow(10, (float64(k)+0.5)*width),
			Mean:   Mean(v),
			Std:    StdDev(v),
			Count:  len(v),
		})
	}
	return out
}

// LinBin is LogBin on a linear x-axis (used for the SNR-vs-BER plots,
// which bin by dB).
func LinBin(xs, ys []float64, width float64) []Bin {
	if len(xs) != len(ys) {
		panic("stats: LinBin length mismatch")
	}
	if width <= 0 {
		width = 1
	}
	groups := map[int][]float64{}
	for i, x := range xs {
		k := int(math.Floor(x / width))
		groups[k] = append(groups[k], ys[i])
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Bin, 0, len(keys))
	for _, k := range keys {
		v := groups[k]
		out = append(out, Bin{
			Center: (float64(k) + 0.5) * width,
			Mean:   Mean(v),
			Std:    StdDev(v),
			Count:  len(v),
		})
	}
	return out
}

// CCDF returns, for each integer value v in 1..max(runs), the fraction of
// runs with length >= v — the complementary CDF of Figure 4.
func CCDF(runs []int) []float64 {
	if len(runs) == 0 {
		return nil
	}
	max := 0
	for _, r := range runs {
		if r > max {
			max = r
		}
	}
	out := make([]float64, max+1)
	for _, r := range runs {
		for v := 1; v <= r; v++ {
			out[v]++
		}
	}
	n := float64(len(runs))
	for v := range out {
		out[v] /= n
	}
	out[0] = 1
	return out
}

// RunLengths extracts the lengths of maximal runs of true values.
func RunLengths(flags []bool) []int {
	var runs []int
	cur := 0
	for _, f := range flags {
		if f {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// Percentile returns the p-th percentile (0..100) of xs using
// nearest-rank on a sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
