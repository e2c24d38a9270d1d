// Package report is the benchmark's file format and its order statistics:
// what `bench -out FILE` writes, what benchdiff reads, and the one
// definition of median, quartiles and "highest supported percentile" both
// use.
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Spec is BENCHMARK.json: the contract between this benchmark, its
// driver and benchdiff.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload names one set of inputs and why it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric declares one named number. Bound (end-to-end only) is the share
// of the baseline median by which the metric may worsen.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Value is one measured metric. Median is the reported value; the
// quartiles and N describe the trials it is the median of (N == 1 for a
// single reading such as a heap size, where all three coincide).
type Value struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// Env stamps the conditions a run was made under.
type Env struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	TreeDigest string `json:"tree_digest"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	ColdDirFS  string `json:"cold_dir_fs"`
	Network    string `json:"network"`
}

// Run is one workload's result.
type Run struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// SpinBefore and SpinAfter are a fixed 0.5 s spin loop's iteration
	// count taken right before and right after the workload: a noisy
	// neighbour shows as a drop between files, or between the two.
	SpinBefore float64 `json:"env.spin_before"`
	SpinAfter  float64 `json:"env.spin_after"`
	// OpDigest is the SHA-256 of the op stream generated during set-up
	// (on paper-figs, of the rendered tables).
	OpDigest string `json:"op_digest,omitempty"`
	// SelfTime is the traced run's layer self times, seconds by span name.
	SelfTime map[string]float64 `json:"self_time_s,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
}

// File is what `bench -out` writes.
type File struct {
	Schema string `json:"schema"`
	Env    Env    `json:"env"`
	Runs   []Run  `json:"runs"`
}

// Schema identifies the file format.
const Schema = "softrate-bench/v1"

// Load reads a File.
func Load(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	return &f, nil
}

// Save writes a File, indented.
func (f *File) Save(path string) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// quartile returns the i-th quartile (1..3) of sorted xs by the rule of
// Python's statistics.quantiles(xs, n=4) — the "exclusive" method, which
// is the one the benchmark's driver applies to its ten-run sets.
func quartile(sorted []float64, i int) float64 {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0]
	}
	m := ld + 1
	j := min(max(i*m/4, 1), ld-1)
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// Summarize reduces trial values to a Value: median and quartiles.
func Summarize(xs []float64, unit string) Value {
	if len(xs) == 0 {
		return Value{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN(), Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Value{Median: quartile(s, 2), Q1: quartile(s, 1), Q3: quartile(s, 3), N: len(s), Unit: unit}
}

// Single wraps one reading as a Value.
func Single(x float64, unit string) Value {
	return Value{Median: x, Q1: x, Q3: x, N: 1, Unit: unit}
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the percentile is one or two outliers.
const minBeyond = 10

// TopPercentile returns the highest percentile of n samples, from the
// ladder 50, 90, 99, 99.9, that has at least minBeyond samples beyond it,
// or 0 when even the median does not.
func TopPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank index (1-based) of the p-th percentile among n
// sorted samples. The epsilon keeps 90 % of 100 at rank 90, not 91.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// PercentileNs returns the p-th percentile (nearest rank) of sorted
// nanosecond samples and the number of samples beyond it.
func PercentileNs(sorted []int64, p float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	r := rank(len(sorted), p)
	return sorted[r-1], len(sorted) - r
}
