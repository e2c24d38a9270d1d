package obs

import (
	"fmt"
	"io"

	"softrate/internal/stats"
)

// Prometheus text exposition (format version 0.0.4). These helpers render
// from the same snapshots /statusz serializes — one read path, two
// encodings — so the two surfaces can never disagree about a value.
//
// A metric family must emit its TYPE header exactly once: single-sample
// families use the PromCounter/PromGauge conveniences; histograms and
// families with one sample per label set (per algorithm, per shard, …)
// call PromHeader once and then PromSample/PromHistogramSamples per set.

// PromHeader emits a family's HELP/TYPE preamble. typ is "counter",
// "gauge" or "histogram".
func PromHeader(w io.Writer, name, typ, help string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// PromSample writes one sample line. labels is either empty or a
// comma-joined list of `name="value"` pairs, written as given: the
// service's label values (algorithm and record-kind names, bucket bounds)
// hold no character the format escapes.
func PromSample(w io.Writer, name, labels string, v float64) {
	promSample(w, name, labels, "", v)
}

// PromHistogramSamples writes one label set's histogram samples from a
// snapshot: one cumulative `le` bucket line per occupied bucket (bounds in
// seconds, carrying stats.Histogram's 1/16-octave upper-bound error), the
// +Inf bucket, and the _sum/_count samples.
func PromHistogramSamples(w io.Writer, name, labels string, h *stats.Histogram) {
	h.Buckets(func(upperNs int64, cum uint64) {
		le := fmt.Sprintf(`le="%g"`, float64(upperNs)/1e9)
		promSample(w, name+"_bucket", labels, le, float64(cum))
	})
	promSample(w, name+"_bucket", labels, `le="+Inf"`, float64(h.Count()))
	promSample(w, name+"_sum", labels, "", h.Sum().Seconds())
	promSample(w, name+"_count", labels, "", float64(h.Count()))
}

// PromCounter writes a single-sample counter family.
func PromCounter(w io.Writer, name, labels, help string, v uint64) {
	PromHeader(w, name, "counter", help)
	promSample(w, name, labels, "", float64(v))
}

// PromGauge writes a single-sample gauge family.
func PromGauge(w io.Writer, name, labels, help string, v float64) {
	PromHeader(w, name, "gauge", help)
	promSample(w, name, labels, "", v)
}

func promSample(w io.Writer, name, labels, extra string, v float64) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %g\n", name, v)
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %g\n", name, extra, v)
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
	default:
		fmt.Fprintf(w, "%s{%s,%s} %g\n", name, labels, extra, v)
	}
}
