// Package obs is the ops plane's metrics layer: allocation-free counters,
// gauges and shard-striped latency histograms that the serving hot paths
// (server.Decide, the TCP transport, the link store) record into, plus the
// HTTP admin surface (admin.go) and Prometheus text rendering (prom.go)
// that read them back out.
//
// The design constraint is the house invariant: recording must cost the
// hot path nothing it can notice — no allocation, no shared lock, no
// change to decisions. Counters and gauges are single atomics. Latency
// histograms are striped: writers rotate across latStripes independently
// locked stats.Histogram shards (the per-stripe critical section is one
// bucket increment), and readers merge the stripes into one snapshot.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"softrate/internal/stats"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// latStripes is the write-concurrency of one Latency: stripes are handed
// out round-robin, so up to this many writers record without queueing on
// one lock. Must be a power of two.
const latStripes = 8

type latStripe struct {
	mu sync.Mutex
	h  stats.Histogram
	// stats.Histogram is ~4.6 KB, so adjacent stripes' hot words (the
	// mutex and the low buckets) already live on distant cache lines; no
	// explicit padding needed.
}

// Latency is a concurrent-write latency histogram: a shard-striped set of
// stats.Histogram. Observe is allocation-free and safe for any number of
// concurrent writers; Snapshot merges the stripes into one ordinary
// histogram for the read side. The zero value is ready to use.
type Latency struct {
	cursor  atomic.Uint64
	stripes [latStripes]latStripe
}

// Observe records one duration.
func (l *Latency) Observe(d time.Duration) {
	s := &l.stripes[l.cursor.Add(1)&(latStripes-1)]
	s.mu.Lock()
	s.h.Observe(d)
	s.mu.Unlock()
}

// ObserveN records n observations of d in one stripe visit (see
// stats.Histogram.ObserveN).
func (l *Latency) ObserveN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	s := &l.stripes[l.cursor.Add(1)&(latStripes-1)]
	s.mu.Lock()
	s.h.ObserveN(d, n)
	s.mu.Unlock()
}

// Count returns the total number of observations across stripes.
func (l *Latency) Count() uint64 {
	var n uint64
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		n += s.h.Count()
		s.mu.Unlock()
	}
	return n
}

// Snapshot merges every stripe into one histogram. Stripes are locked one
// at a time, so a snapshot taken under write load is a slightly time-
// smeared but bucket-consistent view (each stripe is internally exact).
func (l *Latency) Snapshot() stats.Histogram {
	var out stats.Histogram
	l.MergeInto(&out)
	return out
}

// MergeInto adds every stripe to out, as Snapshot does, but puts no
// histogram-sized value on the stack, for callers that keep theirs on the
// heap.
func (l *Latency) MergeInto(out *stats.Histogram) {
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		out.Merge(&s.h)
		s.mu.Unlock()
	}
}

// Reset clears all stripes (between benchmark phases; not used while
// writers are active).
func (l *Latency) Reset() {
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		s.h.Reset()
		s.mu.Unlock()
	}
}

// LatencySummary is the JSON-friendly digest of a latency histogram used
// by /statusz. Quantiles carry stats.Histogram's 1/16-octave upper-bound
// error; Count, MeanNs and MaxNs are exact.
type LatencySummary struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
}

// Summarize digests a histogram snapshot.
func Summarize(h *stats.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanNs: int64(h.Mean()),
		P50Ns:  int64(h.Quantile(0.5)),
		P99Ns:  int64(h.Quantile(0.99)),
		MaxNs:  int64(h.Max()),
	}
}
