package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/obs"
	"softrate/internal/stats"
)

// The ops-plane read side. Status() is the one snapshot path: it drains
// every counter, merges every latency stripe (stats.Histogram.Snapshot),
// and aggregates the store — /statusz serializes the result as JSON and
// WritePrometheus renders the same snapshot as a Prometheus exposition,
// so the two surfaces can never disagree mid-run.

// kindNames label the core.FeedbackKind counters.
var kindNames = [core.NumKinds]string{"ber", "collision", "silent", "postamble"}

// AlgoStatus is one algorithm's slice of a Status snapshot (slot "mixed"
// collects batches whose ops named more than one algorithm).
type AlgoStatus struct {
	// Algo is the algorithm name, or "mixed".
	Algo string `json:"algo"`
	// Batches and Frames count Decide calls and feedback records
	// attributed to this algorithm.
	Batches uint64 `json:"batches"`
	Frames  uint64 `json:"frames"`
	// BatchLatency digests the per-Decide latency histogram; OpLatency the
	// per-record share (batch latency / batch size, weighted by size).
	BatchLatency obs.LatencySummary `json:"batch_latency"`
	OpLatency    obs.LatencySummary `json:"op_latency"`

	batchHist stats.Histogram // retained for the Prometheus renderer
	opHist    stats.Histogram
}

// TransportStatus is the TCP transport's counter snapshot (plus the
// process-wide drain flag and client-poison count).
type TransportStatus struct {
	// ConnsAccepted counts accepted connections; ConnsActive is the
	// current open count.
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsActive   int64  `json:"conns_active"`
	// Requests counts well-formed request payloads; Bursts the burst-loop
	// iterations that served them (Requests/Bursts is how many requests a
	// pipelined window amortizes one Decide and one flush over).
	Requests uint64 `json:"requests"`
	Bursts   uint64 `json:"bursts"`
	// FramingErrors counts protocol violations (oversized or undecodable
	// payloads); each drops its connection.
	FramingErrors uint64 `json:"framing_errors"`
	// ClientsPoisoned counts client-side poisonings in this process —
	// nonzero only for loopback/embedded clients (a remote softrated
	// always reports 0 here; its clients poison themselves).
	ClientsPoisoned uint64 `json:"clients_poisoned"`
	// SlowClientsEvicted counts connections dropped by the write-deadline
	// policy: the peer stopped reading until the server's write path
	// blocked for the full Config.WriteTimeout.
	SlowClientsEvicted uint64 `json:"slow_clients_evicted"`
	// Draining reports that a graceful drain is in progress or done.
	Draining bool `json:"draining"`
}

// OverloadStatus is the admission-gate snapshot.
type OverloadStatus struct {
	// MaxInflight is the configured Decide concurrency bound (0 =
	// unbounded, and Inflight then always reads 0).
	MaxInflight int `json:"max_inflight"`
	// Inflight is the number of Decide batches holding a gate token at
	// snapshot time.
	Inflight int `json:"inflight"`
}

// DatagramStatus is a datagram transport's (UDP or shm) counter
// snapshot. The same shape serves both: rx/tx/drops count datagrams (or
// ring messages), bursts and the burst-size histogram describe how well
// the burst loop is amortizing Decide calls, and RingsAttached is
// meaningful only for shm.
type DatagramStatus struct {
	// DatagramsRx counts request payloads received (well-formed or not);
	// DatagramsTx response payloads written.
	DatagramsRx uint64 `json:"datagrams_rx"`
	DatagramsTx uint64 `json:"datagrams_tx"`
	// Bursts counts burst-loop iterations that served at least one
	// datagram; BurstSizes histograms their sizes into power-of-two
	// buckets (upper bounds as keys). DatagramsRx/Bursts is the mean
	// amortization factor.
	Bursts     uint64            `json:"bursts"`
	BurstSizes map[string]uint64 `json:"burst_sizes"`
	// Drops counts malformed request payloads dropped without a
	// response; TxErrors responses the transport failed to write.
	Drops    uint64 `json:"drops"`
	TxErrors uint64 `json:"tx_errors"`
	// Shed counts datagrams dropped unserved because the admission gate
	// was saturated (UDP only; the loss contract covers them).
	Shed uint64 `json:"shed"`
	// Requests counts well-formed request payloads.
	Requests uint64 `json:"requests"`
	// RingsAttached is the number of shm rings with a live client (always
	// 0 for UDP).
	RingsAttached int64 `json:"rings_attached"`
}

// burstBucketLabels are the burst-size histogram's upper bounds, in
// bucket order.
var burstBucketLabels = [burstBucketCount]string{"1", "2", "4", "8", "16", "32"}

// status snapshots one datagram transport's counters.
func (st *counters) status() DatagramStatus {
	out := DatagramStatus{
		DatagramsRx:   st.rx.Load(),
		DatagramsTx:   st.tx.Load(),
		Bursts:        st.bursts.Load(),
		BurstSizes:    make(map[string]uint64, burstBucketCount),
		Drops:         st.drops.Load(),
		TxErrors:      st.txErrs.Load(),
		Shed:          st.shed.Load(),
		Requests:      st.reqs.Load(),
		RingsAttached: st.ringsAttached.Load(),
	}
	for i, label := range burstBucketLabels {
		out.BurstSizes[label] = st.burstBuckets[i].Load()
	}
	return out
}

// Status is the full ops-plane snapshot served at /statusz.
type Status struct {
	// UptimeSec is seconds since the server was built.
	UptimeSec float64 `json:"uptime_sec"`
	// Batches and Frames mirror Stats (cumulative Decide calls/records).
	Batches uint64 `json:"batches"`
	Frames  uint64 `json:"frames"`
	// Kinds counts records per feedback kind, by name.
	Kinds map[string]uint64 `json:"kinds"`
	// Algos holds per-algorithm decision metrics for every slot that saw
	// traffic ("mixed" first when present, then ID order).
	Algos []AlgoStatus `json:"algos"`
	// Store is the link store's aggregate view (including per-algorithm
	// churn in Store.Algos); PerShard is the per-shard breakdown.
	Store    linkstore.Stats        `json:"store"`
	PerShard []linkstore.ShardStats `json:"per_shard"`
	// Transport is the TCP transport's counter snapshot; UDP and SHM the
	// datagram transports' (each section has its own requests counter, so
	// the three together break total traffic out by transport).
	Transport TransportStatus `json:"transport"`
	UDP       DatagramStatus  `json:"udp"`
	SHM       DatagramStatus  `json:"shm"`
	// Overload is the admission-gate snapshot.
	Overload OverloadStatus `json:"overload"`
}

// slotName returns the metric label of a per-algorithm slot.
func slotName(slot int) string {
	if slot == 0 {
		return "mixed"
	}
	if spec, ok := ctl.Lookup(ctl.Algo(slot)); ok {
		return spec.Name
	}
	return fmt.Sprintf("algo%d", slot)
}

// Status snapshots every service counter, latency histogram and store
// stat. Safe to call at any rate concurrently with Decide; it takes only
// the same stripe and shard locks the hot path cycles through.
func (s *Server) Status() Status {
	out := Status{
		UptimeSec: time.Since(s.start).Seconds(),
		Batches:   atomic.LoadUint64(&s.batches),
		Frames:    atomic.LoadUint64(&s.frames),
		Kinds:     make(map[string]uint64, core.NumKinds),
	}
	for k, name := range kindNames {
		out.Kinds[name] = atomic.LoadUint64(&s.kinds[k])
	}
	for slot := 0; slot < maxAlgoSlots; slot++ {
		batches := s.algoBatches[slot].Load()
		if batches == 0 {
			continue
		}
		lat := s.algoLat[slot].Load() // set before the slot's first batch was counted
		as := AlgoStatus{
			Algo:      slotName(slot),
			Batches:   batches,
			Frames:    s.algoFrames[slot].Load(),
			batchHist: lat.batch.Snapshot(),
			opHist:    lat.op.Snapshot(),
		}
		as.BatchLatency = obs.Summarize(&as.batchHist)
		as.OpLatency = obs.Summarize(&as.opHist)
		out.Algos = append(out.Algos, as)
	}
	out.Store = s.store.Stats()
	out.PerShard = s.store.PerShard()
	out.Transport = TransportStatus{
		ConnsAccepted:      s.tcp.accepted.Load(),
		ConnsActive:        s.tcp.active.Load(),
		Requests:           s.tcp.reqs.Load(),
		Bursts:             s.tcp.bursts.Load(),
		FramingErrors:      s.tcp.drops.Load(),
		ClientsPoisoned:    clientPoisons.Load(),
		SlowClientsEvicted: s.tcp.slowEvicted.Load(),
		Draining:           s.group.draining.Load(),
	}
	out.UDP = s.udp.status()
	out.SHM = s.shm.status()
	if s.gate != nil {
		out.Overload = OverloadStatus{MaxInflight: cap(s.gate), Inflight: len(s.gate)}
	}
	return out
}

// writeDatagramProm renders one datagram transport's snapshot under the
// softrated_<transport>_* metric family names.
func writeDatagramProm(w io.Writer, transport string, d *DatagramStatus) {
	p := "softrated_" + transport
	obs.PromCounter(w, p+"_datagrams_rx_total", "", transport+" request payloads received", d.DatagramsRx)
	obs.PromCounter(w, p+"_datagrams_tx_total", "", transport+" response payloads written", d.DatagramsTx)
	obs.PromCounter(w, p+"_bursts_total", "", transport+" burst-loop iterations serving >= 1 datagram", d.Bursts)
	obs.PromHeader(w, p+"_burst_size", "histogram", transport+" datagrams per burst (power-of-two buckets)")
	cum := uint64(0)
	for _, label := range burstBucketLabels {
		cum += d.BurstSizes[label]
		obs.PromSample(w, p+"_burst_size_bucket", `le="`+label+`"`, float64(cum))
	}
	obs.PromSample(w, p+"_burst_size_bucket", `le="+Inf"`, float64(cum))
	obs.PromSample(w, p+"_burst_size_count", "", float64(cum))
	obs.PromCounter(w, p+"_drops_total", "", transport+" malformed payloads dropped without a response", d.Drops)
	obs.PromCounter(w, p+"_tx_errors_total", "", transport+" responses the transport failed to write", d.TxErrors)
	obs.PromCounter(w, p+"_shed_total", "", transport+" datagrams shed unserved at a saturated admission gate", d.Shed)
	obs.PromCounter(w, p+"_requests_total", "", transport+" well-formed request payloads", d.Requests)
	if transport == "shm" {
		obs.PromGauge(w, p+"_rings_attached", "", "shm rings with a live client", float64(d.RingsAttached))
	}
}

// WritePrometheus renders a Status snapshot as a Prometheus text
// exposition. Metric names are documented in the README's Observability
// section.
func (s *Server) WritePrometheus(w io.Writer) {
	st := s.Status()

	obs.PromGauge(w, "softrated_uptime_seconds", "", "seconds since the server started", st.UptimeSec)
	obs.PromCounter(w, "softrated_batches_total", "", "Decide batches served", st.Batches)
	obs.PromCounter(w, "softrated_frames_total", "", "feedback records served", st.Frames)

	obs.PromHeader(w, "softrated_frames_by_kind_total", "counter", "feedback records by kind")
	for _, name := range kindNames {
		obs.PromSample(w, "softrated_frames_by_kind_total", `kind="`+name+`"`, float64(st.Kinds[name]))
	}

	obs.PromHeader(w, "softrated_batches_by_algo_total", "counter", "Decide batches by attributed algorithm")
	for i := range st.Algos {
		obs.PromSample(w, "softrated_batches_by_algo_total", `algo="`+st.Algos[i].Algo+`"`, float64(st.Algos[i].Batches))
	}
	obs.PromHeader(w, "softrated_frames_by_algo_total", "counter", "feedback records by attributed algorithm")
	for i := range st.Algos {
		obs.PromSample(w, "softrated_frames_by_algo_total", `algo="`+st.Algos[i].Algo+`"`, float64(st.Algos[i].Frames))
	}
	obs.PromHeader(w, "softrated_batch_latency_seconds", "histogram", "Decide batch latency by attributed algorithm")
	for i := range st.Algos {
		obs.PromHistogramSamples(w, "softrated_batch_latency_seconds", `algo="`+st.Algos[i].Algo+`"`, &st.Algos[i].batchHist)
	}
	obs.PromHeader(w, "softrated_op_latency_seconds", "histogram", "per-record share of batch latency by attributed algorithm")
	for i := range st.Algos {
		obs.PromHistogramSamples(w, "softrated_op_latency_seconds", `algo="`+st.Algos[i].Algo+`"`, &st.Algos[i].opHist)
	}

	obs.PromGauge(w, "softrated_links_live", "", "links in the hot tables", float64(st.Store.Live))
	obs.PromGauge(w, "softrated_links_archived", "", "evicted links in the RAM archive", float64(st.Store.Archived))
	obs.PromGauge(w, "softrated_links_archived_bytes", "", "encoded state held by the RAM archive", float64(st.Store.ArchivedBytes))
	obs.PromCounter(w, "softrated_store_hits_total", "", "ops that found their link hot", st.Store.Hits)
	obs.PromCounter(w, "softrated_store_creates_total", "", "links created fresh", st.Store.Creates)
	obs.PromCounter(w, "softrated_store_restores_total", "", "links revived from the archive", st.Store.Restores)
	obs.PromCounter(w, "softrated_store_evictions_total", "", "links evicted by TTL", st.Store.Evictions)

	obs.PromHeader(w, "softrated_store_links_by_algo", "gauge", "live and archived links by bound algorithm")
	for _, as := range st.Store.Algos {
		name := slotName(int(as.Algo))
		obs.PromSample(w, "softrated_store_links_by_algo", `algo="`+name+`",state="live"`, float64(as.Live))
		obs.PromSample(w, "softrated_store_links_by_algo", `algo="`+name+`",state="archived"`, float64(as.Archived))
	}
	obs.PromHeader(w, "softrated_store_churn_by_algo_total", "counter", "store churn by bound algorithm")
	for _, as := range st.Store.Algos {
		name := slotName(int(as.Algo))
		obs.PromSample(w, "softrated_store_churn_by_algo_total", `algo="`+name+`",event="create"`, float64(as.Creates))
		obs.PromSample(w, "softrated_store_churn_by_algo_total", `algo="`+name+`",event="restore"`, float64(as.Restores))
		obs.PromSample(w, "softrated_store_churn_by_algo_total", `algo="`+name+`",event="evict"`, float64(as.Evictions))
	}

	c := st.Store.Cold
	obs.PromGauge(w, "softrated_cold_links", "", "links resident in the cold tier", float64(c.Links))
	obs.PromGauge(w, "softrated_cold_segments", "", "cold-tier segment files", float64(c.Segments))
	obs.PromGauge(w, "softrated_cold_live_bytes", "", "cold-tier record bytes still referenced by the index", float64(c.LiveBytes))
	obs.PromGauge(w, "softrated_cold_dead_bytes", "", "cold-tier record bytes superseded or restored (compaction reclaims them)", float64(c.DeadBytes))
	obs.PromGauge(w, "softrated_cold_disk_bytes", "", "total cold-tier segment bytes", float64(c.DiskBytes))
	obs.PromCounter(w, "softrated_cold_spilled_links_total", "", "links group-committed to the cold tier", c.Spills)
	obs.PromCounter(w, "softrated_cold_restored_links_total", "", "links restored from the cold tier", c.Restores)
	obs.PromCounter(w, "softrated_cold_compactions_total", "", "cold-tier segments reclaimed by compaction", c.Compactions)
	obs.PromCounter(w, "softrated_cold_torn_tails_total", "", "partial batch tails truncated at recovery", c.TornTails)
	obs.PromCounter(w, "softrated_cold_errors_total", "", "failed cold-tier operations (the store fell back without losing state)", st.Store.ColdErrors)
	obs.PromCounter(w, "softrated_cold_spill_errors_total", "", "failed generation spills (each kept its generation resident in RAM)", st.Store.ColdSpillErrors)
	obs.PromCounter(w, "softrated_cold_restore_errors_total", "", "failed cold-tier restores (each fell through to a fresh controller)", st.Store.ColdRestoreErrors)
	degraded := 0.0
	if st.Store.ColdDegraded {
		degraded = 1
	}
	obs.PromGauge(w, "softrated_cold_degraded", "", "1 while the cold-tier breaker is open and the store runs on the unbounded RAM archive", degraded)
	obs.PromCounter(w, "softrated_cold_breaker_trips_total", "", "cold-tier breaker closed-to-open transitions", st.Store.BreakerTrips)
	obs.PromCounter(w, "softrated_cold_spill_retries_total", "", "half-open probe spills attempted while the breaker was open", st.Store.SpillRetries)
	obs.PromHeader(w, "softrated_cold_restore_latency_seconds", "histogram", "cold-tier restore latency")
	obs.PromHistogramSamples(w, "softrated_cold_restore_latency_seconds", "", c.RestoreHist)

	obs.PromCounter(w, "softrated_conns_accepted_total", "", "TCP connections accepted", st.Transport.ConnsAccepted)
	obs.PromGauge(w, "softrated_conns_active", "", "open TCP connections", float64(st.Transport.ConnsActive))
	obs.PromCounter(w, "softrated_requests_total", "", "well-formed TCP request payloads", st.Transport.Requests)
	obs.PromCounter(w, "softrated_bursts_total", "", "TCP burst-loop iterations serving >= 1 request", st.Transport.Bursts)
	obs.PromCounter(w, "softrated_framing_errors_total", "", "protocol violations (each drops its connection)", st.Transport.FramingErrors)
	obs.PromCounter(w, "softrated_clients_poisoned_total", "", "in-process clients poisoned by transport errors", st.Transport.ClientsPoisoned)
	obs.PromCounter(w, "softrated_slow_clients_evicted_total", "", "TCP connections evicted by the write-deadline policy", st.Transport.SlowClientsEvicted)
	obs.PromGauge(w, "softrated_max_inflight", "", "configured Decide admission bound (0 = unbounded)", float64(st.Overload.MaxInflight))
	obs.PromGauge(w, "softrated_decide_inflight", "", "Decide batches holding an admission token", float64(st.Overload.Inflight))
	draining := 0.0
	if st.Transport.Draining {
		draining = 1
	}
	obs.PromGauge(w, "softrated_draining", "", "1 while a graceful drain is in progress or done", draining)

	writeDatagramProm(w, "udp", &st.UDP)
	writeDatagramProm(w, "shm", &st.SHM)
}
