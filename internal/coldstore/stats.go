package coldstore

import (
	"softrate/internal/obs"
	"softrate/internal/stats"
)

// Stats is a point-in-time view of the tier.
type Stats struct {
	// Links is the number of links resident in the tier; Segments the
	// number of on-disk log files.
	Links    int `json:"links"`
	Segments int `json:"segments"`
	// LiveBytes/DeadBytes split the segment bytes by whether the index
	// still references them; DiskBytes is their sum plus headers.
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	DiskBytes int64 `json:"disk_bytes"`
	// Spills and Restores count links written to and taken back from
	// the tier (cumulative, this process).
	Spills   uint64 `json:"spilled_links_total"`
	Restores uint64 `json:"restored_links_total"`
	// Compactions counts segments reclaimed and CompactFailures the
	// CompactOnce calls that returned an error, the background
	// compactor's retries included; TornTails counts truncated partial
	// tails found at recovery.
	Compactions     uint64 `json:"compactions_total"`
	CompactFailures uint64 `json:"compaction_failures_total"`
	TornTails       uint64 `json:"torn_tails_total"`
	// RestoreLatency digests the restore latency histogram; RestoreHist
	// is the full merged histogram behind it (for the Prometheus renderer
	// — omitted from JSON). A pointer, so taking a snapshot puts no
	// histogram-sized frame on the polling goroutine's stack.
	RestoreLatency obs.LatencySummary `json:"restore_latency"`
	RestoreHist    *stats.Histogram   `json:"-"`
	// AlgoLinks counts resident links per algorithm ID.
	AlgoLinks map[uint8]int `json:"algo_links,omitempty"`
}

// Stats snapshots the tier's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	lat := s.restoreLat
	out := Stats{
		Links:           s.index.len(),
		Segments:        len(s.segs) - len(s.freeSlots),
		Spills:          s.spills,
		Restores:        s.restores,
		Compactions:     s.compactions,
		CompactFailures: s.compactFailures,
		TornTails:       s.tornTails,
		RestoreHist:     new(stats.Histogram),
	}
	for _, sg := range s.segs {
		if sg == nil {
			continue
		}
		out.LiveBytes += sg.liveBytes
		out.DeadBytes += sg.deadBytes
		out.DiskBytes += sg.size
	}
	for a, n := range &s.perAlgo {
		if n != 0 {
			if out.AlgoLinks == nil {
				out.AlgoLinks = make(map[uint8]int)
			}
			out.AlgoLinks[uint8(a)] = int(n)
		}
	}
	s.mu.Unlock()
	if lat != nil {
		lat.MergeInto(out.RestoreHist)
	}
	out.RestoreLatency = obs.Summarize(out.RestoreHist)
	return out
}
