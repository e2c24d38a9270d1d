package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// A span is one interval at a boundary the benchmark itself crosses:
// around its calls into a layer, never inside one (stage clocks inside
// the program are a later change). Spans are kept in memory and written
// out when the traced run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Batch  int32  `json:"batch"`  // spans of one request share this
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// path pays one nil check per boundary and no clock read.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, batch int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Batch: batch})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it its direct children cover.
// Children of one parent never overlap here (one goroutine records them
// in sequence), so covered time is the plain sum of child durations.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-covered[i]) / 1e9
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
