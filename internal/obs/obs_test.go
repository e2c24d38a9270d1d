package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter %d, want 42", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if g.Load() != -3 {
		t.Fatalf("gauge %d, want -3", g.Load())
	}
}

func TestLatencyConcurrentObserve(t *testing.T) {
	var l Latency
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Observe(time.Duration(g+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	snap := l.Snapshot()
	if snap.Count() != goroutines*perG {
		t.Fatalf("count %d, want %d", snap.Count(), goroutines*perG)
	}
	if got, want := snap.Max(), time.Duration(goroutines)*time.Microsecond; got != want {
		t.Fatalf("max %v, want %v", got, want)
	}
	l.ObserveN(time.Millisecond, 5)
	if got := l.Count(); got != goroutines*perG+5 {
		t.Fatalf("count after ObserveN %d", got)
	}
	l.Reset()
	if l.Count() != 0 {
		t.Fatalf("count after Reset %d", l.Count())
	}
}

func TestLatencyObserveDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	var l Latency
	if n := testing.AllocsPerRun(100, func() { l.Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.ObserveN(time.Microsecond, 3) }); n != 0 {
		t.Fatalf("ObserveN allocates %v per op, want 0", n)
	}
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Add(2) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v per op, want 0", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(100, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v per op, want 0", n)
	}
}

func TestPromHistogramFormat(t *testing.T) {
	var l Latency
	l.Observe(time.Microsecond)
	l.Observe(time.Microsecond)
	l.Observe(time.Millisecond)
	snap := l.Snapshot()

	var sb strings.Builder
	PromHeader(&sb, "softrate_batch_latency_seconds", "histogram", "test")
	PromHistogramSamples(&sb, "softrate_batch_latency_seconds", `algo="softrate"`, &snap)
	out := sb.String()

	for _, want := range []string{
		"# TYPE softrate_batch_latency_seconds histogram",
		`softrate_batch_latency_seconds_bucket{algo="softrate",le="+Inf"} 3`,
		`softrate_batch_latency_seconds_count{algo="softrate"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative le buckets: two occupied buckets → two finite le lines,
	// last finite cumulative equals the count.
	finite := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `le="`) && !strings.Contains(line, "+Inf") {
			finite++
		}
	}
	if finite != 2 {
		t.Fatalf("want 2 finite le buckets, got %d:\n%s", finite, out)
	}

	var sb2 strings.Builder
	PromCounter(&sb2, "softrate_frames_total", "", "frames", 12)
	PromGauge(&sb2, "softrate_links_live", "", "live links", 34)
	if !strings.Contains(sb2.String(), "softrate_frames_total 12") ||
		!strings.Contains(sb2.String(), "softrate_links_live 34") {
		t.Fatalf("bad counter/gauge exposition:\n%s", sb2.String())
	}
}

func TestAdminMux(t *testing.T) {
	drained := make(chan struct{})
	var once sync.Once
	a := &Admin{
		Status:  func() any { return map[string]any{"frames": 7} },
		Metrics: func(w io.Writer) { PromCounter(w, "softrate_frames_total", "", "", 7) },
		Drain:   func() { once.Do(func() { close(drained) }) },
	}
	srv := httptest.NewServer(a.Mux())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		io.Copy(&sb, resp.Body)
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, body := get("/statusz")
	if code != 200 {
		t.Fatalf("/statusz: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if doc["frames"] != float64(7) {
		t.Fatalf("/statusz frames = %v", doc["frames"])
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "softrate_frames_total 7") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}

	// Drain: replies immediately, fires the hook once, flips health.
	if code, body := get("/drainz"); code != 200 || body != "draining\n" {
		t.Fatalf("/drainz: %d %q", code, body)
	}
	if code, _ := get("/drainz"); code != 200 {
		t.Fatal("second /drainz not idempotent")
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("drain hook never fired")
	}
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("/healthz after drain: %d, want 503", code)
	}
}
