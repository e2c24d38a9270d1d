// Command softrate-loadgen replays link traces against the softrated
// decision service and reports sustained decision throughput, latency
// quantiles and store churn. It is the closed adaptation loop at scale:
// per link it walks a trace.FrameIter (decide → transmit → observe), feeds
// the observed outcome back, and uses the server's answer as the next
// frame's rate.
//
// Any registered algorithm can be served (-algo), and "-algo all" (or a
// comma list) runs a head-to-head: identical trace.FramesMix sequences
// replayed through every named algorithm concurrently against one store,
// with per-algorithm throughput, latency and chosen-rate distributions.
//
// Usage:
//
//	softrate-loadgen -clients 4 -links 10000 -duration 10s          # in-process server
//	softrate-loadgen -addr 127.0.0.1:7447 -clients 8 -links 100000  # against softrated
//	softrate-loadgen -transport tcp -pipeline 8                     # loopback TCP, 8 batches in flight per conn
//	softrate-loadgen -mix hidden -verify                            # hidden-terminal mix + determinism check
//	softrate-loadgen -algo all -verify -prewarm                     # §6.1 head-to-head, warm store, every decision checked
//
// -pipeline N keeps N batches in flight per connection, socket or ring:
// each client's links are partitioned into N independent closed loops, so
// every link still sees its previous decision before its next frame while
// the connection never runs stop-and-wait. -prewarm
// drives every link's first event through the server before the timed
// region, so the report measures the steady state rather than map and
// slab growth.
//
// With -verify every decision is checked byte-for-byte against a bare
// per-link ctl controller fed the identical feedback sequence — the
// acceptance property of the decision service, for every algorithm,
// including across TTL evictions (archived state makes them transparent).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softrate/internal/channel"
	"softrate/internal/coldstore"
	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/faultfs"
	"softrate/internal/linkstore"
	"softrate/internal/rate"
	"softrate/internal/server"
	"softrate/internal/server/shmring"
	"softrate/internal/stats"
	"softrate/internal/trace"
)

type options struct {
	addr     string
	algo     string
	clients  int
	links    int
	duration time.Duration
	batch    int
	mix      string
	shards   int
	ttl      time.Duration
	idleFrac float64
	seed     int64
	verify   bool
	minRate  float64
	format   string
	pipeline int
	prewarm  bool

	transport  string
	serveExec  string
	shmPath    string
	shmBytes   int
	udpDrop    float64
	udpTimeout time.Duration

	coldLinks    int
	hotFrac      float64
	coldDir      string
	coldFront    int
	compactRatio float64
	minSpills    uint64

	maxInflight  int
	writeTimeout time.Duration
	chaosCold    float64
	chaosSeed    int64
	stallConns   int
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", "", "softrated TCP address; empty runs an in-process server")
	flag.StringVar(&opt.algo, "algo", "softrate", "algorithm(s) to drive: one of "+strings.Join(ctl.Names(), "|")+", a comma list, or 'all' (head-to-head over identical trace replays)")
	flag.IntVar(&opt.clients, "clients", 4, "concurrent load-generating clients per algorithm")
	flag.IntVar(&opt.links, "links", 10000, "concurrent links per algorithm")
	flag.DurationVar(&opt.duration, "duration", 10*time.Second, "run length")
	flag.IntVar(&opt.batch, "batch", 128, "feedback records per request batch")
	flag.StringVar(&opt.mix, "mix", "mobile", "workload mix: clean | mobile | hidden")
	flag.IntVar(&opt.shards, "shards", 64, "in-process server: link store shards")
	flag.DurationVar(&opt.ttl, "ttl", 500*time.Millisecond, "in-process server: idle link TTL (0 = never evict)")
	flag.Float64Var(&opt.idleFrac, "idle-frac", 0.1, "fraction of links that transmit rarely (exercises eviction)")
	flag.Int64Var(&opt.seed, "seed", 1, "base PRNG seed (trace generation and replay)")
	flag.BoolVar(&opt.verify, "verify", false, "check every decision against a bare per-link controller (with -addr the server must be fresh: reused link IDs carry state from earlier runs)")
	flag.Float64Var(&opt.minRate, "min-rate", 0, "fail unless this many decisions/sec are sustained (summed over algorithms)")
	flag.StringVar(&opt.format, "format", "text", "report format: text | json")
	flag.IntVar(&opt.pipeline, "pipeline", 1, "batches in flight per connection, socket or ring (1 = stop-and-wait; more needs a wire transport)")
	flag.BoolVar(&opt.prewarm, "prewarm", false, "touch every link once before the timed region (pre-grown maps/slabs; measures steady state)")
	flag.StringVar(&opt.transport, "transport", "", "transport to drive: tcp | udp | shm, over loopback unless -addr/-shm/-serve-exec names a server (empty = in-process, or tcp when -addr is set)")
	flag.StringVar(&opt.serveExec, "serve-exec", "", "fork this softrated binary as a separate server process and drive it over -transport (multi-process bench mode)")
	flag.StringVar(&opt.shmPath, "shm", "", "attach to an external server's shm ring files at this path prefix (connect-only; needs -transport shm)")
	flag.IntVar(&opt.shmBytes, "shm-ring-bytes", 0, "per-ring capacity for in-process/forked shm servers (0 = default)")
	flag.Float64Var(&opt.udpDrop, "udp-drop", 0, "UDP chaos shim: drop this fraction of response datagrams client-side (deterministic per -seed); timed-out decisions keep the current rate")
	flag.DurationVar(&opt.udpTimeout, "udp-timeout", 20*time.Millisecond, "UDP: how long to wait for a response before treating the decision as lost")
	flag.IntVar(&opt.coldLinks, "cold-links", 0, "per-algorithm cold population churned round-robin behind the hot set: each link is touched once per lap and idles past the TTL before its next turn, so every touch is an evict/restore (0 = off)")
	flag.Float64Var(&opt.hotFrac, "hot-frac", 0.1, "with -cold-links: fraction of each batch replaying the hot trace-driven links; the rest churns the cold population")
	flag.StringVar(&opt.coldDir, "cold-dir", "", "in-process/loopback server (or the -serve-exec child): spill evicted links to a disk cold tier in this directory")
	flag.IntVar(&opt.coldFront, "cold-front", 0, "RAM-archive link budget in front of the cold tier, on disk or in memory (0 = server default)")
	flag.Float64Var(&opt.compactRatio, "compact-ratio", 0, "with -cold-dir: dead-byte ratio that triggers cold segment compaction (0 = server default)")
	flag.Uint64Var(&opt.minSpills, "min-spills", 0, "fail unless the in-process server spilled at least this many links to the cold tier")
	flag.IntVar(&opt.maxInflight, "max-inflight", 0, "served store (in-process, loopback or -serve-exec child): bound Decide batches in flight; lossless transports queue, UDP sheds (0 = unbounded)")
	flag.DurationVar(&opt.writeTimeout, "tcp-write-timeout", 0, "served store: evict a TCP peer write-blocked this long (0 = never)")
	flag.Float64Var(&opt.chaosCold, "chaos-cold", 0, "with -cold-dir: inject write-path faults into the cold tier at this per-op probability (spills fail and retry; answered decisions stay exact)")
	flag.Int64Var(&opt.chaosSeed, "chaos-seed", 1, "seed for the -chaos-cold fault schedule (same seed = same faults)")
	flag.IntVar(&opt.stallConns, "chaos-stall-conns", 0, "open this many TCP connections that submit but never read responses (exercises -tcp-write-timeout eviction; needs a TCP server)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if opt.clients < 1 || opt.links < opt.clients || opt.batch < 1 || opt.pipeline < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: need clients >= 1, links >= clients, batch >= 1, pipeline >= 1")
		os.Exit(2)
	}
	if opt.transport == "" && opt.addr != "" {
		opt.transport = "tcp"
	}
	switch opt.transport {
	case "", "tcp", "udp", "shm":
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -transport %q (want tcp | udp | shm)\n", opt.transport)
		os.Exit(2)
	}
	if opt.pipeline > 1 && opt.transport == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -pipeline needs a wire transport (-transport or -addr); the in-process path has no wire to pipeline")
		os.Exit(2)
	}
	if opt.shmPath != "" && opt.transport != "shm" {
		fmt.Fprintln(os.Stderr, "loadgen: -shm needs -transport shm")
		os.Exit(2)
	}
	if opt.udpDrop > 0 && opt.transport != "udp" {
		fmt.Fprintln(os.Stderr, "loadgen: -udp-drop needs -transport udp")
		os.Exit(2)
	}
	if opt.serveExec != "" && opt.transport == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -serve-exec needs -transport tcp | udp | shm")
		os.Exit(2)
	}
	if opt.format != "text" && opt.format != "json" {
		fmt.Fprintf(os.Stderr, "loadgen: unknown -format %q (want text | json)\n", opt.format)
		os.Exit(2)
	}
	if opt.coldLinks > 0 {
		if opt.pipeline > 1 || opt.transport == "udp" {
			fmt.Fprintln(os.Stderr, "loadgen: -cold-links walks one ordered lap per client over a lossless transport (no -pipeline > 1, no -transport udp)")
			os.Exit(2)
		}
		if opt.hotFrac < 0 || opt.hotFrac > 1 {
			fmt.Fprintln(os.Stderr, "loadgen: -hot-frac must be in [0,1]")
			os.Exit(2)
		}
		if opt.ttl <= 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -cold-links needs -ttl > 0 (laps are paced to 2x the TTL so every touch is an evict/restore)")
			os.Exit(2)
		}
		// The cold population is the idle-skew mechanism; the bursty-link
		// fraction of the hot set would only muddy the churn accounting.
		opt.idleFrac = 0
	}
	localStore := opt.addr == "" && opt.serveExec == "" && opt.shmPath == ""
	if opt.coldDir != "" && !localStore && opt.serveExec == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -cold-dir configures the served store; with a remote server pass it to softrated instead (or use -serve-exec)")
		os.Exit(2)
	}
	if opt.minSpills > 0 && !localStore {
		fmt.Fprintln(os.Stderr, "loadgen: -min-spills needs an in-process or loopback server")
		os.Exit(2)
	}
	if opt.chaosCold > 0 && opt.coldDir == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -chaos-cold needs -cold-dir (it injects faults into the cold tier)")
		os.Exit(2)
	}
	if opt.stallConns > 0 && opt.transport != "tcp" && opt.serveExec == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -chaos-stall-conns needs a TCP server (-transport tcp, or any -serve-exec child)")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// algosFor resolves the -algo flag into registry specs.
func algosFor(arg string) ([]ctl.Spec, error) {
	if arg == "all" {
		return ctl.Specs(), nil
	}
	var out []ctl.Spec
	seen := map[ctl.Algo]bool{}
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		spec, ok := ctl.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q (registered: %s)", name, strings.Join(ctl.Names(), ", "))
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("algorithm %q listed twice", name)
		}
		seen[spec.ID] = true
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no algorithms in %q", arg)
	}
	return out, nil
}

// conn is one client's path to the server: an in-process call or one
// client connection carrying the window's batches. submit sends s.ops;
// wait blocks for the answer and fills s.out — answered is false only on
// the lossy transport, when the decision timed out (the links keep their
// rates).
type conn interface {
	submit(s *slot) error
	wait(s *slot) (answered bool, err error)
}

// inprocConn calls Server.Decide directly: a depth-1 conn whose whole
// exchange happens in wait.
type inprocConn struct{ srv *server.Server }

func (c inprocConn) submit(*slot) error { return nil }
func (c inprocConn) wait(s *slot) (bool, error) {
	c.srv.Decide(s.ops, s.out)
	return true, nil
}

// pipeConn is a lossless, in-order client: TCP or a shared-memory ring.
type pipeConn struct{ cli *server.Client }

func (c pipeConn) submit(s *slot) (err error) {
	s.p, err = c.cli.Submit(s.ops)
	return err
}

func (c pipeConn) wait(s *slot) (bool, error) {
	_, err := c.cli.Wait(s.p, s.out)
	return err == nil, err
}

// udpConn is the lossy client. With -verify each submitted batch is
// registered with the arrival-driven mirror: the bare checkers advance
// only when a response proves the server applied it (the OnResponse
// hook), so a batch shed by an overloaded server leaves both sides
// untouched.
type udpConn struct {
	cli *server.UDPClient
	uv  *udpVerifier // nil without -verify
}

func (c udpConn) submit(s *slot) (err error) {
	if s.p, err = c.cli.Submit(s.ops); err == nil && c.uv != nil {
		c.uv.track(s.p.Seq(), s.ops, s.batch)
	}
	return err
}

func (c udpConn) wait(s *slot) (bool, error) {
	_, ok, err := c.cli.Wait(s.p, s.out)
	return ok, err
}

// maxRates bounds the chosen-rate distribution (the full Table 2 set).
const maxRates = 8

// link is one replayed sender.
type link struct {
	id   uint64
	algo ctl.Algo
	iter *trace.FrameIter
	rate int32
	bare ctl.Controller
	// bareSoft, when bare is a SoftRate controller, skips the interface
	// dispatch on the (hot) verify path — mirroring the store's own
	// SoftRate fast path so -verify measures the service, not the checker.
	bareSoft *core.SoftRate

	// Bursty links send one frame, then stay silent for idleGap — long
	// enough to cross the server's TTL, so they exercise eviction and
	// transparent restoration. Zero means always active.
	idleGap time.Duration
	nextAt  time.Time
}

type clientResult struct {
	decisions  uint64
	mismatch   string
	err        error
	lat        stats.Histogram
	rateCounts [maxRates]uint64
	udp        server.UDPClientStats
}

// algoReport is one algorithm's slice of the machine-readable report.
type algoReport struct {
	Algo            string   `json:"algo"`
	Decisions       uint64   `json:"decisions"`
	DecisionsPerSec float64  `json:"decisions_per_sec"`
	P50Ns           int64    `json:"batch_p50_ns"`
	P99Ns           int64    `json:"batch_p99_ns"`
	MaxNs           int64    `json:"batch_max_ns"`
	RateCounts      []uint64 `json:"rate_counts"`
	StateBytes      int      `json:"state_bytes"`
	// Store churn, per algorithm (in-process servers only).
	Creates   uint64 `json:"store_creates,omitempty"`
	Restores  uint64 `json:"store_restores,omitempty"`
	Evictions uint64 `json:"store_evictions,omitempty"`
	Live      int    `json:"store_live,omitempty"`
	Archived  int    `json:"store_archived,omitempty"`
}

// benchReport is the -format json report.
type benchReport struct {
	Transport       string       `json:"transport"`
	Mix             string       `json:"mix"`
	LinksPerAlgo    int          `json:"links_per_algo"`
	ClientsPerAlgo  int          `json:"clients_per_algo"`
	Batch           int          `json:"batch"`
	Pipeline        int          `json:"pipeline,omitempty"`
	Prewarmed       bool         `json:"prewarmed,omitempty"`
	ElapsedSec      float64      `json:"elapsed_sec"`
	TotalDecisions  uint64       `json:"total_decisions"`
	DecisionsPerSec float64      `json:"decisions_per_sec"`
	Verified        bool         `json:"verified"`
	Algos           []algoReport `json:"algos"`
	// UDPStats aggregates the UDP clients' datagram fates (loss runs show
	// nonzero timeouts: each is one decision lost and a rate kept).
	UDPStats *server.UDPClientStats `json:"udp,omitempty"`
	UDPDrop  float64                `json:"udp_drop,omitempty"`
	// Cold-churn shape and outcome (in-process/loopback servers only).
	ColdLinks int              `json:"cold_links,omitempty"`
	HotFrac   float64          `json:"hot_frac,omitempty"`
	Cold      *coldstore.Stats `json:"cold,omitempty"`
	// ResidentBytes is heap-in-use after a forced GC at the end of the
	// run — the resident-memory figure the cold tier exists to bound.
	ResidentBytes uint64 `json:"resident_bytes,omitempty"`
	// Chaos records the fault-injection shape and what it provoked
	// (in-process/loopback servers report the counters; -serve-exec runs
	// record only the shape — the child logs its own final status).
	Chaos *chaosReport `json:"chaos,omitempty"`
}

// chaosReport is the chaos/overload slice of the report.
type chaosReport struct {
	ChaosCold         float64 `json:"chaos_cold,omitempty"`
	ChaosSeed         int64   `json:"chaos_seed,omitempty"`
	MaxInflight       int     `json:"max_inflight,omitempty"`
	StallConns        int     `json:"stall_conns,omitempty"`
	ColdSpillErrors   uint64  `json:"cold_spill_errors,omitempty"`
	ColdRestoreErrors uint64  `json:"cold_restore_errors,omitempty"`
	BreakerTrips      uint64  `json:"breaker_trips,omitempty"`
	SpillRetries      uint64  `json:"spill_retries,omitempty"`
	ColdDegraded      bool    `json:"cold_degraded,omitempty"`
	UDPShed           uint64  `json:"udp_shed,omitempty"`
	SlowEvicted       uint64  `json:"slow_clients_evicted,omitempty"`
}

func run(opt options) error {
	mix, err := mixFor(opt.mix)
	if err != nil {
		return err
	}
	algos, err := algosFor(opt.algo)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "loadgen: generating traces (mix=%s)...\n", opt.mix)
	traces := makeTraces(opt)

	// A local (in-process or loopback) server can carry the disk cold
	// tier directly; -serve-exec children get the flags forwarded instead.
	var coldTier *coldstore.Store
	if opt.coldDir != "" && opt.serveExec == "" {
		ccfg := coldstore.Config{Dir: opt.coldDir, CompactRatio: opt.compactRatio}
		var inj *faultfs.Injector
		if opt.chaosCold > 0 {
			// Write-path faults only (see faultfs.ChaosRates): spills fail
			// and trip the breaker, but whatever does reach disk reads back
			// real bytes, so -verify exactness is preserved. Disarmed until
			// Open finishes so the tier always comes up.
			inj = faultfs.Wrap(faultfs.OS{}, uint64(opt.chaosSeed), faultfs.ChaosRates(opt.chaosCold))
			inj.Arm(false)
			ccfg.FS = inj
			fmt.Fprintf(os.Stderr, "loadgen: CHAOS cold-tier fault injection on (rate %g, seed %d)\n", opt.chaosCold, opt.chaosSeed)
		}
		var err error
		coldTier, err = coldstore.Open(ccfg)
		if err != nil {
			return err
		}
		defer coldTier.Close()
		if inj != nil {
			inj.Arm(true)
		}
	}

	newLocalServer := func() *server.Server {
		return server.New(server.Config{Store: linkstore.Config{
			Shards: opt.shards,
			TTL:    opt.ttl,
			// The loadgen knows its own population exactly; a real
			// deployment passes softrated -expected-links. Each algorithm
			// holds only its own -links share, so the slab reserve uses
			// the per-algo figure (the cold population churns through a
			// TTL-bounded slice of the hot map, so it needs no reserve).
			ExpectedLinks:        opt.links * len(algos),
			ExpectedLinksPerAlgo: opt.links,
			Cold:                 coldTier,
			ColdFront:            opt.coldFront,
		},
			MaxInflight:  opt.maxInflight,
			WriteTimeout: opt.writeTimeout,
		})
	}

	var srv *server.Server
	transport := "in-process"
	udpAddr := ""
	shmPrefix := opt.shmPath
	shmRings := opt.clients * len(algos) // one ring per client goroutine

	childTCP := ""
	if opt.serveExec != "" {
		child, err := startServeExec(opt, shmRings)
		if err != nil {
			return err
		}
		defer child.stop()
		childTCP = child.tcpAddr
		switch opt.transport {
		case "tcp":
			opt.addr = child.tcpAddr
			transport = "tcp-exec"
		case "udp":
			udpAddr = child.udpAddr
			transport = "udp-exec"
		case "shm":
			shmPrefix = child.shmPath
			transport = "shm-exec"
		}
	} else {
		switch opt.transport {
		case "":
			srv = newLocalServer()
		case "tcp":
			if opt.addr != "" {
				transport = "tcp:" + opt.addr
				break
			}
			srv = newLocalServer()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go srv.Serve(l)
			defer srv.Close()
			opt.addr = l.Addr().String()
			transport = "tcp-loopback"
		case "udp":
			if opt.addr != "" {
				udpAddr = opt.addr
				transport = "udp:" + opt.addr
				break
			}
			srv = newLocalServer()
			uconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return err
			}
			go srv.ServeUDP(uconn)
			defer srv.Close()
			udpAddr = uconn.LocalAddr().String()
			transport = "udp-loopback"
		case "shm":
			if shmPrefix != "" {
				transport = "shm:" + shmPrefix
				break
			}
			srv = newLocalServer()
			dir, err := os.MkdirTemp("", "softrate-shm-")
			if err != nil {
				return err
			}
			shmPrefix = filepath.Join(dir, "ring")
			regions := make([]*shmring.Region, shmRings)
			for i := range regions {
				g, err := shmring.Create(server.RingPath(shmPrefix, i), opt.shmBytes)
				if err != nil {
					os.RemoveAll(dir)
					return err
				}
				regions[i] = g
			}
			defer func() {
				for _, g := range regions {
					g.Close()
				}
				os.RemoveAll(dir)
			}()
			go srv.ServeSHM(regions)
			defer srv.Close() // LIFO: the serve loop stops before the regions unmap
			transport = "shm-loopback"
		}
	}

	// Stalled TCP clients run alongside the real load for the whole run
	// (prewarm included): they submit valid batches in a reserved link-ID
	// namespace and never read a response, so the server's write-deadline
	// eviction is what keeps them from pinning handlers.
	var stallWG *sync.WaitGroup
	stallStop := make(chan struct{})
	if opt.stallConns > 0 {
		stallAddr := opt.addr
		if stallAddr == "" {
			stallAddr = childTCP
		}
		if stallAddr == "" {
			return errors.New("-chaos-stall-conns: no TCP address to stall against")
		}
		fmt.Fprintf(os.Stderr, "loadgen: CHAOS %d stalled TCP clients against %s\n", opt.stallConns, stallAddr)
		stallWG = runStallConns(stallAddr, opt.stallConns, stallStop)
		defer func() {
			close(stallStop)
			stallWG.Wait()
		}()
	}

	// Per algorithm: the same link population, the same per-link trace
	// iterator seeds — identical FramesMix sequences head-to-head — but
	// disjoint link IDs, so one store serves the full mix.
	idleGap := 2 * opt.ttl
	if idleGap <= 0 {
		idleGap = time.Second
	}
	clients := make([][]*link, len(algos)*opt.clients)
	for ai, spec := range algos {
		for i := 0; i < opt.links; i++ {
			lt := traces[i%len(traces)]
			// Namespace link IDs by registry algorithm ID (not list
			// position) so two loadgen processes driving different -algo
			// sets at one server never collide on link state.
			l := &link{
				id:   uint64(spec.ID)<<40 | uint64(i+1),
				algo: spec.ID,
				iter: lt.FramesMix(opt.seed+int64(i)*7919, mix),
			}
			if float64(i) < opt.idleFrac*float64(opt.links) {
				l.idleGap = idleGap
			}
			if opt.verify {
				if spec.ID == ctl.AlgoSoftRate {
					// Keep the SoftRate checkers as bare core controllers,
					// allocated densely: -verify doubles the per-decision
					// controller work, and the checker should not dominate
					// what the run measures.
					l.bareSoft = core.New(core.DefaultConfig())
				} else {
					l.bare = spec.New()
				}
			}
			c := ai*opt.clients + i%opt.clients
			clients[c] = append(clients[c], l)
		}
	}
	var pops []*coldPop
	if opt.coldLinks > 0 {
		pops = makeColdPops(algos, opt)
		fmt.Fprintf(os.Stderr, "loadgen: cold churn: %d links per algorithm behind a hot-frac %.2f hot set\n",
			opt.coldLinks, opt.hotFrac)
	}

	names := make([]string, len(algos))
	for i, s := range algos {
		names[i] = s.Name
	}
	pipeNote := ""
	if opt.pipeline > 1 {
		pipeNote = fmt.Sprintf(", pipeline %d", opt.pipeline)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %s x %d clients x ~%d links, batch %d%s, %v via %s\n",
		strings.Join(names, "+"), opt.clients, opt.links/opt.clients, opt.batch, pipeNote, opt.duration, transport)
	if opt.verify && srv == nil {
		fmt.Fprintln(os.Stderr, "loadgen: note: -verify against a remote server assumes these link IDs are fresh; a server that already served them will (correctly) report mismatches")
	}

	// Clients dial (and with -prewarm, walk every link once) before the
	// measurement clock starts: the timed region then covers only
	// steady-state decisions.
	var stop atomic.Bool
	var warmed sync.WaitGroup
	startCh := make(chan struct{})
	results := make([]clientResult, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		warmed.Add(1)
		go func(c int) {
			defer wg.Done()
			dr := &driver{opt: opt, links: clients[c], window: 1}
			if pops != nil {
				dr.pop = pops[c]
			}
			fail := func(err error) {
				results[c].err = err
				warmed.Done()
			}
			var udp *server.UDPClient
			switch opt.transport {
			case "":
				dr.c = inprocConn{srv}
			case "tcp":
				cli, err := server.DialPipelined(opt.addr, opt.pipeline)
				if err != nil {
					fail(err)
					return
				}
				defer cli.Close()
				dr.c, dr.window = pipeConn{cli}, opt.pipeline
			case "udp":
				cli, err := server.DialUDP(udpAddr, opt.pipeline, opt.udpTimeout)
				if err != nil {
					fail(err)
					return
				}
				defer cli.Close()
				if opt.verify {
					// The UDP mirror advances on response arrival, not at
					// submit: the hook fires before the drop shim below, so
					// injected drops still advance it while server-side sheds
					// (no response at all) never do. See udpVerifier.
					dr.uv = newUDPVerifier()
					cli.OnResponse = dr.uv.onResponse
				}
				if opt.udpDrop > 0 {
					// Deterministic per-client chaos: the shim discards this
					// fraction of responses after parsing, exactly as if the
					// network had eaten them.
					rng := rand.New(rand.NewSource(opt.seed + 104729*int64(c+1)))
					p := opt.udpDrop
					cli.DropResponse = func(uint32) bool { return rng.Float64() < p }
				}
				udp = cli
				dr.c, dr.window = udpConn{cli, dr.uv}, opt.pipeline
			case "shm":
				cli, err := dialFreeRing(shmPrefix, shmRings, opt.pipeline)
				if err != nil {
					fail(err)
					return
				}
				defer cli.Close()
				dr.c, dr.window = pipeConn{cli}, opt.pipeline
			}
			if opt.prewarm && !dr.replay(nil) {
				results[c] = dr.res
				warmed.Done()
				return
			}
			// Measurements restart here; the warmed link state is kept.
			dr.res = clientResult{}
			warmed.Done()
			<-startCh
			dr.replay(&stop)
			results[c] = dr.res
			if udp != nil {
				results[c].udp = udp.Stats()
			}
		}(c)
	}
	warmed.Wait()
	start := time.Now()
	close(startCh)
	time.AfterFunc(opt.duration, func() { stop.Store(true) })
	wg.Wait()
	elapsed := time.Since(start)

	// Fold per-client results into per-algorithm reports (clients are
	// grouped by algorithm, so latency histograms attribute cleanly).
	var total uint64
	report := benchReport{
		Transport:      transport,
		Mix:            opt.mix,
		LinksPerAlgo:   opt.links,
		ClientsPerAlgo: opt.clients,
		Batch:          opt.batch,
		Pipeline:       opt.pipeline,
		Prewarmed:      opt.prewarm,
		ElapsedSec:     elapsed.Seconds(),
		Verified:       opt.verify,
	}
	var storeStats *linkstore.Stats
	if srv != nil {
		s := srv.Stats().Store
		storeStats = &s
		report.Cold = s.Cold
		// Restore errors break exactness (the store fell through to a
		// fresh controller while the bare mirror kept its state); spill
		// errors do not (the failed generation stays resident in RAM), so
		// chaos runs can inject write faults under -verify.
		if opt.verify && s.ColdRestoreErrors != 0 {
			return fmt.Errorf("cold tier reported %d restore errors", s.ColdRestoreErrors)
		}
		// HeapInuse after a forced GC is the honest resident figure: live
		// link state plus the cold index, with garbage discounted.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		report.ResidentBytes = ms.HeapInuse
	}
	if opt.coldLinks > 0 {
		report.ColdLinks = opt.coldLinks
		report.HotFrac = opt.hotFrac
	}
	if opt.chaosCold > 0 || opt.maxInflight > 0 || opt.stallConns > 0 {
		ch := &chaosReport{MaxInflight: opt.maxInflight, StallConns: opt.stallConns}
		if opt.chaosCold > 0 {
			ch.ChaosCold, ch.ChaosSeed = opt.chaosCold, opt.chaosSeed
		}
		if storeStats != nil {
			ch.ColdSpillErrors = storeStats.ColdSpillErrors
			ch.ColdRestoreErrors = storeStats.ColdRestoreErrors
			ch.BreakerTrips = storeStats.BreakerTrips
			ch.SpillRetries = storeStats.SpillRetries
			ch.ColdDegraded = storeStats.ColdDegraded
		}
		if srv != nil {
			st := srv.Status()
			ch.UDPShed = st.UDP.Shed
			ch.SlowEvicted = st.Transport.SlowClientsEvicted
		}
		report.Chaos = ch
	}
	for ai, spec := range algos {
		var lat stats.Histogram
		ar := algoReport{Algo: spec.Name, StateBytes: spec.StateLen, RateCounts: make([]uint64, maxRates)}
		for c := ai * opt.clients; c < (ai+1)*opt.clients; c++ {
			r := &results[c]
			if r.err != nil {
				return r.err
			}
			if r.mismatch != "" {
				return fmt.Errorf("determinism violation: %s", r.mismatch)
			}
			ar.Decisions += r.decisions
			lat.Merge(&r.lat)
			for k := range r.rateCounts {
				ar.RateCounts[k] += r.rateCounts[k]
			}
		}
		ar.DecisionsPerSec = float64(ar.Decisions) / elapsed.Seconds()
		ar.P50Ns = int64(lat.Quantile(0.5))
		ar.P99Ns = int64(lat.Quantile(0.99))
		ar.MaxNs = int64(lat.Max())
		if storeStats != nil {
			for _, as := range storeStats.Algos {
				if as.Algo == spec.ID {
					ar.Creates, ar.Restores, ar.Evictions = as.Creates, as.Restores, as.Evictions
					ar.Live, ar.Archived = as.Live, as.Archived
				}
			}
		}
		total += ar.Decisions
		report.Algos = append(report.Algos, ar)
	}
	report.TotalDecisions = total
	report.DecisionsPerSec = float64(total) / elapsed.Seconds()
	if opt.transport == "udp" {
		var agg server.UDPClientStats
		for i := range results {
			u := &results[i].udp
			agg.Sent += u.Sent
			agg.Answered += u.Answered
			agg.Timeouts += u.Timeouts
			agg.Stale += u.Stale
			agg.Malformed += u.Malformed
			agg.Injected += u.Injected
		}
		report.UDPStats = &agg
		report.UDPDrop = opt.udpDrop
	}

	if opt.format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		printText(report, srv, opt)
	}

	if opt.minRate > 0 && report.DecisionsPerSec < opt.minRate {
		return fmt.Errorf("sustained %.0f decisions/sec, below the required %.0f", report.DecisionsPerSec, opt.minRate)
	}
	if opt.minSpills > 0 && report.Cold.Spills < opt.minSpills {
		return fmt.Errorf("cold tier spilled %d links, below the required %d", report.Cold.Spills, opt.minSpills)
	}
	return nil
}

func printText(rep benchReport, srv *server.Server, opt options) {
	fmt.Printf("decisions: %d in %.1fs = %.0f decisions/sec\n",
		rep.TotalDecisions, rep.ElapsedSec, rep.DecisionsPerSec)
	for _, ar := range rep.Algos {
		fmt.Printf("%-11s %9d decisions (%.0f/sec) | batch p50=%v p99=%v max=%v | state %dB\n",
			ar.Algo+":", ar.Decisions, ar.DecisionsPerSec,
			time.Duration(ar.P50Ns), time.Duration(ar.P99Ns), time.Duration(ar.MaxNs), ar.StateBytes)
		fmt.Printf("            rates")
		for k := 0; k < rate.Count(); k++ {
			fmt.Printf(" %d:%d", k, ar.RateCounts[k])
		}
		fmt.Println()
		if srv != nil {
			fmt.Printf("            store creates=%d restores=%d evictions=%d live=%d archived=%d\n",
				ar.Creates, ar.Restores, ar.Evictions, ar.Live, ar.Archived)
		}
	}
	if srv != nil {
		st := srv.Stats()
		fmt.Printf("store: live=%d archived=%d (%d KiB) evictions=%d creates=%d restores=%d\n",
			st.Store.Live, st.Store.Archived, st.Store.ArchivedBytes>>10, st.Store.Evictions, st.Store.Creates, st.Store.Restores)
		fmt.Printf("kinds: ber=%d collision=%d silent=%d postamble=%d\n",
			st.Kinds[0], st.Kinds[1], st.Kinds[2], st.Kinds[3])
	} else {
		fmt.Println("store: n/a (remote server; see softrated -stats)")
	}
	if c := rep.Cold; c != nil {
		fmt.Printf("cold: links=%d segments=%d disk=%d MiB spills=%d restores=%d compactions=%d restore-p99=%v\n",
			c.Links, c.Segments, c.DiskBytes>>20, c.Spills, c.Restores, c.Compactions,
			time.Duration(c.RestoreLatency.P99Ns))
	}
	if rep.ResidentBytes > 0 {
		fmt.Printf("resident: %.1f MiB heap in use after final GC\n", float64(rep.ResidentBytes)/(1<<20))
	}
	if ch := rep.Chaos; ch != nil {
		fmt.Printf("chaos: spill-errors=%d restore-errors=%d breaker-trips=%d retries=%d degraded=%v shed=%d slow-evicted=%d\n",
			ch.ColdSpillErrors, ch.ColdRestoreErrors, ch.BreakerTrips, ch.SpillRetries, ch.ColdDegraded, ch.UDPShed, ch.SlowEvicted)
	}
	if rep.UDPStats != nil {
		u := rep.UDPStats
		fmt.Printf("udp: sent=%d answered=%d timeouts=%d stale=%d malformed=%d injected-drops=%d (drop rate %g)\n",
			u.Sent, u.Answered, u.Timeouts, u.Stale, u.Malformed, u.Injected, rep.UDPDrop)
	}
	if opt.verify {
		fmt.Printf("verify: %d decisions byte-identical to bare controllers\n", rep.TotalDecisions)
	}
}

// dialFreeRing attaches the first free shm ring under prefix. Concurrent
// clients race for slots (Attach is a CAS), so losers rescan until the
// deadline; with one ring per client everyone lands somewhere.
func dialFreeRing(prefix string, rings, depth int) (*server.SHMClient, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var lastErr error
		for i := 0; i < rings; i++ {
			cli, err := server.DialSHM(server.RingPath(prefix, i), depth, 0)
			if err == nil {
				return cli, nil
			}
			lastErr = err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("no free shm ring under %s (%d rings): %w", prefix, rings, lastErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// childServer is a softrated process forked by -serve-exec: the
// multi-process bench mode, where the transport crosses a real process
// boundary instead of goroutines sharing one runtime.
type childServer struct {
	cmd     *exec.Cmd
	tcpAddr string
	udpAddr string
	shmPath string
	tmpDir  string
}

// startServeExec forks the softrated binary with ephemeral listeners
// (and, for shm, a temp ring directory), then scans its stderr banner
// lines for the actual addresses before returning.
func startServeExec(opt options, shmRings int) (*childServer, error) {
	c := &childServer{}
	args := []string{"-addr", "127.0.0.1:0", "-shards", fmt.Sprint(opt.shards), "-ttl", opt.ttl.String()}
	if opt.coldFront > 0 {
		args = append(args, "-cold-front", fmt.Sprint(opt.coldFront))
	}
	if opt.coldDir != "" {
		args = append(args, "-cold-dir", opt.coldDir)
		if opt.compactRatio > 0 {
			args = append(args, "-compact-ratio", fmt.Sprint(opt.compactRatio))
		}
		if opt.chaosCold > 0 {
			args = append(args, "-chaos-cold", fmt.Sprint(opt.chaosCold), "-chaos-seed", fmt.Sprint(opt.chaosSeed))
		}
	}
	if opt.maxInflight > 0 {
		args = append(args, "-max-inflight", fmt.Sprint(opt.maxInflight))
	}
	if opt.writeTimeout > 0 {
		args = append(args, "-tcp-write-timeout", opt.writeTimeout.String())
	}
	switch opt.transport {
	case "udp":
		args = append(args, "-udp", "127.0.0.1:0")
	case "shm":
		dir, err := os.MkdirTemp("", "softrate-shm-")
		if err != nil {
			return nil, err
		}
		c.tmpDir = dir
		c.shmPath = filepath.Join(dir, "ring")
		args = append(args, "-shm", c.shmPath, "-shm-rings", fmt.Sprint(shmRings))
		if opt.shmBytes > 0 {
			args = append(args, "-shm-ring-bytes", fmt.Sprint(opt.shmBytes))
		}
	}
	cmd := exec.Command(opt.serveExec, args...)
	cmd.Stdout = os.Stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(c.tmpDir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(c.tmpDir)
		return nil, fmt.Errorf("serve-exec %s: %w", opt.serveExec, err)
	}
	c.cmd = cmd

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "  [softrated] "+line)
			if sent {
				continue
			}
			if a, ok := bannerAddr(line, "softrated: listening on "); ok {
				c.tcpAddr = a
			}
			if a, ok := bannerAddr(line, "softrated: udp on "); ok {
				c.udpAddr = a
			}
			haveTransport := (opt.transport == "tcp" && c.tcpAddr != "") ||
				(opt.transport == "udp" && c.udpAddr != "") ||
				(opt.transport == "shm" && strings.HasPrefix(line, "softrated: shm rings at "))
			if haveTransport {
				sent = true
				ready <- nil
			}
		}
		if !sent {
			ready <- fmt.Errorf("serve-exec: softrated exited before announcing its %s transport", opt.transport)
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			c.stop()
			return nil, err
		}
		return c, nil
	case <-time.After(10 * time.Second):
		c.stop()
		return nil, errors.New("serve-exec: timed out waiting for softrated to come up")
	}
}

// bannerAddr extracts the address token after prefix in a softrated
// banner line ("softrated: udp on 127.0.0.1:7447 (burst 32)").
func bannerAddr(line, prefix string) (string, bool) {
	if !strings.HasPrefix(line, prefix) {
		return "", false
	}
	rest := line[len(prefix):]
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// stop drains the child (SIGTERM takes softrated's graceful-drain path)
// and reaps it; a watchdog kill bounds a wedged child.
func (c *childServer) stop() {
	if c.cmd != nil && c.cmd.Process != nil {
		c.cmd.Process.Signal(os.Interrupt)
		watchdog := time.AfterFunc(15*time.Second, func() { c.cmd.Process.Kill() })
		c.cmd.Wait()
		watchdog.Stop()
	}
	if c.tmpDir != "" {
		os.RemoveAll(c.tmpDir)
	}
}

// batchBuilder assembles request batches from a rotating cursor over a
// link population; each ready link contributes its next trace event.
// With a cold population attached, hotFrac of each batch replays the hot
// links and the remainder churns the cold cursor (cold entries carry a
// nil *link in the batch slice; their index is recovered from the op's
// link ID).
type batchBuilder struct {
	links   []*link
	cursor  int
	cold    *coldPop
	hotFrac float64
}

// fill appends up to max ready events to ops/batch (reset first) and
// returns the filled slices. Empty results mean every link is waiting out
// an idle gap or has exhausted its trace.
func (b *batchBuilder) fill(max int, now time.Time, ops []linkstore.Op, batch []*link) ([]linkstore.Op, []*link) {
	ops = ops[:0]
	batch = batch[:0]
	hotMax := max
	if b.cold != nil {
		hotMax = int(float64(max)*b.hotFrac + 0.5)
	}
	skipped := 0
	for len(ops) < hotMax {
		l := b.links[b.cursor]
		b.cursor++
		if b.cursor == len(b.links) {
			b.cursor = 0
		}
		if l.idleGap > 0 {
			if now.Before(l.nextAt) {
				// All-idle guard: don't spin forever filling a batch no
				// link is willing to join.
				if skipped++; skipped > 2*len(b.links) {
					break
				}
				continue
			}
			l.nextAt = now.Add(l.idleGap)
		}
		ev, ok := l.iter.Next(int(l.rate))
		if !ok {
			if skipped++; skipped > 2*len(b.links) {
				break
			}
			continue
		}
		ops = append(ops, linkstore.Op{
			LinkID:    l.id,
			Algo:      l.algo,
			Kind:      ev.Kind,
			RateIndex: int32(ev.RateIndex),
			BER:       ev.BER,
			SNRdB:     float32(ev.SNRdB),
			Delivered: ev.Delivered,
		})
		batch = append(batch, l)
	}
	for b.cold != nil && len(ops) < max {
		op, ok := b.cold.next(now)
		if !ok {
			break // lap gate: the population must idle past the TTL first
		}
		ops = append(ops, op)
		batch = append(batch, nil)
	}
	return ops, batch
}

// driver is one client's replay engine over one conn.
type driver struct {
	c      conn
	window int          // batches in flight (1 = stop-and-wait)
	uv     *udpVerifier // UDP -verify mirror, nil otherwise
	opt    options
	links  []*link
	pop    *coldPop // cold-churn slice, nil without -cold-links
	res    clientResult
}

// absorb applies one answered batch to the closed loop: next rates, the
// chosen-rate histogram, and the -verify check against bare controllers
// (on UDP that comparison already ran in the OnResponse hook when the
// response arrived — see udpVerifier — so the checkers are not advanced
// again here). Returns false when a mismatch ends the run.
func (dr *driver) absorb(ops []linkstore.Op, batch []*link, out []int32) bool {
	res := &dr.res
	for i, l := range batch {
		if l == nil { // cold-churn op: batch index k lives in the link ID
			k := int(ops[i].LinkID - dr.pop.base)
			dr.pop.rates[k] = int8(out[i])
			if ri := out[i]; ri >= 0 && int(ri) < maxRates {
				res.rateCounts[ri]++
			}
			if dr.opt.verify {
				if want := dr.pop.mirror(k, ops[i]); int32(want) != out[i] {
					res.mismatch = fmt.Sprintf("algo %d cold link %d: server decided %d, bare controller %d (op %+v)",
						dr.pop.algo, ops[i].LinkID, out[i], want, ops[i])
					return false
				}
			}
			continue
		}
		l.rate = out[i]
		if ri := out[i]; ri >= 0 && int(ri) < maxRates {
			res.rateCounts[ri]++
		}
		if dr.uv == nil && (l.bare != nil || l.bareSoft != nil) {
			var want int
			if l.bareSoft != nil {
				want = l.bareSoft.Apply(ops[i].Kind, int(ops[i].RateIndex), ops[i].BER)
			} else {
				want = l.bare.Apply(ctl.Feedback{
					Kind:      ops[i].Kind,
					RateIndex: int(ops[i].RateIndex),
					BER:       ops[i].BER,
					SNRdB:     float64(ops[i].SNRdB),
					Airtime:   float64(ops[i].Airtime),
					Delivered: ops[i].Delivered,
				})
			}
			if int32(want) != out[i] {
				res.mismatch = fmt.Sprintf("algo %d link %d: server decided %d, bare controller %d (op %+v)",
					l.algo, l.id, out[i], want, ops[i])
				return false
			}
		}
	}
	return true
}

// slot is one batch of the window: a cohort of links, its built batch,
// and the request in flight for it.
type slot struct {
	bb     batchBuilder
	ops    []linkstore.Op
	batch  []*link
	out    []int32
	p      *server.Pending
	t0     time.Time
	busy   bool
	filled bool // batch built but not yet accepted by submit
	quota  int  // ops this slot may still send
}

// replay is the windowed closed loop. The client's links are partitioned
// into one cohort per window slot: a cohort is an independent closed loop
// (each of its links sees its previous decision before its next frame),
// so a deep window never reorders a link's feedback stream — exactly the
// property the per-link -verify check proves. With a stop flag it replays
// until the flag flips; with nil it is the prewarm pass, driving every
// link's first trace event through the server (and the -verify checkers)
// once, so maps, slabs and the closed loop are all established before the
// timed region. A decision that times out on the lossy transport is a
// lost decision: its cohort's links keep their current rates and the loop
// moves on (a lost response still warmed the server: the request arrived
// and was applied). Returns false when an error or a -verify mismatch,
// recorded in dr.res, ended it.
func (dr *driver) replay(stop *atomic.Bool) bool {
	slots := make([]slot, min(dr.window, len(dr.links)))
	for i := range slots {
		slots[i].ops = make([]linkstore.Op, 0, dr.opt.batch)
		slots[i].batch = make([]*link, 0, dr.opt.batch)
		slots[i].out = make([]int32, dr.opt.batch)
		slots[i].quota = math.MaxInt
	}
	for i, l := range dr.links {
		s := &slots[i%len(slots)]
		s.bb.links = append(s.bb.links, l)
	}
	if stop == nil {
		for i := range slots {
			slots[i].quota = len(slots[i].bb.links)
		}
	} else {
		slots[0].bb.cold, slots[0].bb.hotFrac = dr.pop, dr.opt.hotFrac // -cold-links implies one slot
	}
	queue := make([]int, 0, len(slots)) // busy slots in submission order
	for {
		stopped := stop != nil && stop.Load()
		open := 0 // slots that may still send
		for si := 0; si < len(slots) && !stopped; si++ {
			s := &slots[si]
			if s.quota == 0 {
				continue
			}
			open++
			if s.busy {
				continue
			}
			if !s.filled {
				s.ops, s.batch = s.bb.fill(min(dr.opt.batch, s.quota), time.Now(), s.ops, s.batch)
				if len(s.ops) == 0 {
					if stop == nil {
						s.quota = 0 // every remaining link is idle-gapped or exhausted
					}
					continue // cohort fully idle right now
				}
				s.filled = true
			}
			// Latency is stamped after the batch is built: it measures
			// submit → response, not client-side trace synthesis.
			s.t0 = time.Now()
			err := dr.c.submit(s)
			if errors.Is(err, server.ErrPipelineFull) {
				// Response-byte budget reached before the window depth
				// (deep -pipeline with a large -batch): drain one
				// response first; the built batch stays queued.
				break
			}
			if err != nil {
				dr.res.err = err
				return false
			}
			s.busy, s.filled = true, false
			s.quota -= len(s.ops)
			queue = append(queue, si)
		}
		if len(queue) == 0 {
			if stopped || open == 0 {
				return true
			}
			time.Sleep(time.Millisecond) // every cohort is idle-gapped
			continue
		}
		s := &slots[queue[0]]
		queue = append(queue[:0], queue[1:]...)
		answered, err := dr.c.wait(s)
		if err != nil {
			dr.res.err = err
			return false
		}
		if answered {
			dr.res.lat.Observe(time.Since(s.t0))
			dr.res.decisions += uint64(len(s.ops))
			if !dr.absorb(s.ops, s.batch, s.out) {
				return false
			}
		}
		// The UDP mirror's hook also fires for responses that arrive
		// after their timeout, so its verdict is checked after every wait.
		if dr.uv != nil && dr.uv.mismatch != "" {
			dr.res.mismatch = dr.uv.mismatch
			return false
		}
		s.busy = false
	}
}

func mixFor(name string) (trace.Mix, error) {
	switch name {
	case "clean", "mobile":
		return trace.Mix{}, nil
	case "hidden":
		// Table 1 geometry: most collisions leave the preamble intact
		// (collision-tagged feedback); of the rest, about half are saved
		// by the postamble.
		return trace.Mix{CollisionProb: 0.35, PreambleLossProb: 0.15, PostambleProb: 0.5}, nil
	default:
		return trace.Mix{}, fmt.Errorf("unknown mix %q (want clean | mobile | hidden)", name)
	}
}

// makeTraces builds the shared trace pool for the chosen mix. Links share
// traces (each with a private seeded start offset), so the pool stays
// small regardless of -links.
func makeTraces(opt options) []*trace.LinkTrace {
	gen := func(model *channel.Model, seed int64) *trace.LinkTrace {
		return trace.Generate(trace.GenConfig{
			Model:    model,
			Duration: 1.0,
			Seed:     seed,
		})
	}
	rng := rand.New(rand.NewSource(opt.seed))
	switch opt.mix {
	case "mobile":
		return []*trace.LinkTrace{
			gen(channel.NewWalkingModel(rng,
				channel.LinearTrajectory{StartDist: 2, Speed: 1.2},
				channel.PathLoss{RefSNRdB: 26, RefDist: 1, Exponent: 2.2}), opt.seed+1),
			gen(channel.NewStaticModel(18, channel.NewRayleigh(rng, 40, 0)), opt.seed+2),
		}
	case "hidden":
		return []*trace.LinkTrace{
			gen(channel.NewStaticModel(22, channel.NewRayleigh(rng, 10, 0)), opt.seed+1),
		}
	default: // clean
		return []*trace.LinkTrace{
			gen(channel.NewStaticModel(20, nil), opt.seed+1),
		}
	}
}
