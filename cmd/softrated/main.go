// Command softrated runs the SoftRate decision service over TCP: a
// sharded store of per-link §3.3 controllers answering batched feedback
// frames with next-rate decisions (see internal/server for the wire
// format). Every request carries an ID its response echoes, so a client
// may run stop-and-wait or keep a deep window in flight on the same
// listener.
//
// Usage:
//
//	softrated -addr :7447 -shards 128 -ttl 30s
//	softrated -addr :7447 -expected-links 2000000   # pre-size for the fleet
//	softrated -addr :7447 -stats 5s                 # periodic stats to stderr
//	softrated -addr :7447 -admin 127.0.0.1:7448     # ops plane (see below)
//
// -admin serves the ops plane on a second listener: /statusz (full JSON
// snapshot), /metrics (the same snapshot as a Prometheus exposition),
// /healthz (200 until draining), /debug/pprof/* and /drainz. POST or GET
// /drainz starts a graceful drain: listeners stop accepting, every
// in-flight pipelined request is answered and flushed, idle connections
// are released, and the process exits cleanly after a final stats dump.
// SIGINT/SIGTERM take the identical drain path (-drain-grace bounds how
// long stragglers may hold it open).
//
// Its clients are internal/server's DialPipelined (TCP; the window sets
// the batches in flight), DialUDP and DialSHM. `bash bench/run.sh
// -workload wire-tcp` (or wire-udp, wire-shm) drives it for throughput,
// and `go test ./cmd/softrated/` runs it as a child process — faults,
// kill -9, restart, drain — checking every answer against bare
// controllers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"softrate/internal/coldstore"
	"softrate/internal/ctl"
	"softrate/internal/faultfs"
	"softrate/internal/linkstore"
	"softrate/internal/obs"
	"softrate/internal/server"
	"softrate/internal/server/shmring"
)

func main() { os.Exit(run()) }

// run serves until a drain and returns the exit status. Every return
// after the first shm ring exists goes through its deferred cleanup, so
// a failed start or a failed serve loop never leaves a ring file behind.
func run() int {
	var (
		addr        = flag.String("addr", ":7447", "TCP listen address")
		algo        = flag.String("algo", "softrate", "default algorithm for links whose feedback doesn't name one ("+strings.Join(ctl.Names(), "|")+"); a record may select any registered algorithm per link")
		shards      = flag.Int("shards", 64, "lock stripes in the link store (rounded up to a power of two)")
		ttl         = flag.Duration("ttl", 60*time.Second, "idle TTL before a link is evicted from the hot map (0 = never)")
		statsEvery  = flag.Duration("stats", 0, "print service stats to stderr at this interval (0 = only at exit)")
		expected    = flag.Int("expected-links", 0, "pre-size shard maps and state slabs for this many links (0 = grow on demand)")
		adminAddr   = flag.String("admin", "", "serve the HTTP ops plane on this address (/statusz /metrics /healthz /drainz /debug/pprof); empty = off")
		drainGrace  = flag.Duration("drain-grace", 5*time.Second, "graceful-drain deadline: how long /drainz or SIGINT/SIGTERM waits for in-flight connections before force-closing")
		udpAddr     = flag.String("udp", "", "also serve the loss-tolerant UDP datagram transport on this address; empty = off")
		shmPath     = flag.String("shm", "", "also serve the shared-memory ring transport: create region files at this path (ring i > 0 appends .i) for co-located clients; empty = off")
		shmRings    = flag.Int("shm-rings", 1, "shm region files to create (one co-located client per ring)")
		shmBytes    = flag.Int("shm-ring-bytes", shmring.DefaultCapacity, "per-ring capacity in bytes (power of two)")
		coldDir     = flag.String("cold-dir", "", "spill idle links to an append-only segment log in this directory (recovered at startup); empty = in-memory tier, lost at exit")
		coldFront   = flag.Int("cold-front", 0, "RAM-archive link budget in front of the cold tier (recently evicted links restore without a cold-tier read); 0 = default "+fmt.Sprint(linkstore.DefaultColdFront))
		compactRat  = flag.Float64("compact-ratio", 0, "dead-byte ratio past which a cold segment is rewritten, in (0,1]; 0 = default "+fmt.Sprint(coldstore.DefaultCompactRatio))
		maxInflight = flag.Int("max-inflight", 0, "bound the Decide batches in flight across all transports: lossless transports queue at the gate, the UDP burst loop sheds; 0 = unbounded")
		writeTO     = flag.Duration("tcp-write-timeout", 0, "evict a TCP peer whose socket stays write-blocked this long (a stuck client can't pin a handler or the drain); 0 = never")
		chaosCold   = flag.Float64("chaos-cold", 0, "inject write-path faults into the cold tier at this per-op probability (testing only; see internal/faultfs); 0 = off")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed for the -chaos-cold fault schedule (same seed = same faults)")
	)
	flag.Parse()

	spec, ok := ctl.ByName(*algo)
	if !ok {
		fmt.Fprintf(os.Stderr, "softrated: unknown -algo %q (registered: %s)\n", *algo, strings.Join(ctl.Names(), ", "))
		return 2
	}
	// Every count, size, fraction and duration is checked before the cold
	// tier, a listener or a ring exists. NaN fails every range.
	ringOK := *shmBytes == 0 || *shmBytes >= shmring.MinCapacity && *shmBytes&(*shmBytes-1) == 0
	for _, c := range []struct {
		flag, want string
		ok         bool
	}{
		{"shards", "at least 1", *shards >= 1},
		{"shm-rings", "at least 1", *shmRings >= 1},
		{"shm-ring-bytes", fmt.Sprintf("0 or a power of two of at least %d", shmring.MinCapacity), ringOK},
		{"cold-front", "at least 0", *coldFront >= 0},
		{"expected-links", "at least 0", *expected >= 0},
		{"max-inflight", "at least 0", *maxInflight >= 0},
		{"compact-ratio", "0 or in (0,1]", *compactRat >= 0 && *compactRat <= 1},
		{"chaos-cold", "a probability in [0,1]", *chaosCold >= 0 && *chaosCold <= 1},
		{"ttl", "at least 0", *ttl >= 0},
		{"stats", "at least 0", *statsEvery >= 0},
		{"drain-grace", "at least 0", *drainGrace >= 0},
		{"tcp-write-timeout", "at least 0", *writeTO >= 0},
	} {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "softrated: -%s %v: must be %s\n", c.flag, flag.Lookup(c.flag).Value, c.want)
			return 2
		}
	}

	var cold *coldstore.Store
	if *coldDir != "" {
		ccfg := coldstore.Config{Dir: *coldDir, CompactRatio: *compactRat}
		var inj *faultfs.Injector
		if *chaosCold > 0 {
			// Write-path faults only: spills fail (and trip the breaker)
			// but restores that do reach disk read real bytes, so answered
			// decisions stay byte-identical to a fault-free run. Disarmed
			// until Open finishes — the service comes up healthy and then
			// degrades, rather than failing to start.
			inj = faultfs.Wrap(faultfs.OS{}, uint64(*chaosSeed), faultfs.ChaosRates(*chaosCold))
			inj.Arm(false)
			ccfg.FS = inj
			fmt.Fprintf(os.Stderr, "softrated: CHAOS cold-tier fault injection on (rate %g, seed %d)\n", *chaosCold, *chaosSeed)
		}
		var err error
		cold, err = coldstore.Open(ccfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "softrated:", err)
			return 1
		}
		if inj != nil {
			inj.Arm(true)
		}
		cs := cold.Stats()
		fmt.Fprintf(os.Stderr, "softrated: cold tier at %s (%d links recovered, %d segments, %d torn tails truncated)\n",
			*coldDir, cs.Links, cs.Segments, cs.TornTails)
	}

	srv := server.New(server.Config{Store: linkstore.Config{
		Shards:        *shards,
		DefaultAlgo:   spec.ID,
		TTL:           *ttl,
		ExpectedLinks: *expected,
		Cold:          cold,
		ColdFront:     *coldFront,
	},
		MaxInflight:  *maxInflight,
		WriteTimeout: *writeTO,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "softrated: listening on %s (%d shards, ttl %v, default algo %s)\n", l.Addr(), srv.Store().NumShards(), *ttl, spec.Name)

	if *adminAddr != "" {
		admin := &obs.Admin{
			Status:  func() any { return srv.Status() },
			Metrics: func(w io.Writer) { srv.WritePrometheus(w) },
			Drain:   func() { srv.Drain(*drainGrace) },
		}
		al, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "softrated: admin on http://%s\n", al.Addr())
		go func() {
			if err := (&http.Server{Handler: admin.Mux()}).Serve(al); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "softrated: admin:", err)
			}
		}()
	}

	done := make(chan error, 4)
	go func() { done <- srv.Serve(l) }()

	if *udpAddr != "" {
		uaddr, err := net.ResolveUDPAddr("udp", *udpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		uconn, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "softrated: udp on %s (burst %d)\n", uconn.LocalAddr(), server.BurstSize)
		go func() { done <- srv.ServeUDP(uconn) }()
	}

	// The server owns the region files: unlink them on the way out so a
	// stale region can never be attached to a dead server.
	var ringFiles []string
	defer func() {
		for _, p := range ringFiles {
			os.Remove(p)
		}
	}()
	if *shmPath != "" {
		regions := make([]*shmring.Region, *shmRings)
		for i := range regions {
			p := server.RingPath(*shmPath, i)
			g, err := shmring.Create(p, *shmBytes)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer g.Close()
			regions[i] = g
			ringFiles = append(ringFiles, p)
		}
		fmt.Fprintf(os.Stderr, "softrated: shm rings at %s (%d rings, %d bytes each)\n", *shmPath, *shmRings, *shmBytes)
		go func() { done <- srv.ServeSHM(regions) }()
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		tick = ticker.C
		defer ticker.Stop()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	for {
		select {
		case <-tick:
			printStats(srv.Stats())
		case <-sig:
			// Same path as /drainz: answer everything already accepted,
			// then come down clean. A second signal during the grace
			// window is not special-cased — Drain force-closes stragglers
			// at the deadline anyway.
			fmt.Fprintf(os.Stderr, "softrated: draining (grace %v)\n", *drainGrace)
			srv.Drain(*drainGrace)
			<-done // Drain already waited out every serve loop; collect one exit
			shutdownCold(srv, cold)
			finalSnapshot(srv)
			return 0
		case err := <-done:
			// A serve loop returns nil when a drain (via /drainz) wound it
			// down, and an error when it failed. Either way bring the
			// remaining transports down — Close waits for their loops, so
			// no ring is unmapped under one.
			srv.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			shutdownCold(srv, cold)
			finalSnapshot(srv)
			return 0
		}
	}
}

// shutdownCold spills every remaining hot and RAM-archived link into the
// cold tier and closes it, so the next -cold-dir start recovers the exact
// pre-shutdown state of every link (the drain path has already quiesced
// all traffic by the time this runs).
func shutdownCold(srv *server.Server, cold *coldstore.Store) {
	if cold == nil {
		return
	}
	n, err := srv.Store().SpillAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "softrated: cold spill:", err)
	}
	cs := cold.Stats()
	fmt.Fprintf(os.Stderr, "softrated: cold tier spilled %d links at shutdown (%d links, %d segments, %d MiB on disk)\n",
		n, cs.Links, cs.Segments, cs.DiskBytes>>20)
	if err := cold.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "softrated: cold close:", err)
	}
}

// finalSnapshot logs the one-line counters plus the full ops-plane
// snapshot as JSON, so a drained process leaves its complete final state
// in the log.
func finalSnapshot(srv *server.Server) {
	printStats(srv.Stats())
	st := srv.Status()
	// Per-transport breakdown: which transport carried the traffic, and
	// how well the burst loop amortized on each (requests per burst).
	fmt.Fprintf(os.Stderr,
		"softrated: transports | tcp reqs=%d bursts=%d conns=%d | udp rx=%d tx=%d bursts=%d drops=%d | shm rx=%d tx=%d bursts=%d drops=%d rings=%d\n",
		st.Transport.Requests, st.Transport.Bursts, st.Transport.ConnsAccepted,
		st.UDP.DatagramsRx, st.UDP.DatagramsTx, st.UDP.Bursts, st.UDP.Drops,
		st.SHM.DatagramsRx, st.SHM.DatagramsTx, st.SHM.Bursts, st.SHM.Drops, st.SHM.RingsAttached)
	blob, err := json.Marshal(st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "softrated: final snapshot:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "softrated: final status %s\n", blob)
}

func printStats(st server.Stats) {
	fmt.Fprintf(os.Stderr,
		"softrated: %d frames in %d batches | kinds ber=%d collision=%d silent=%d postamble=%d | links live=%d archived=%d evictions=%d creates=%d restores=%d\n",
		st.Frames, st.Batches,
		st.Kinds[0], st.Kinds[1], st.Kinds[2], st.Kinds[3],
		st.Store.Live, st.Store.Archived, st.Store.Evictions, st.Store.Creates, st.Store.Restores)
}
