package main

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/server"
	"softrate/internal/server/shmring"
	"softrate/internal/trace"
)

const replayLinks = 256

// recConn wraps a carrier and records every wait's verdict and batch.
type recConn struct {
	conn
	waits []waitRec
}

type waitRec struct {
	answered bool
	links    []*link
}

func (r *recConn) wait(s *slot) (bool, error) {
	answered, err := r.conn.wait(s)
	r.waits = append(r.waits, waitRec{answered, append([]*link(nil), s.batch...)})
	return answered, err
}

// replayFixture is the trace pool every carrier's links replay, so each
// run sees the same per-link event streams.
type replayFixture struct {
	opt    options
	traces []*trace.LinkTrace
	mix    trace.Mix
}

func newReplayFixture(t *testing.T) *replayFixture {
	opt := options{mix: "mobile", seed: 1, batch: 32, udpTimeout: 100 * time.Millisecond}
	mix, err := mixFor(opt.mix)
	if err != nil {
		t.Fatal(err)
	}
	return &replayFixture{opt: opt, traces: makeTraces(opt), mix: mix}
}

// links builds fresh links exactly as run does for one SoftRate client.
func (f *replayFixture) links() []*link {
	ls := make([]*link, replayLinks)
	for i := range ls {
		ls[i] = &link{
			id:   uint64(ctl.AlgoSoftRate)<<40 | uint64(i+1),
			algo: ctl.AlgoSoftRate,
			iter: f.traces[i%len(f.traces)].FramesMix(f.opt.seed+int64(i)*7919, f.mix),
		}
	}
	return ls
}

// driver returns a driver over fresh links and the recording wrapper of c.
func (f *replayFixture) driver(c conn, window int) (*driver, *recConn) {
	rc := &recConn{conn: c}
	return &driver{c: rc, window: window, opt: f.opt, links: f.links()}, rc
}

func newReplayServer(t *testing.T) *server.Server {
	srv := server.New(server.Config{Store: linkstore.Config{Shards: 16}})
	t.Cleanup(srv.Close)
	return srv
}

func dialTCP(t *testing.T, depth int) conn {
	srv := newReplayServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	cli, err := server.DialPipelined(l.Addr().String(), depth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return pipeConn{cli}
}

func dialSHM(t *testing.T, depth int) conn {
	path := server.RingPath(filepath.Join(t.TempDir(), "ring"), 0)
	g, err := shmring.Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	srv := newReplayServer(t) // cleanups run LIFO: the serve loop stops before the region unmaps
	go srv.ServeSHM([]*shmring.Region{g})
	cli, err := server.DialSHM(path, depth, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return pipeConn{cli}
}

func rates(links []*link) []int32 {
	out := make([]int32, len(links))
	for i, l := range links {
		out[i] = l.rate
	}
	return out
}

// TestReplayCarriersAgree is the windowed loop's ordering property: depth
// 1 is stop-and-wait, and a deeper window never reorders a link. Two
// prewarm passes — each link's first event, then its second, drawn at the
// rate the first decided — leave identical per-link rates and decision
// counts in-process, over TCP at window 1 and 4, and over shm at window 4,
// and no lossless carrier ever reports a batch unanswered.
func TestReplayCarriersAgree(t *testing.T) {
	f := newReplayFixture(t)
	srv := newReplayServer(t)
	carriers := []struct {
		name   string
		c      conn
		window int
	}{
		{"inproc", inprocConn{srv}, 1},
		{"tcp/1", dialTCP(t, 1), 1},
		{"tcp/4", dialTCP(t, 4), 4},
		{"shm/4", dialSHM(t, 4), 4},
	}
	var want [2][]int32
	for ci, cr := range carriers {
		dr, rc := f.driver(cr.c, cr.window)
		for pass := range want {
			if !dr.replay(nil) {
				t.Fatalf("%s pass %d: %v %s", cr.name, pass, dr.res.err, dr.res.mismatch)
			}
			if n := uint64(pass+1) * replayLinks; dr.res.decisions != n {
				t.Fatalf("%s pass %d: %d decisions, want %d (each link once per pass)", cr.name, pass, dr.res.decisions, n)
			}
			got := rates(dr.links)
			if ci == 0 {
				want[pass] = got
				continue
			}
			for i := range got {
				if got[i] != want[pass][i] {
					t.Fatalf("%s pass %d link %d: rate %d, in-process %d", cr.name, pass, i, got[i], want[pass][i])
				}
			}
		}
		for _, w := range rc.waits {
			if !w.answered {
				t.Fatalf("%s: a lossless carrier reported a batch unanswered", cr.name)
			}
		}
	}
}

// TestReplayUDPLostDecisionsKeepRates drops every other response with the
// client's shim: those batches come back unanswered, their links keep the
// rate they had, only answered ops count as decisions, and answered links
// land exactly where the in-process run puts them.
func TestReplayUDPLostDecisionsKeepRates(t *testing.T) {
	f := newReplayFixture(t)
	ref, _ := f.driver(inprocConn{newReplayServer(t)}, 1)
	if !ref.replay(nil) {
		t.Fatalf("in-process: %v", ref.res.err)
	}
	want := rates(ref.links)

	srv := newReplayServer(t)
	uconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(uconn)
	cli, err := server.DialUDP(uconn.LocalAddr().String(), 4, f.opt.udpTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cli.DropResponse = func(seq uint32) bool { return seq%2 == 1 }
	dr, rc := f.driver(udpConn{cli: cli}, 4)
	before := rates(dr.links)
	if !dr.replay(nil) {
		t.Fatalf("udp: %v", dr.res.err)
	}

	index := make(map[*link]int, replayLinks)
	for i, l := range dr.links {
		index[l] = i
	}
	if len(rc.waits) < 2 {
		t.Fatalf("%d batches; the pass needs at least two", len(rc.waits))
	}
	var answeredOps uint64
	kept := 0
	for k, w := range rc.waits {
		// The driver waits in submission order, so wait k is seq k.
		if w.answered != (k%2 == 0) {
			t.Fatalf("batch %d: answered=%v with every odd seq dropped", k, w.answered)
		}
		if w.answered {
			answeredOps += uint64(len(w.links))
		}
		for _, l := range w.links {
			i := index[l]
			switch {
			case !w.answered && l.rate != before[i]:
				t.Fatalf("link %d: lost decision moved its rate %d -> %d", i, before[i], l.rate)
			case !w.answered && want[i] != before[i]:
				kept++ // the answer would have moved it
			case w.answered && l.rate != want[i]:
				t.Fatalf("link %d: answered rate %d, in-process %d", i, l.rate, want[i])
			}
		}
	}
	if kept == 0 {
		t.Fatal("no dropped batch held a link whose answer would have moved it; the check is vacuous")
	}
	if dr.res.decisions != answeredOps {
		t.Fatalf("res.decisions %d, answered ops %d", dr.res.decisions, answeredOps)
	}
}
