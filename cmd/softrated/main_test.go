package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/server"
)

// childEnv marks a re-executed test binary as a softrated process: TestMain
// then serves with the child's arguments instead of running tests, so the
// tests below drive the real command across a process boundary without a
// separate build.
const childEnv = "SOFTRATED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// childCmd is softrated with args, as this test binary re-executed.
func childCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd
}

// child is one running softrated. Its stderr is kept line by line, and its
// startup banners give the listener addresses.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process is reaped

	tcp, udp, admin, shm string
	recovered            int // links the cold-tier banner reports recovered

	mu  sync.Mutex
	log strings.Builder
}

var recoveredRE = regexp.MustCompile(`^softrated: cold tier at .* \((\d+) links recovered`)

// startChild runs softrated with args and returns once every listener they
// ask for has announced itself. The process is killed when the test ends,
// if it is still running.
func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	c := &child{cmd: childCmd(args...), exited: make(chan struct{})}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.cmd.Process.Kill()
		<-c.exited
	})
	want := 1 // the TCP listener
	for _, a := range args {
		if a == "-udp" || a == "-admin" || a == "-shm" {
			want++
		}
	}
	ready := make(chan struct{})
	go c.scan(stderr, want, ready)
	select {
	case <-ready:
	case <-c.exited:
		t.Fatalf("softrated exited before it was ready:\n%s", c.logText())
	case <-time.After(10 * time.Second):
		t.Fatalf("softrated not ready after 10 s:\n%s", c.logText())
	}
	return c
}

// scan keeps the child's stderr, fills the listener fields from the
// banners (closing ready after the want-th), then reaps the process.
func (c *child) scan(r io.Reader, want int, ready chan<- struct{}) {
	banners := []struct {
		prefix string
		dst    *string
	}{
		{"softrated: listening on ", &c.tcp},
		{"softrated: udp on ", &c.udp},
		{"softrated: admin on http://", &c.admin},
		{"softrated: shm rings at ", &c.shm},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20) // the final status line carries every shard's stats
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.log.WriteString(line + "\n")
		c.mu.Unlock()
		if m := recoveredRE.FindStringSubmatch(line); m != nil {
			c.recovered, _ = strconv.Atoi(m[1])
		}
		for _, b := range banners {
			if rest, ok := strings.CutPrefix(line, b.prefix); ok {
				*b.dst, _, _ = strings.Cut(rest, " ")
				if want--; want == 0 {
					close(ready)
				}
			}
		}
	}
	io.Copy(io.Discard, r)
	c.cmd.Wait()
	close(c.exited)
}

func (c *child) logText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.String()
}

func (c *child) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := c.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
}

// wait returns the exit code, failing the test if the process is still
// running d later.
func (c *child) wait(t *testing.T, d time.Duration) int {
	t.Helper()
	select {
	case <-c.exited:
		return c.cmd.ProcessState.ExitCode()
	case <-time.After(d):
		t.Fatalf("softrated still running %v later:\n%s", d, c.logText())
		return 0
	}
}

// get fetches an admin endpoint's body.
func (c *child) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + c.admin + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v\n%s", path, resp.StatusCode, err, body)
	}
	return string(body)
}

// metrics scrapes /metrics into sample → value; a labelled sample keeps its
// labels in its name.
func (c *child) metrics(t *testing.T) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, line := range strings.Split(c.get(t, "/metrics"), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		m[name] = v
	}
	return m
}

// await scrapes /metrics until every named series is above zero, and
// fails the test after 20 s or as soon as a client reports an error.
func (c *child) await(t *testing.T, errs <-chan error, names ...string) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		m := c.metrics(t)
		var zero []string
		for _, name := range names {
			if m[name] <= 0 {
				zero = append(zero, fmt.Sprintf("%s %v", name, m[name]))
			}
		}
		if zero == nil {
			return m
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 20 s: %s; want > 0", strings.Join(zero, ", "))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// errMismatch marks a decision that differs from its bare controller's.
var errMismatch = errors.New("decision differs from the bare controller's")

// fleet is a set of links checked against bare controllers. Link i has ID
// base+i and runs specs[i%len(specs)]; its bare controller is fed exactly
// the feedback the server was sent, and its next record carries the rate
// the server last chose (a closed loop). Not safe for concurrent use.
type fleet struct {
	base    uint64
	specs   []ctl.Spec
	rng     *rand.Rand
	bare    []ctl.Controller
	rates   []int32
	checked int // decisions compared
}

func newFleet(base uint64, n int, seed int64, specs ...ctl.Spec) *fleet {
	f := &fleet{base: base, specs: specs, rng: rand.New(rand.NewSource(seed)),
		bare: make([]ctl.Controller, n), rates: make([]int32, n)}
	for i := range f.bare {
		f.bare[i] = specs[i%len(specs)].New()
	}
	return f
}

// ops builds one feedback record for each of links [from, to), with every
// field the §6.1 algorithms read set.
func (f *fleet) ops(from, to int) []linkstore.Op {
	ops := make([]linkstore.Op, 0, to-from)
	for i := from; i < to; i++ {
		ops = append(ops, linkstore.Op{
			LinkID:    f.base + uint64(i),
			Algo:      f.specs[i%len(f.specs)].ID,
			Kind:      core.FeedbackKind(f.rng.Intn(int(core.NumKinds))),
			RateIndex: f.rates[i],
			BER:       math.Pow(10, -2-5*f.rng.Float64()),
			SNRdB:     f.rng.Float32()*30 - 2,
			Airtime:   f.rng.Float32() * 1e-3,
			Delivered: f.rng.Intn(3) > 0,
		})
	}
	return ops
}

// check advances the bare controllers through ops and compares their
// decisions with the server's.
func (f *fleet) check(ops []linkstore.Op, got []int32) error {
	for k, op := range ops {
		i := op.LinkID - f.base
		want := f.bare[i].Apply(ctl.Feedback{
			Kind:      op.Kind,
			RateIndex: int(op.RateIndex),
			BER:       op.BER,
			SNRdB:     float64(op.SNRdB),
			Airtime:   float64(op.Airtime),
			Delivered: op.Delivered,
		})
		if int32(want) != got[k] {
			return fmt.Errorf("%w: link %d (%s) decided %d, bare %d (op %+v)",
				errMismatch, op.LinkID, f.specs[i%uint64(len(f.specs))].Name, got[k], want, op)
		}
		f.rates[i] = got[k]
		f.checked++
	}
	return nil
}

// lapBatch is the records per request, window the TCP requests in flight.
const lapBatch, window = 256, 4

// lapTCP sends every link one record, lapBatch links a request, and checks
// every answer. A link is in one request per lap, so the window never
// reorders its feedback.
func (f *fleet) lapTCP(cli *server.Client) error {
	type flight struct {
		ops []linkstore.Op
		p   *server.Pending
	}
	var inflight []flight
	out := make([]int32, lapBatch)
	settle := func() error {
		fl := inflight[0]
		inflight = inflight[1:]
		got, err := cli.Wait(fl.p, out)
		if err != nil {
			return err
		}
		return f.check(fl.ops, got)
	}
	for from := 0; from < len(f.bare); from += lapBatch {
		if len(inflight) == window {
			if err := settle(); err != nil {
				return err
			}
		}
		ops := f.ops(from, min(from+lapBatch, len(f.bare)))
		p, err := cli.Submit(ops)
		if err != nil {
			return err
		}
		inflight = append(inflight, flight{ops, p})
	}
	for len(inflight) > 0 {
		if err := settle(); err != nil {
			return err
		}
	}
	return nil
}

// lapUDP is lapTCP over datagrams, one request at a time: on loopback,
// with no admission gate to shed at, an unanswered request is a failure.
func (f *fleet) lapUDP(cli *server.UDPClient) error {
	out := make([]int32, lapBatch)
	for from := 0; from < len(f.bare); from += lapBatch {
		ops := f.ops(from, min(from+lapBatch, len(f.bare)))
		got, ok, err := cli.Decide(ops, out)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("request for links %d.. unanswered on loopback", ops[0].LinkID)
		}
		if err := f.check(ops, got); err != nil {
			return err
		}
	}
	return nil
}

// pacedLaps runs lap until stop is closed, starting a lap at most every
// pace: with pace past the TTL, every touch finds its link evicted.
func pacedLaps(pace time.Duration, lap func() error, stop <-chan struct{}) error {
	for {
		start := time.Now()
		if err := lap(); err != nil {
			return err
		}
		select {
		case <-stop:
			return nil
		case <-time.After(pace - time.Since(start)):
		}
	}
}

func dialTCP(t *testing.T, addr string) *server.Client {
	t.Helper()
	cli, err := server.DialPipelined(addr, window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func dialUDP(t *testing.T, addr string, timeout time.Duration) *server.UDPClient {
	t.Helper()
	cli, err := server.DialUDP(addr, 1, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// stall is a TCP peer that submits requests and never reads an answer,
// until the server evicts it or stop closes. Its requests carry no records,
// so the server spends little work per answer byte, and its receive buffer
// is small: the server's writes block soon after it starts.
func stall(addr string, stop <-chan struct{}) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		return err
	}
	payload := server.AppendOpsV3(nil, 0, nil)
	var frame []byte // a thousand requests a write
	for range 1000 {
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
		frame = append(frame, payload...)
	}
	rest := frame
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := conn.Write(rest)
		if rest = rest[n:]; len(rest) == 0 {
			rest = frame
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// Our send buffer is full because the server stopped reading
			// us, which is the point. Resume mid-frame so the stream stays
			// well framed and never reading is all that is wrong with us.
			continue
		}
		if err != nil {
			return nil // evicted
		}
	}
}

// TestCrashRestartUnderFaults kills softrated mid-churn while its cold tier
// is failing writes, restarts it on the same directory, and restarts it
// once more after a clean shutdown:
//
//   - under faults, a 2-deep admission gate, 1 % of UDP answers dropped
//     and two clients that never read, every TCP answer matches a bare
//     controller, spills fail, and the stalled clients are evicted;
//   - after kill -9 the restart recovers links and serves fresh ones
//     exactly;
//   - after SIGTERM the next start resumes every link exactly where the
//     shutdown left it, which holds only if the drain spilled them all.
func TestCrashRestartUnderFaults(t *testing.T) {
	const ttl = 100 * time.Millisecond
	dir := t.TempDir()
	args := func(ttl time.Duration, extra ...string) []string {
		return append([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-ttl", ttl.String(),
			"-cold-dir", dir, "-cold-front", "1024"}, extra...)
	}

	c1 := startChild(t, args(ttl, "-chaos-cold", "0.05", "-max-inflight", "2",
		"-tcp-write-timeout", "300ms", "-udp", "127.0.0.1:0")...)
	var killed atomic.Bool
	stop := make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop) })
	t.Cleanup(halt) // a failed test leaves no client running
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	client := func(drive func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Once the server is killed, broken connections are expected;
			// a wrong answer never is.
			if err := drive(); err != nil && (!killed.Load() || errors.Is(err, errMismatch)) {
				errs <- err
			}
		}()
	}
	// 4096 links of every algorithm, each lap paced past the TTL, so every
	// touch restores a link the last lap evicted and spilled.
	churn := newFleet(1<<40, 4096, 1, ctl.Specs()...)
	tcli := dialTCP(t, c1.tcp)
	client(func() error { return pacedLaps(2*ttl, func() error { return churn.lapTCP(tcli) }, stop) })
	// Load only: shed and dropped answers leave nothing to check.
	ucli := dialUDP(t, c1.udp, 50*time.Millisecond)
	drop := rand.New(rand.NewSource(2))
	ucli.DropResponse = func(uint32) bool { return drop.Float64() < 0.01 }
	noise := newFleet(2<<40, 512, 2, ctl.Specs()...)
	client(func() error {
		out := make([]int32, 64)
		return pacedLaps(0, func() error {
			_, _, err := ucli.Decide(noise.ops(0, 64), out)
			return err
		}, stop)
	})
	for range 2 {
		client(func() error { return stall(c1.tcp, stop) })
	}

	m := c1.await(t, errs, "softrated_cold_spill_errors_total", "softrated_slow_clients_evicted_total")
	for _, name := range []string{"softrated_cold_degraded", "softrated_cold_breaker_trips_total",
		"softrated_cold_spill_retries_total", "softrated_udp_shed_total"} {
		if _, ok := m[name]; !ok {
			t.Errorf("/metrics has no %s", name)
		}
	}
	if v := m["softrated_max_inflight"]; v != 2 {
		t.Errorf("softrated_max_inflight %v, want 2", v)
	}
	killed.Store(true)
	c1.cmd.Process.Kill()
	c1.wait(t, 5*time.Second)
	halt()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if churn.checked == 0 || ucli.Stats().Answered == 0 {
		t.Fatalf("%d TCP decisions checked, %d UDP requests answered before the kill; want both > 0",
			churn.checked, ucli.Stats().Answered)
	}

	// From here on no link idles out: every fresh link is still in RAM at
	// the SIGTERM, so only the drain's spill can carry it to the next start.
	c2 := startChild(t, args(time.Minute)...)
	if c2.recovered == 0 {
		t.Fatalf("the restart recovered no links:\n%s", c2.logText())
	}
	fresh := newFleet(4<<40, 2048, 3, ctl.Specs()...)
	cli2 := dialTCP(t, c2.tcp)
	for lap := 0; lap < 3; lap++ {
		if err := fresh.lapTCP(cli2); err != nil {
			t.Fatalf("after kill -9: %v", err)
		}
	}
	if v := c2.metrics(t)["softrated_cold_links"]; v <= 0 {
		t.Fatalf("softrated_cold_links %v after the restart, want > 0", v)
	}
	cli2.Close() // an open idle connection would hold the drain for its whole grace
	c2.signal(t, syscall.SIGTERM)
	if code := c2.wait(t, 10*time.Second); code != 0 {
		t.Fatalf("SIGTERM: exit %d, want 0:\n%s", code, c2.logText())
	}
	spilled := regexp.MustCompile(`cold tier spilled (\d+) links`).FindStringSubmatch(c2.logText())
	if spilled == nil || spilled[1] == "0" {
		t.Fatalf("the drain spilled no links:\n%s", c2.logText())
	}

	c3 := startChild(t, args(time.Minute)...)
	cli3 := dialTCP(t, c3.tcp)
	if err := fresh.lapTCP(cli3); err != nil {
		t.Fatalf("after a clean shutdown: %v", err)
	}
	cli3.Close()
	c3.signal(t, syscall.SIGTERM)
	if code := c3.wait(t, 10*time.Second); code != 0 {
		t.Fatalf("SIGTERM: exit %d, want 0:\n%s", code, c3.logText())
	}
}

// TestAdminAndDrain runs softrated on all three transports with the ops
// plane, checks /healthz, /statusz and /metrics while verified TCP and UDP
// clients drive it, and then drains it through /drainz.
func TestAdminAndDrain(t *testing.T) {
	ring := filepath.Join(t.TempDir(), "ring")
	c := startChild(t, "-addr", "127.0.0.1:0", "-udp", "127.0.0.1:0", "-shm", ring,
		"-admin", "127.0.0.1:0", "-ttl", "2s")
	softrate, _ := ctl.ByName("softrate")
	rraa, _ := ctl.ByName("rraa")
	tf := newFleet(1<<40, 2048, 1, softrate)
	uf := newFleet(2<<40, 1024, 2, rraa)
	tcli := dialTCP(t, c.tcp)
	ucli := dialUDP(t, c.udp, time.Second)

	stop := make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop) })
	t.Cleanup(halt)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, lap := range []func() error{
		func() error { return tf.lapTCP(tcli) },
		func() error { return uf.lapUDP(ucli) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pacedLaps(0, lap, stop); err != nil {
				errs <- err
			}
		}()
	}

	// requests_total counts a request when it is read, before its batch
	// is decided: wait for each fleet's algorithm to have decided one too,
	// or /statusz below may not list it yet.
	m := c.await(t, errs, "softrated_batches_total", "softrated_requests_total",
		"softrated_udp_datagrams_rx_total", "softrated_udp_bursts_total",
		`softrated_batches_by_algo_total{algo="softrate"}`, `softrated_batches_by_algo_total{algo="rraa"}`)
	if v, ok := m["softrated_framing_errors_total"]; !ok || v != 0 {
		t.Errorf("softrated_framing_errors_total %v (present %v), want 0", v, ok)
	}
	if _, ok := m["softrated_shm_datagrams_rx_total"]; !ok {
		t.Error("/metrics has no softrated_shm_datagrams_rx_total")
	}
	if h := c.get(t, "/healthz"); strings.TrimSpace(h) != "ok" {
		t.Errorf("/healthz %q, want ok", h)
	}
	var st struct {
		Algos     []struct{ Algo string }
		Transport map[string]any
		UDP, SHM  map[string]any
	}
	if err := json.Unmarshal([]byte(c.get(t, "/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	algos := map[string]bool{}
	for _, a := range st.Algos {
		algos[a.Algo] = true
	}
	if _, ok := st.Transport["conns_active"]; !algos["softrate"] || !algos["rraa"] || !ok || st.UDP == nil || st.SHM == nil {
		t.Errorf("/statusz: algos %v, transport %v, udp %v, shm %v; want softrate and rraa, conns_active, both sections",
			algos, st.Transport, st.UDP != nil, st.SHM != nil)
	}

	halt()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tf.checked == 0 || uf.checked == 0 {
		t.Fatalf("checked %d TCP and %d UDP decisions, want both > 0", tf.checked, uf.checked)
	}

	tcli.Close() // an open idle connection would hold the drain for its whole grace
	resp, err := http.Post("http://"+c.admin+"/drainz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("/drainz answered %q", body)
	}
	if code := c.wait(t, 10*time.Second); code != 0 {
		t.Fatalf("drained softrated exited %d, want 0:\n%s", code, c.logText())
	}
	if !strings.Contains(c.logText(), "softrated: transports | tcp reqs") {
		t.Errorf("no transport summary in the log:\n%s", c.logText())
	}
	if _, err := os.Stat(ring); !os.IsNotExist(err) {
		t.Errorf("the shm ring outlived the server (stat: %v)", err)
	}
}

// TestFailedStartRemovesRings: when a later shm ring cannot be created, the
// start fails and the rings already created are unlinked.
func TestFailedStartRemovesRings(t *testing.T) {
	ring := filepath.Join(t.TempDir(), "R")
	if err := os.Mkdir(ring+".1", 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := childCmd("-addr", "127.0.0.1:0", "-shm", ring, "-shm-rings", "2").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("softrated with an uncreatable second ring: %v, want exit 1\n%s", err, out)
	}
	if _, err := os.Stat(ring); !os.IsNotExist(err) {
		t.Fatalf("ring %s outlived the failed start (stat: %v)", ring, err)
	}
}

// TestRejectsBadCounts: a count, ring size, fraction or duration out of
// its range — a shard or ring count below one, a ring size that is not 0
// or a power of two of at least shmring.MinCapacity, a negative front,
// pre-size or in-flight bound, a compaction ratio or chaos rate outside
// [0,1] (NaN included), a negative TTL, stats interval, drain grace or
// write timeout — exits 2 before the cold tier opens or any listener or
// ring file exists.
func TestRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-shards", "-5"},
		{"-shm-rings", "0"},
		{"-shm-rings", "-1"},
		{"-shm-ring-bytes", "1000"},
		{"-shm-ring-bytes", "-65536"},
		{"-shm-ring-bytes", "98304"},
		{"-cold-front", "-1"},
		{"-expected-links", "-1"},
		{"-max-inflight", "-1"},
		{"-compact-ratio", "1.5"},
		{"-compact-ratio", "-1"},
		{"-compact-ratio", "NaN"},
		{"-chaos-cold", "2"},
		{"-chaos-cold", "-1"},
		{"-chaos-cold", "NaN"},
		{"-ttl", "-1s"},
		{"-stats", "-1s"},
		{"-drain-grace", "-1s"},
		{"-tcp-write-timeout", "-1s"},
	} {
		dir := t.TempDir()
		ring, cold := filepath.Join(dir, "R"), filepath.Join(dir, "cold")
		cmd := childCmd(append([]string{"-addr", "127.0.0.1:0", "-shm", ring, "-cold-dir", cold}, args...)...)
		var out strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// A softrated that accepts the counts serves until killed.
		kill := time.AfterFunc(5*time.Second, func() { cmd.Process.Kill() })
		err := cmd.Wait()
		kill.Stop()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("softrated %q: %v, want exit 2\n%s", args, err, out.String())
		}
		if strings.Contains(out.String(), "listening on") {
			t.Errorf("softrated %q opened a listener:\n%s", args, out.String())
		}
		for _, p := range []string{ring, cold} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("softrated %q created %s (stat: %v)", args, p, err)
			}
		}
	}
}

// TestBannerReportsStoreShards: the banner gives the shard count the store
// runs, -shards rounded up to a power of two.
func TestBannerReportsStoreShards(t *testing.T) {
	c := startChild(t, "-addr", "127.0.0.1:0", "-shards", "100")
	if log := c.logText(); !strings.Contains(log, " (128 shards, ") {
		t.Errorf("-shards 100: banner does not report 128 shards:\n%s", log)
	}
}
