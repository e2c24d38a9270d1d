package server

import (
	"encoding/binary"
	"math/bits"
	"net/netip"

	"softrate/internal/linkstore"
	"softrate/internal/obs"
)

// The burst engine is the decode → Decide → respond core every transport
// shares (serve.go drives it): gather up to BurstSize self-contained
// request payloads, route every decoded record into ONE Server.Decide —
// so the whole burst pays the shard-routing and lock cost once — then
// build all the response payloads back-to-back. A malformed payload gets
// no response and contributes no ops, without touching the rest of its
// burst; decisions for the well-formed payloads are byte-identical to
// serving each alone. All buffers are reused, so a warm engine processes
// bursts with zero allocations even with metrics on.

const (
	// MaxDatagram is the largest request payload the datagram transports
	// accept (covers the IPv4 UDP maximum; also the shm message bound).
	MaxDatagram = 64 << 10
	// BurstSize is the most payloads one burst gathers before deciding.
	BurstSize = 32
	// burstBucketCount sizes the burst-size histogram: power-of-two
	// buckets <=1, <=2, <=4, <=8, <=16, <=32.
	burstBucketCount = 6
)

// counters holds one transport's counters. Recording is one atomic per
// payload or per burst — never per record.
type counters struct {
	rx     obs.Counter // request payloads received (well-formed or not)
	reqs   obs.Counter // well-formed request payloads
	tx     obs.Counter // responses written
	bursts obs.Counter // bursts that served >= 1 payload
	drops  obs.Counter // malformed payloads (no response; TCP also drops the connection)
	txErrs obs.Counter // responses the transport failed to write
	shed   obs.Counter // payloads shed unserved at a saturated gate (lossy only)

	burstBuckets [burstBucketCount]obs.Counter // burst sizes, power-of-two

	ringsAttached obs.Gauge   // shm only: rings with a live client
	accepted      obs.Counter // TCP only: connections accepted
	active        obs.Gauge   // TCP only: connections open
	slowEvicted   obs.Counter // TCP only: connections evicted on the write deadline
}

// burstBucket maps a burst size in [1, BurstSize] to its histogram slot.
func burstBucket(n int) int {
	b := bits.Len(uint(n - 1)) // 1→0, 2→1, 3-4→2, 5-8→3, 9-16→4, 17-32→5
	if b >= burstBucketCount {
		b = burstBucketCount - 1
	}
	return b
}

// dgram is one request payload of a burst.
type dgram struct {
	reqID uint32
	ok    bool // decoded cleanly; gets a response
	// Op range in the engine's burst-wide ops slice.
	opStart, opEnd int32
	// Response span in the engine's burst-wide response buffer.
	respStart, respEnd int32
	// Transport tags: the UDP transport stores the peer address, the shm
	// transport the ring index. The engine itself never reads either.
	addr netip.AddrPort
	ring int
}

// burstEngine accumulates one burst. Not safe for concurrent use; each
// serve loop owns one.
type burstEngine struct {
	s  *Server
	st *counters
	// lossy is the transport's loss policy at a saturated admission gate:
	// a lossy transport sheds the whole burst, a lossless one blocks in
	// Decide.
	lossy    bool
	shedding bool // this burst is being shed
	n        int
	dg       [BurstSize]dgram

	ops  []linkstore.Op
	out  []int32
	resp []byte
}

func newBurstEngine(s *Server, st *counters, lossy bool) *burstEngine {
	return &burstEngine{s: s, st: st, lossy: lossy}
}

// reset starts a new burst.
func (e *burstEngine) reset() {
	e.n = 0
	e.shedding = false
	e.ops = e.ops[:0]
}

// add decodes one request payload into the burst and returns its slot (so
// the transport can tag it with an address or ring index). A payload that
// fails to decode is counted in drops and marked not-ok: it gets no
// response and contributes no ops, and the rest of the burst is
// unaffected. The payload bytes are fully consumed here — the caller may
// reuse or unmap them as soon as add returns.
//
// Overload shedding is decided at a burst's first payload, before it is
// decoded: with the admission gate saturated a lossy transport drops the
// whole burst — no decode, no Decide, no responses. Under the loss
// contract that is indistinguishable from the datagrams being lost in
// flight (clients time out and keep their rates; crucially, the ops are
// NOT applied, so answered decisions elsewhere stay byte-identical), and
// it keeps a datagram flood from queueing unboundedly behind the lossless
// transports at the gate.
func (e *burstEngine) add(payload []byte) *dgram {
	if e.n == 0 {
		e.shedding = e.lossy && e.s.gateSaturated()
	}
	d := &e.dg[e.n]
	e.n++
	start := int32(len(e.ops))
	*d = dgram{opStart: start}
	if e.shedding {
		e.st.shed.Inc()
		return d
	}
	e.st.rx.Inc()
	ops, reqID, err := appendDecodeRequest(payload, e.ops)
	e.ops = ops // keeps grown capacity even when the decode failed midway
	if err != nil {
		e.st.drops.Inc()
		return d
	}
	e.st.reqs.Inc()
	d.reqID, d.ok = reqID, true
	d.opEnd = int32(len(e.ops))
	return d
}

// finish decides the whole burst in one Decide and builds every response
// payload. After finish, response(d) returns each ok payload's response
// bytes (valid until the next reset).
func (e *burstEngine) finish() {
	e.resp = e.resp[:0]
	if e.n == 0 || e.shedding {
		return
	}
	e.st.bursts.Inc()
	e.st.burstBuckets[burstBucket(e.n)].Inc()
	total := len(e.ops)
	if cap(e.out) < total {
		e.out = make([]int32, total)
	}
	out := e.out[:total]
	if total > 0 {
		e.s.Decide(e.ops, out)
	}
	for i := 0; i < e.n; i++ {
		d := &e.dg[i]
		if !d.ok {
			continue
		}
		d.respStart = int32(len(e.resp))
		e.resp = binary.LittleEndian.AppendUint32(e.resp, d.reqID)
		e.resp = binary.LittleEndian.AppendUint32(e.resp, uint32(d.opEnd-d.opStart))
		for _, ri := range out[d.opStart:d.opEnd] {
			e.resp = append(e.resp, uint8(ri))
		}
		d.respEnd = int32(len(e.resp))
	}
}

// dgrams returns the burst's slots (valid until the next reset).
func (e *burstEngine) dgrams() []dgram { return e.dg[:e.n] }

// response returns d's encoded response (valid until the next reset).
func (e *burstEngine) response(d *dgram) []byte { return e.resp[d.respStart:d.respEnd] }
