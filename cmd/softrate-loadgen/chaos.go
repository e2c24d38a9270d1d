package main

// Chaos-harness pieces of the loadgen: the arrival-driven -verify mirror
// for the UDP transport (exactness even while the server sheds), and the
// deliberately stalled TCP clients that exercise the server's
// slow-client eviction.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"encoding/binary"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/server"
)

// maxTrackedFlights bounds the verifier's memory when the server sheds
// heavily: entries older than this many submissions are forgotten (a
// response arriving later than that is effectively impossible on
// loopback).
const maxTrackedFlights = 4096

// udpFlight is one submitted-but-unproven batch: the ops as sent and the
// links they came from, retained until a response proves the server
// applied them.
type udpFlight struct {
	ops   []linkstore.Op
	links []*link
}

// udpVerifier keeps the -verify mirror for the datagram transport. The
// mirror advances at response ARRIVAL (the client's OnResponse hook),
// not at submit time: a response existing proves the server applied that
// batch, and the hook fires before the -udp-drop shim, so an
// injected-drop response still advances the mirror (the server really
// did apply it) while a server-side shed — which produces no response
// because the ops were never decoded, let alone applied — never does.
// Per-link ordering is safe because each link lives in exactly one
// window cohort, and a cohort never has two batches in flight at once.
//
// The verifier is driven entirely from the owning client goroutine
// (Submit and Wait are single-goroutine), so it needs no locking.
type udpVerifier struct {
	inflight map[uint32]*udpFlight
	order    []uint32 // submission order, for pruning
	mismatch string
}

func newUDPVerifier() *udpVerifier {
	return &udpVerifier{inflight: make(map[uint32]*udpFlight)}
}

// track records one submitted batch under its datagram seq. The ops and
// links are copied: the driver reuses its slot buffers long before a
// late response can arrive.
func (v *udpVerifier) track(seq uint32, ops []linkstore.Op, links []*link) {
	v.inflight[seq] = &udpFlight{
		ops:   append([]linkstore.Op(nil), ops...),
		links: append([]*link(nil), links...),
	}
	v.order = append(v.order, seq)
	// onResponse deletes answered seqs from inflight only; pop them off the
	// head here, and forget the oldest unanswered one once it is more than
	// maxTrackedFlights submissions old, so order stays about as long as
	// the window instead of growing by one seq per batch.
	for len(v.order) > 0 {
		head := v.order[0]
		if _, ok := v.inflight[head]; ok && len(v.order) <= maxTrackedFlights {
			break
		}
		delete(v.inflight, head)
		v.order = v.order[1:]
	}
}

// onResponse is the client's OnResponse hook: advance the bare checkers
// with the proven-applied ops and compare the server's rates
// byte-for-byte. Duplicates find no entry (the first arrival consumed
// it) and advance nothing.
func (v *udpVerifier) onResponse(seq uint32, rates []byte) {
	f, ok := v.inflight[seq]
	if !ok {
		return
	}
	delete(v.inflight, seq)
	if v.mismatch != "" {
		return
	}
	if len(rates) != len(f.ops) {
		v.mismatch = fmt.Sprintf("udp seq %d: %d rates for a batch of %d", seq, len(rates), len(f.ops))
		return
	}
	for i, l := range f.links {
		var want int
		if l.bareSoft != nil {
			want = l.bareSoft.Apply(f.ops[i].Kind, int(f.ops[i].RateIndex), f.ops[i].BER)
		} else {
			want = l.bare.Apply(ctl.Feedback{
				Kind:      f.ops[i].Kind,
				RateIndex: int(f.ops[i].RateIndex),
				BER:       f.ops[i].BER,
				SNRdB:     float64(f.ops[i].SNRdB),
				Airtime:   float64(f.ops[i].Airtime),
				Delivered: f.ops[i].Delivered,
			})
		}
		if int32(want) != int32(rates[i]) {
			v.mismatch = fmt.Sprintf("algo %d link %d: server decided %d over udp, bare controller %d (op %+v)",
				l.algo, l.id, rates[i], want, f.ops[i])
			return
		}
	}
}

// stallLinkBase namespaces the stalled clients' link IDs far away from
// every replayed population (replay links use registry algo IDs 1..5 in
// the high bits; cold populations additionally set bit 32).
const stallLinkBase = uint64(0x7E) << 40

// runStallConns opens n TCP connections that submit valid batches but
// never read a single response byte — the pathological peer the server's
// -tcp-write-timeout eviction exists for. Each connection keeps writing
// until the server evicts it (reset/EPIPE) or stop closes; the links it
// touches live in a reserved ID namespace, so the -verify populations
// never see its state. Returns a WaitGroup the caller waits on after
// closing stop.
func runStallConns(addr string, n int, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			ops := []linkstore.Op{{LinkID: stallLinkBase | uint64(i+1), Kind: core.KindBER, BER: 1e-5}}
			payload := server.AppendOpsV3(nil, 0, ops)
			frame := make([]byte, 4, 4+len(payload))
			binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
			frame = append(frame, payload...)
			rest := frame
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
				n, err := conn.Write(rest)
				if rest = rest[n:]; len(rest) == 0 {
					rest = frame
				}
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						// Our own send buffer is full: the server has stopped
						// reading because its responses to us are stuck — which
						// is the point. Keep holding the socket open, and resume
						// the frame where the write stopped so the stream stays
						// well-framed.
						continue
					}
					return // evicted by the server's write deadline
				}
			}
		}(i)
	}
	return &wg
}
