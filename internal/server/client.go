package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"softrate/internal/linkstore"
	"softrate/internal/obs"
)

// One client core. Client (TCP, shm rings) and UDPClient are thin faces
// over clientCore, which owns the window of in-flight requests, argument
// validation, request encoding and response matching; a carrier only
// moves payloads. What differs between the faces is the loss policy:
//
//   - lossless (TCP, shm): responses must arrive complete and in
//     submission order. Anything else means the stream position, or the
//     shared state, is unknowable — so the first transport or protocol
//     error poisons the client: that call fails with the root cause and
//     every later call fails fast with the same error, instead of
//     silently reading garbage. Dial again to recover.
//   - lossy (UDP): every datagram stands alone, so nothing can desync. A
//     request whose response has not arrived by its timeout is a lost
//     decision (the caller keeps its current rate), late, duplicate and
//     malformed responses are counted and discarded, and the client stays
//     usable throughout. Only socket-level failures surface as errors.
//
// Argument-validation errors (oversized batch, unencodable rate index)
// are detected before any byte moves and never poison.

// carrier moves encoded payloads between a client core and a server.
type carrier interface {
	// send hands one request payload to the transport (it may buffer).
	send(payload []byte) error
	// recv returns the next response payload, valid until the next recv.
	// Lossy carriers give up at the deadline with a timeout net.Error;
	// lossless carriers ignore it and apply their own liveness bound.
	recv(deadline time.Time) ([]byte, error)
	close() error
}

// maxPipelineBytes bounds the response bytes outstanding on a TCP
// connection. The client only reads responses inside Wait, so an
// unbounded Submit burst could fill the server's write buffer and both
// socket buffers with responses until the server blocks writing and
// stops reading — a mutual write-write deadlock. Keeping all in-flight
// responses within the server's own 64 KB write buffer means the server
// can always finish serving everything the client has submitted without
// blocking on the socket. A batch's response is 8 bytes + one byte per
// record.
const maxPipelineBytes = 32 << 10

// clientPoisons counts client poisonings process-wide (a softrated
// process only sees nonzero here when clients share its process, e.g. a
// test or benchmark serving itself over loopback).
var clientPoisons obs.Counter

// ErrPipelineFull is returned by Submit when the client cannot take
// another batch: either every window slot is occupied — its full depth of
// batches submitted and not yet Waited on (a parked, already-answered
// batch still holds its slot until its Wait collects it) — or, over TCP,
// the new batch's response would push the outstanding response bytes past
// the deadlock-safety budget. Wait on the oldest Pending first.
var ErrPipelineFull = errors.New("server: pipeline full")

// Pending is one in-flight batch. It stays owned by its client: valid
// from the Submit that returned it until its Wait returns, after which
// the slot (and its response buffer) is reused by a later Submit and the
// Pending may not be waited on again.
type Pending struct {
	id       uint32
	n        int
	live     bool      // occupies its slot: submitted, Wait not yet returned
	done     bool      // response received (possibly parked awaiting its Wait)
	deadline time.Time // lossy only: when the decision counts as lost
	rates    []byte
}

// UDPPending is the datagram client's name for Pending.
type UDPPending = Pending

// Response-matching verdicts. A lossless client is poisoned by any of
// them; a lossy one counts errStale as stale and the rest as malformed.
var (
	errShortResponse = errors.New("response shorter than its header or count")
	errOutOfOrder    = errors.New("response out of submission order")
	errStale         = errors.New("response matches no request in flight")
	errWrongCount    = errors.New("response count differs from the batch")
)

// clientCore is the state every client shares. Not safe for concurrent
// use.
type clientCore struct {
	car     carrier
	lossy   bool
	timeout time.Duration // lossy: how long a response may take
	maxMsg  int           // largest request payload the carrier takes
	budget  int           // response-byte bound (0 = none); see maxPipelineBytes

	ring       []Pending // the window; slots are reused, request IDs may wrap freely
	nextID     uint32
	nextRespID uint32 // lossless: the ID the next response must carry
	respBytes  int    // response bytes in flight, against budget
	buf        []byte // encode scratch
	err        error  // sticky poison (lossless only)

	// DropResponse, when non-nil, is consulted for every response after
	// parsing and before matching; returning true discards it as if the
	// network had dropped it. It exists for loss-injection tests — leave
	// nil in production.
	DropResponse func(seq uint32) bool

	stats UDPClientStats
}

// poison records the first transport/protocol error and returns it; all
// later calls fail fast with a wrapped form of it.
func (c *clientCore) poison(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("server: client poisoned by earlier error: %w", err)
		clientPoisons.Inc()
	}
	return err
}

// validate rejects batches the wire cannot carry, before any bytes move.
func validate(ops []linkstore.Op) error {
	if len(ops) > MaxBatch {
		return fmt.Errorf("server: batch of %d exceeds maximum %d", len(ops), MaxBatch)
	}
	for i := range ops {
		// The wire record has one byte for the rate index; reject rather
		// than truncate to a different, valid-looking index.
		if ops[i].RateIndex < 0 || ops[i].RateIndex > 255 {
			return fmt.Errorf("server: op %d: rate index %d not encodable in one byte", i, ops[i].RateIndex)
		}
	}
	return nil
}

// Submit encodes one batch as a request payload and hands it to the
// carrier without waiting for its response. Returns ErrPipelineFull when
// the window (or the response budget) is exhausted — Wait on a Pending to
// free a slot.
func (c *clientCore) Submit(ops []linkstore.Op) (*Pending, error) {
	if c.err != nil {
		return nil, c.err
	}
	var p *Pending
	for i := range c.ring {
		if !c.ring[i].live {
			p = &c.ring[i]
			break
		}
	}
	if p == nil {
		// Every slot's batch was submitted and its Wait has not returned
		// yet (it may be parked, answered but uncollected); reusing one
		// would hand its response to the wrong Pending.
		return nil, ErrPipelineFull
	}
	if c.budget > 0 && c.respBytes > 0 && c.respBytes+8+len(ops) > c.budget {
		// A lone oversized batch is allowed (with nothing else in flight
		// it is effectively stop-and-wait); stacking it is not.
		return nil, ErrPipelineFull
	}
	if err := validate(ops); err != nil {
		return nil, err
	}
	if need := headerSizeV3 + len(ops)*RecordSizeV2; need > c.maxMsg {
		return nil, fmt.Errorf("server: batch of %d records needs %d bytes, above the transport's %d-byte message bound", len(ops), need, c.maxMsg)
	}
	c.buf = AppendOpsV3(c.buf[:0], c.nextID, ops)
	if err := c.car.send(c.buf); err != nil {
		if c.lossy {
			return nil, err
		}
		return nil, c.poison(err)
	}
	p.id, p.n, p.live, p.done = c.nextID, len(ops), true, false
	c.nextID++
	c.respBytes += 8 + len(ops)
	c.stats.Sent++
	if c.lossy {
		p.deadline = time.Now().Add(c.timeout)
	}
	return p, nil
}

// wait blocks until p's response arrives and writes its rate indices to
// out (which must be at least as long as p's batch), then releases p's
// slot for a later Submit. While waiting it absorbs responses for other
// in-flight requests (they park in their slots), so Wait order is free —
// but each Pending may be waited on exactly once. On a lossy client a
// response that has not arrived by p's deadline returns (nil, false,
// nil): the decision is lost, the caller keeps its current rates, and the
// client remains usable.
func (c *clientCore) wait(p *Pending, out []int32) ([]int32, bool, error) {
	if c.err != nil {
		return nil, false, c.err
	}
	if p == nil || !p.live {
		return nil, false, errors.New("server: Wait on a Pending that is not in flight")
	}
	for !p.done {
		b, err := c.car.recv(p.deadline) // a deadline already past times out at once

		if err != nil {
			if !c.lossy {
				return nil, false, c.poison(err)
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return c.lose(p)
			}
			return nil, false, err
		}
		if err := c.accept(b); err != nil {
			if !c.lossy {
				return nil, false, c.poison(fmt.Errorf("server: %w (%d bytes, request %d expected)", err, len(b), c.nextRespID))
			}
			if err == errStale {
				c.stats.Stale++
			} else {
				c.stats.Malformed++
			}
		}
	}
	for i, b := range p.rates {
		out[i] = int32(b)
	}
	p.live = false // slot free for reuse from here on
	return out[:p.n], true, nil
}

// lose gives up on p: its decision is lost and its slot freed.
func (c *clientCore) lose(p *Pending) ([]int32, bool, error) {
	p.live = false
	c.respBytes -= 8 + p.n
	c.stats.Timeouts++
	return nil, false, nil
}

// accept parses one response payload and parks it in its request's slot.
func (c *clientCore) accept(b []byte) error {
	if len(b) < 8 {
		return errShortResponse
	}
	id := binary.LittleEndian.Uint32(b[0:4])
	count := binary.LittleEndian.Uint32(b[4:8])
	if uint64(len(b)-8) != uint64(count) {
		return errShortResponse
	}
	if c.DropResponse != nil && c.DropResponse(id) {
		c.stats.Injected++
		return nil
	}
	if !c.lossy && id != c.nextRespID {
		return errOutOfOrder
	}
	for i := range c.ring {
		q := &c.ring[i]
		if !q.live || q.done || q.id != id {
			continue
		}
		if int(count) != q.n {
			return errWrongCount
		}
		q.rates = append(q.rates[:0], b[8:]...)
		q.done = true
		c.nextRespID++
		c.respBytes -= 8 + q.n
		c.stats.Answered++
		return nil
	}
	return errStale
}

// Close releases the carrier.
func (c *clientCore) Close() error { return c.car.close() }

// Client is a lossless client for the decision service, over TCP
// (DialPipelined) or a shared-memory ring (DialSHM). It is not safe for
// concurrent use; open one per sending goroutine. See the package comment
// above for the poison contract.
type Client struct{ core clientCore }

// SHMClient is the shared-memory client: the same Client over a ring.
type SHMClient = Client

// Wait blocks until p's response arrives, writes its rate indices to out
// (at least p's batch size long) and frees p's slot. Responses arrive in
// submission order; waiting on a newer Pending parks the older ones'
// responses in their slots, so Wait order is free — but each Pending may
// be waited on exactly once.
func (c *Client) Wait(p *Pending, out []int32) ([]int32, error) {
	res, _, err := c.core.wait(p, out)
	return res, err
}

// Submit sends one batch without waiting for its response and returns its
// Pending token; ErrPipelineFull means the window (or the TCP response
// budget) is exhausted.
func (c *Client) Submit(ops []linkstore.Op) (*Pending, error) { return c.core.Submit(ops) }

// Close closes the connection, or detaches from the ring.
func (c *Client) Close() error { return c.core.Close() }

// Decide is Submit immediately followed by its Wait; it may interleave
// with other in-flight batches.
func (c *Client) Decide(ops []linkstore.Op, out []int32) ([]int32, error) {
	p, err := c.Submit(ops)
	if err != nil {
		return nil, err
	}
	return c.Wait(p, out)
}
