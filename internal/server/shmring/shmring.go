// Package shmring is the shared-memory transport substrate for
// co-located softrated clients: a pair of SPSC byte rings (request:
// client→server, response: server→client) living in one mmap-backed
// file both processes map MAP_SHARED. No syscalls on the data path —
// a message moves as one copy into the ring plus one atomic publish of
// the producer's tail — so a co-located client pays neither the socket
// round trip nor the kernel's per-datagram bookkeeping.
//
// Layout (all little-endian, offsets fixed by the header so any
// mapper can validate before touching data):
//
//	[0:8)    magic "SRRING1\x00"
//	[8:16)   per-ring capacity in bytes (power of two)
//	[64]     request-ring head  (consumer: server)   — own cache line
//	[128]    request-ring tail  (producer: client)   — own cache line
//	[192]    response-ring head (consumer: client)   — own cache line
//	[256]    response-ring tail (producer: server)   — own cache line
//	[320]    attach state u32: 0 free, 1 attached, 2 closing
//	[324]    draining u32: server is draining; clients must stop submitting
//	[4096:4096+cap)        request ring data
//	[4096+cap:4096+2cap)   response ring data
//
// Each ring is a free-running-counter SPSC queue of length-prefixed
// messages: [u32 len][payload, padded to 4 bytes]. A message never
// wraps — when the tail is too close to the end, the producer writes a
// wrap marker (len = 0xFFFFFFFF, or nothing if fewer than 4 bytes
// remain, which the 4-byte alignment rules out) and continues at
// offset 0 — so a consumer always sees its payload contiguous and can
// decode it in place, zero-copy. head and tail are monotonic uint64s
// (index = value & (cap-1)); the producer publishes with an atomic
// store of tail after the payload bytes are in place, the consumer
// releases space with an atomic store of head, and Go's atomics give
// the acquire/release ordering both sides need — across goroutines and
// across processes sharing the mapping alike.
//
// Attach discipline: the server creates the file and owns reclaim; a
// client claims the region by a compare-and-swap of the attach state
// (0→1) — which works cross-process because the flag lives in the
// shared mapping — and marks it 2 (closing) on exit. The server
// observes 2, resets both rings, and stores 0 so the slot is reusable.
package shmring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"
)

const (
	magic = "SRRING1\x00"

	// headerBytes reserves the first page for the header and the
	// cache-line-padded cursors.
	headerBytes = 4096

	offMagic    = 0
	offCap      = 8
	offReqHead  = 64
	offReqTail  = 128
	offRespHead = 192
	offRespTail = 256
	offState    = 320
	offDraining = 324

	// wrapMarker in a length slot tells the consumer to continue at
	// offset 0.
	wrapMarker = ^uint32(0)

	// MinCapacity and DefaultCapacity bound a ring's data size. The
	// minimum keeps the wrap arithmetic trivially safe for MaxMessage.
	MinCapacity     = 64 << 10
	DefaultCapacity = 1 << 20
)

// Attach states stored at offState.
const (
	StateFree     = 0
	StateAttached = 1
	StateClosing  = 2
)

// Ring is one direction of a region: an SPSC byte queue over shared
// memory. Exactly one goroutine/process may produce and one may consume.
type Ring struct {
	head *atomic.Uint64 // consumer cursor
	tail *atomic.Uint64 // producer cursor
	data []byte
	mask uint64
}

// MaxMessage bounds one message's payload so a single message can never
// deadlock the ring: Push places a payload of up to this many bytes on an
// empty ring whatever its offset, while a larger one can fail even then
// (it fits neither the tail remainder nor the space before the offset).
func (r *Ring) MaxMessage() int { return len(r.data) / 4 }

// align4 rounds n up to a multiple of 4.
func align4(n int) int { return (n + 3) &^ 3 }

// Push copies payload into the ring and publishes it. Returns false when
// the ring lacks space (try again after the consumer drains). Only the
// producer side may call it.
func (r *Ring) Push(payload []byte) bool {
	need := uint64(4 + align4(len(payload)))
	capacity := uint64(len(r.data))
	tail := r.tail.Load()
	head := r.head.Load()
	free := capacity - (tail - head)
	off := tail & r.mask
	rem := capacity - off
	if rem < need {
		// Marker + restart at 0: the message consumes the tail-end
		// remainder too.
		if free < rem+need {
			return false
		}
		binary.LittleEndian.PutUint32(r.data[off:], wrapMarker)
		tail += rem
		off = 0
	} else if free < need {
		return false
	}
	binary.LittleEndian.PutUint32(r.data[off:], uint32(len(payload)))
	copy(r.data[off+4:], payload)
	r.tail.Store(tail + need) // publish: payload bytes land before the tail moves
	return true
}

// Peek returns the oldest unconsumed message's payload, aliased into the
// ring — valid until Advance. Returns ok=false when the ring is empty.
// Only the consumer side may call it.
func (r *Ring) Peek() (payload []byte, ok bool) {
	capacity := uint64(len(r.data))
	for {
		head := r.head.Load()
		if head == r.tail.Load() {
			return nil, false
		}
		off := head & r.mask
		ln := binary.LittleEndian.Uint32(r.data[off:])
		if ln == wrapMarker {
			r.head.Store(head + (capacity - off))
			continue
		}
		return r.data[off+4 : off+4+uint64(ln)], true
	}
}

// Advance releases the message last returned by Peek, making its space
// available to the producer. Call exactly once per successful Peek,
// after the payload has been fully consumed.
func (r *Ring) Advance() {
	head := r.head.Load()
	off := head & r.mask
	ln := binary.LittleEndian.Uint32(r.data[off:])
	r.head.Store(head + uint64(4+align4(int(ln))))
}

// Region is one mapped ring pair.
type Region struct {
	mem  []byte
	f    *os.File
	req  Ring // client → server
	resp Ring // server → client
}

// Request returns the client→server ring (producer: client; consumer:
// server).
func (g *Region) Request() *Ring { return &g.req }

// Response returns the server→client ring (producer: server; consumer:
// client).
func (g *Region) Response() *Ring { return &g.resp }

func (g *Region) u64(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&g.mem[off]))
}

func (g *Region) u32(off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&g.mem[off]))
}

func (g *Region) initRings() {
	capacity := binary.LittleEndian.Uint64(g.mem[offCap:])
	g.req = Ring{
		head: g.u64(offReqHead), tail: g.u64(offReqTail),
		data: g.mem[headerBytes : headerBytes+capacity],
		mask: capacity - 1,
	}
	g.resp = Ring{
		head: g.u64(offRespHead), tail: g.u64(offRespTail),
		data: g.mem[headerBytes+capacity : headerBytes+2*capacity],
		mask: capacity - 1,
	}
}

// Create builds a fresh region file at path (truncating any previous
// one) with the given per-ring capacity (0 picks DefaultCapacity;
// otherwise it must be a power of two >= MinCapacity) and maps it. The
// creator is the server side.
func Create(path string, capacity int) (*Region, error) {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if capacity < MinCapacity || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("shmring: capacity %d must be a power of two >= %d", capacity, MinCapacity)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	size := headerBytes + 2*capacity
	// Truncate down then up so a reused path starts all-zero.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mapShared(f, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	g := &Region{mem: mem, f: f}
	binary.LittleEndian.PutUint64(mem[offCap:], uint64(capacity))
	copy(mem[offMagic:], magic) // magic last: an Open racing Create sees it only when the header is complete
	g.initRings()
	return g, nil
}

// Open maps an existing region file (the client side).
func Open(path string) (*Region, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < headerBytes {
		f.Close()
		return nil, fmt.Errorf("shmring: %s: too small to hold a header", path)
	}
	mem, err := mapShared(f, int(st.Size()))
	if err != nil {
		f.Close()
		return nil, err
	}
	g := &Region{mem: mem, f: f}
	if string(mem[offMagic:offMagic+8]) != magic {
		g.Close()
		return nil, fmt.Errorf("shmring: %s: bad magic (not a ring region, or still initializing)", path)
	}
	capacity := binary.LittleEndian.Uint64(mem[offCap:])
	if capacity < MinCapacity || capacity&(capacity-1) != 0 || int64(headerBytes+2*capacity) != st.Size() {
		g.Close()
		return nil, fmt.Errorf("shmring: %s: header capacity %d inconsistent with file size %d", path, capacity, st.Size())
	}
	g.initRings()
	return g, nil
}

// Attach claims the region for this client: a cross-process CAS of the
// attach state from free to attached. Returns false when another client
// holds it (or its teardown is still being reclaimed).
func (g *Region) Attach() bool {
	return g.u32(offState).CompareAndSwap(StateFree, StateAttached)
}

// ClientClose marks the region closing. The server reclaims it (resets
// the rings, frees the slot); the client must not touch the rings after
// this.
func (g *Region) ClientClose() {
	g.u32(offState).Store(StateClosing)
}

// State returns the attach state (StateFree/StateAttached/StateClosing).
func (g *Region) State() uint32 { return g.u32(offState).Load() }

// Reclaim resets a closing region to free: both rings are emptied and
// the attach slot reopened. Server side only, and only meaningful when
// State is StateClosing (it refuses otherwise).
func (g *Region) Reclaim() bool {
	if g.u32(offState).Load() != StateClosing {
		return false
	}
	g.u64(offReqHead).Store(0)
	g.u64(offReqTail).Store(0)
	g.u64(offRespHead).Store(0)
	g.u64(offRespTail).Store(0)
	g.u32(offState).Store(StateFree)
	return true
}

// SetDraining raises the draining flag: clients must stop submitting
// (their next Submit/Wait fails with a draining error) while the server
// answers what the request ring already holds.
func (g *Region) SetDraining() { g.u32(offDraining).Store(1) }

// Draining reports the draining flag.
func (g *Region) Draining() bool { return g.u32(offDraining).Load() != 0 }

// ErrClosed is returned by Close on double-close.
var ErrClosed = errors.New("shmring: region already closed")

// Close unmaps the region and closes its file. The file itself is left
// on disk (the creator decides when to unlink it).
func (g *Region) Close() error {
	if g.mem == nil {
		return ErrClosed
	}
	mem := g.mem
	g.mem = nil
	g.req = Ring{}
	g.resp = Ring{}
	err := unmap(mem)
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	return err
}
