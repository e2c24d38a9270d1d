// Package sim is a deterministic discrete-event simulation engine — the
// substrate standing in for ns-3 in the trace-driven evaluation (§4.1).
// Events fire in timestamp order with FIFO tie-breaking, so a simulation
// driven by seeded PRNGs is exactly reproducible.
//
// The queue is a binary heap of event values, so once it has grown to its
// working depth, Schedule, At and Run allocate nothing: an event costs the
// heap only what its fn costs the caller, and a method value bound once
// costs nothing. A Timer re-arms without queueing an event per arm, so the
// heap stays near the number of live events. FIFO is the queue simulated
// nodes keep. A NaN event time has no place in the order, and At panics on
// one.
package sim

import (
	"fmt"
	"math"
)

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now float64
	seq int64
	cur int64   // seq of the event running now
	pq  []event // binary min-heap under before
}

// key is an event's place in the queue order.
type key struct {
	time float64
	seq  int64
}

type event struct {
	key
	fn func()
}

// before is the queue order: by time, then by scheduling order. No two
// events share a seq, so it is a strict total order and the firing order
// does not depend on how the heap is laid out.
func (a *key) before(b *key) bool {
	return a.time < b.time || a.time == b.time && a.seq < b.seq
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay seconds of simulated time. Negative delays
// are clamped to zero (fire "now", after already-queued events at the same
// instant).
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute simulation time t; times in the past are clamped
// to now. It panics if t is NaN.
func (e *Engine) At(t float64, fn func()) {
	t = e.clamp(t)
	e.seq++
	e.push(event{key{t, e.seq}, fn})
}

// clamp returns t, or now if t lies in the past. It panics if t is NaN.
func (e *Engine) clamp(t float64) float64 {
	if math.IsNaN(t) {
		panic(fmt.Sprintf("sim: event time %v is not a number (now %v)", t, e.now))
	}
	if t < e.now {
		return e.now
	}
	return t
}

// push adds ev to the heap, sifting it up from the tail.
func (e *Engine) push(ev event) {
	e.pq = append(e.pq, ev)
	q := e.pq
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p].key) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the earliest event. The vacated tail slot is
// cleared so the queue does not keep fired closures alive.
func (e *Engine) pop() event {
	q := e.pq
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q[n] = event{}
	q = q[:n]
	e.pq = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c].key) {
			c++
		}
		if !q[c].before(&x.key) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
	return top
}

// Run processes events in order until the queue is empty or the next event
// lies beyond the until time; the clock never exceeds until.
func (e *Engine) Run(until float64) {
	for len(e.pq) > 0 && e.pq[0].time <= until {
		next := e.pop()
		e.now, e.cur = next.time, next.seq
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }
