package sim

// Timer is a resettable one-shot timer. Reset behaves exactly as if it
// scheduled a fresh one-shot event and every event an earlier Reset
// scheduled had become a no-op: the live deadline fires at the (time, seq)
// key that fresh event would have had, so every other event keeps its
// place. What it saves is the heap. Instead of one event per Reset, the
// timer tracks one queued wake-up at or before the live key, and a wake-up
// that comes due early re-queues itself at that key. Only a deadline
// earlier than the tracked wake-up queues another, leaving the old one to
// fire as a no-op.
type Timer struct {
	eng           *Engine
	fn, wakeFn    func()
	armed, queued bool
	live          key // the deadline, with the seq Reset reserved for it
	wake          key // the tracked wake-up, while queued
}

// NewTimer returns an unarmed timer that runs fn on eng.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{eng: eng, fn: fn}
	t.wakeFn = t.wakeUp
	return t
}

// Reset arms the timer to fire delay seconds from now, superseding any
// earlier deadline. Negative delays are clamped to zero, as in Schedule.
func (t *Timer) Reset(delay float64) {
	e := t.eng
	if delay < 0 {
		delay = 0
	}
	at := e.clamp(e.now + delay)
	e.seq++
	t.armed, t.live = true, key{at, e.seq}
	// The tracked wake-up's seq is lower, so its time decides.
	if !t.queued || t.wake.time > at {
		t.queue()
	}
}

// Stop disarms the timer.
func (t *Timer) Stop() { t.armed = false }

func (t *Timer) queue() {
	t.queued, t.wake = true, t.live
	t.eng.push(event{t.live, t.wakeFn})
}

func (t *Timer) wakeUp() {
	if !t.queued || t.eng.cur != t.wake.seq {
		return // a wake-up an earlier deadline superseded
	}
	t.queued = false
	switch {
	case !t.armed:
	case t.live == t.wake:
		t.armed = false
		t.fn()
	default:
		t.queue()
	}
}
