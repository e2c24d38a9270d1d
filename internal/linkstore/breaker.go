package linkstore

import (
	"sync"
	"time"
)

// Cold-tier breaker schedule: trip after this many consecutive spill
// failures, then probe with exponential backoff between these bounds.
const (
	breakerTripAfter  = 3
	breakerMinBackoff = 100 * time.Millisecond
	breakerMaxBackoff = 10 * time.Second
)

// breaker is the cold tier's degradation switch. A failed spill never
// loses state — the failing generation stays resident — so its only job
// is to stop hammering a broken disk: after breakerTripAfter consecutive
// failures it opens, rotations stop attempting cold-tier writes (the RAM
// archive grows without bound until one lands), and one probe
// spill is allowed per backoff interval, the interval doubling up to
// breakerMaxBackoff until a probe succeeds. It reads no clock: every
// transition takes the caller's now, in nanoseconds.
type breaker struct {
	mu      sync.Mutex
	open    bool
	fails   int    // consecutive failed spills
	retryAt int64  // earliest next probe while open
	backoff int64  // current probe interval, 0 while closed
	trips   uint64 // closed → open transitions
	probes  uint64 // probes granted while open
}

// allow reports whether a spill may be attempted at now. While open that
// is one probe per backoff interval: granting it re-arms retryAt at once,
// so shards sweeping concurrently don't all probe a disk that just failed.
func (b *breaker) allow(now int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if now < b.retryAt {
		return false
	}
	b.retryAt = now + b.backoff
	b.probes++
	return true
}

// result feeds in the outcome of a spill attempted at now: any success
// closes the breaker and resets the backoff; the breakerTripAfter-th
// consecutive failure opens it, and each failure from then on doubles the
// backoff up to breakerMaxBackoff.
func (b *breaker) result(now int64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.open, b.fails, b.backoff = false, 0, 0
		return
	}
	b.fails++
	if !b.open {
		if b.fails < breakerTripAfter {
			return
		}
		b.open = true
		b.trips++
	}
	if b.backoff == 0 {
		b.backoff = int64(breakerMinBackoff)
	} else {
		b.backoff = min(2*b.backoff, int64(breakerMaxBackoff))
	}
	b.retryAt = now + b.backoff
}

// snapshot returns whether the breaker is open and its lifetime counts of
// trips and granted probes.
func (b *breaker) snapshot() (open bool, trips, probes uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open, b.trips, b.probes
}
