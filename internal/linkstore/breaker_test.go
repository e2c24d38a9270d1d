package linkstore

import (
	"errors"
	"testing"
	"time"
)

// TestBreakerSchedule walks the breaker through trip → probe → double →
// cap → heal on nothing but the times it is handed: no store, no disk, no
// clock.
func TestBreakerSchedule(t *testing.T) {
	const ms = int64(time.Millisecond)
	fail := errors.New("disk on fire")
	type step struct {
		name string
		at   int64 // ms
		// The step either asks allow(at) and expects allow, or feeds in
		// result(at, err).
		ask, allow bool
		err        error
		// State after the step.
		open    bool
		retryAt int64 // ms, checked while open
		trips   uint64
		probes  uint64
	}
	steps := []step{
		{name: "closed allows", at: 0, ask: true, allow: true},
		{name: "first failure", at: 0, err: fail},
		{name: "second failure", at: 1, err: fail},
		{name: "a success between resets the run", at: 2},
		{name: "failure 1 of 3", at: 3, err: fail},
		{name: "failure 2 of 3", at: 4, err: fail},
		{name: "still closed, still allows", at: 5, ask: true, allow: true},
		{name: "failure 3 of 3 trips", at: 10, err: fail, open: true, retryAt: 110, trips: 1},
		{name: "open refuses before the backoff", at: 109, ask: true, open: true, retryAt: 110, trips: 1},
		{name: "open grants one probe at the backoff and re-arms", at: 110, ask: true, allow: true, open: true, retryAt: 210, trips: 1, probes: 1},
		{name: "a second shard the same instant is refused", at: 110, ask: true, open: true, retryAt: 210, trips: 1, probes: 1},
		{name: "failed probe doubles from its own now", at: 120, err: fail, open: true, retryAt: 320, trips: 1, probes: 1},
		{name: "next probe", at: 320, ask: true, allow: true, open: true, retryAt: 520, trips: 1, probes: 2},
		{name: "doubles again", at: 320, err: fail, open: true, retryAt: 720, trips: 1, probes: 2},
		{name: "400 → 800", at: 720, err: fail, open: true, retryAt: 1520, trips: 1, probes: 2},
		{name: "→ 1.6 s", at: 1520, err: fail, open: true, retryAt: 3120, trips: 1, probes: 2},
		{name: "→ 3.2 s", at: 3120, err: fail, open: true, retryAt: 6320, trips: 1, probes: 2},
		{name: "→ 6.4 s", at: 6320, err: fail, open: true, retryAt: 12720, trips: 1, probes: 2},
		{name: "→ capped at 10 s", at: 12720, err: fail, open: true, retryAt: 22720, trips: 1, probes: 2},
		{name: "stays at the cap", at: 22720, err: fail, open: true, retryAt: 32720, trips: 1, probes: 2},
		{name: "probe at the cap", at: 32720, ask: true, allow: true, open: true, retryAt: 42720, trips: 1, probes: 3},
		{name: "success heals", at: 32721, trips: 1, probes: 3},
		{name: "healed allows at once", at: 32721, ask: true, allow: true, trips: 1, probes: 3},
		{name: "backoff starts over: failure 1", at: 40000, err: fail, trips: 1, probes: 3},
		{name: "failure 2", at: 40001, err: fail, trips: 1, probes: 3},
		{name: "second trip, minimum backoff again", at: 40002, err: fail, open: true, retryAt: 40102, trips: 2, probes: 3},
	}
	var b breaker
	for _, s := range steps {
		if s.ask {
			if got := b.allow(s.at * ms); got != s.allow {
				t.Fatalf("%s: allow(%d ms) = %v, want %v", s.name, s.at, got, s.allow)
			}
		} else {
			b.result(s.at*ms, s.err)
		}
		open, trips, probes := b.snapshot()
		if open != s.open || trips != s.trips || probes != s.probes {
			t.Fatalf("%s: open %v trips %d probes %d, want %v %d %d", s.name, open, trips, probes, s.open, s.trips, s.probes)
		}
		if open && b.retryAt != s.retryAt*ms {
			t.Fatalf("%s: next probe at %d ms, want %d ms", s.name, b.retryAt/ms, s.retryAt)
		}
	}
}
