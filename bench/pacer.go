package main

import "time"

// openLoop sends n requests on a fixed schedule — request i is due at
// i*interval on the now() clock — through a window of at most `window`
// outstanding requests, from one goroutine. A request's latency runs from
// the moment it was DUE, not from the moment it was sent: when a send or
// a receive stalls, the requests scheduled behind it are sent late, and
// that wait is theirs (no coordinated omission). late[i] is how late
// request i left; lat[i] is its due-to-completion time, or lost when
// recv reported it unanswered.
//
// send(i) submits request i; recv(i) blocks until request i completes and
// reports whether it was answered; settle(i, answered) runs after the
// latency stamp, for work on the answer that is not the server's (the
// reference check). idle() is called when nothing is due and nothing is
// outstanding. The clock is a parameter so the schedule arithmetic can be
// tested on a fake one.
func openLoop(now func() time.Duration, n int, interval time.Duration, window int,
	send func(i int) error, recv func(i int) (bool, error), settle func(i int, answered bool), idle func()) (lat, late []time.Duration, err error) {
	lat = make([]time.Duration, n)
	late = make([]time.Duration, n)
	start := now()
	due := func(i int) time.Duration { return start + time.Duration(i)*interval }
	sent, done := 0, 0
	for done < n {
		t := now()
		switch {
		case sent < n && sent-done < window && t >= due(sent):
			late[sent] = t - due(sent)
			if err := send(sent); err != nil {
				return nil, nil, err
			}
			sent++
		case sent > done:
			ok, err := recv(done)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				lat[done] = now() - due(done)
			} else {
				lat[done] = lost
			}
			settle(done, ok)
			done++
		default:
			idle()
		}
	}
	return lat, late, nil
}

// lost marks an unanswered request's latency: beyond any limit.
const lost = time.Duration(1<<63 - 1)
