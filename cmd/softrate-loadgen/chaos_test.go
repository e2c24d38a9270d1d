package main

import "testing"

// TestUDPVerifierOrderStaysBounded pins the verifier's memory on a
// healthy run: answered seqs leave inflight in onResponse, so track must
// drop them from the submission order too — otherwise order grows by one
// seq per batch for the whole run. A seq that is never answered (a shed
// batch) must not pin the queue either.
func TestUDPVerifierOrderStaysBounded(t *testing.T) {
	const window, cycles = 8, 100_000
	v := newUDPVerifier()
	seq := uint32(0)
	for ; seq < window; seq++ {
		v.track(seq, nil, nil)
	}
	for i := 0; i < cycles; i++ {
		v.onResponse(seq-window, nil) // oldest in flight answered
		v.track(seq, nil, nil)
		seq++
		if len(v.order) > 2*maxTrackedFlights {
			t.Fatalf("cycle %d: %d seqs queued for %d in flight", i, len(v.order), len(v.inflight))
		}
	}
	if v.mismatch != "" {
		t.Fatal(v.mismatch)
	}

	// One batch never answered: everything behind it is answered, and the
	// queue still stays bounded.
	v.track(seq, nil, nil)
	seq++
	for i := 0; i < cycles; i++ {
		v.track(seq, nil, nil)
		v.onResponse(seq, nil)
		seq++
		if len(v.order) > 2*maxTrackedFlights {
			t.Fatalf("lost head, cycle %d: %d seqs queued for %d in flight", i, len(v.order), len(v.inflight))
		}
	}
}
