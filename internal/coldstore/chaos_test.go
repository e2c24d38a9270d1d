package coldstore

import (
	"bytes"
	"testing"
	"time"

	"softrate/internal/faultfs"
)

// TestCompactOnceVictimReadFault: a read fault while rewriting a
// compaction victim must fail the compaction cleanly — (false, err),
// index untouched, every live record (including the victim's) still
// readable with its latest state — and a later retry on a healed disk
// must reclaim the segment.
func TestCompactOnceVictimReadFault(t *testing.T) {
	inj := faultfs.Wrap(faultfs.OS{}, 13, faultfs.Rates{ReadErr: 1})
	inj.Arm(false)
	// The compact threshold is sized so the last of the armed supersedes
	// below crosses it: each one moves a whole record of the 13-record
	// sealed segment (64-byte states at 1 KiB segments) from live to
	// dead — the index knows the record's length, no read needed.
	const sealedRecs, stateW, superseded = 13, 64, 6
	ratio := float64(superseded) / sealedRecs
	s := openT(t, t.TempDir(), Config{SegmentBytes: 1 << 10, CompactRatio: ratio * 0.99, FS: inj})

	// Fill past one rotation with unique ids: no dead bytes anywhere, so
	// nothing is compactable and the background compactor stays idle
	// while the injector is disarmed.
	const n = 24
	for id := uint64(1); id <= n; id++ {
		putOne(t, s, id, 1, stateFor(id, stateW))
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("need a sealed segment; got %d segments", st.Segments)
	}

	// Arm, then supersede ids from the sealed segment: the dead ratio
	// crosses the threshold only now, so every compaction attempt —
	// background or explicit — runs against the faulty disk.
	inj.Arm(true)
	super := make(map[uint64][]byte)
	for id := uint64(1); id <= superseded; id++ {
		state := stateFor(id+1000, stateW)
		putOne(t, s, id, 1, state)
		super[id] = state
	}
	progressed, err := s.CompactOnce()
	if progressed || err == nil {
		t.Fatalf("CompactOnce over a faulty disk: progressed=%v err=%v, want (false, error)", progressed, err)
	}
	if !faultfs.IsInjected(err) {
		t.Fatalf("CompactOnce error %v does not wrap the injected fault", err)
	}

	// Heal: no state was lost and the index still points at the latest
	// copy of every record.
	inj.Arm(false)
	check := func(when string) {
		t.Helper()
		for id := uint64(1); id <= n; id++ {
			want := stateFor(id, stateW)
			if w, ok := super[id]; ok {
				want = w
			}
			_, state, ok, err := s.Peek(id, nil)
			if err != nil || !ok {
				t.Fatalf("Peek(%d) %s: ok=%v err=%v", id, when, ok, err)
			}
			if !bytes.Equal(state, want) {
				t.Fatalf("link %d serves stale state %s", id, when)
			}
		}
	}
	check("after failed compaction")
	// The background compactor, woken by the supersedes above, may get to
	// the healed disk first; either way the segment must be reclaimed.
	progressed, err = s.CompactOnce()
	if err != nil || (!progressed && s.Stats().Compactions == 0) {
		t.Fatalf("CompactOnce retry on a healed disk: progressed=%v err=%v", progressed, err)
	}
	check("after successful compaction")
}

// TestFailedCompactionIsRetried: compaction kicks are sent only when a
// segment's standing changes, so after a compaction fails nothing else
// may ever wake the compactor for that segment. With the store left
// completely alone after the fault heals, the compactor must come back
// on its own and reclaim it.
func TestFailedCompactionIsRetried(t *testing.T) {
	inj := faultfs.Wrap(faultfs.OS{}, 13, faultfs.Rates{ReadErr: 1})
	inj.Arm(false)
	s := openT(t, t.TempDir(), Config{SegmentBytes: 1 << 10, CompactRatio: 0.4, FS: inj})
	const n, stateW = 24, 64
	for id := uint64(1); id <= n; id++ {
		putOne(t, s, id, 1, stateFor(id, stateW))
	}
	// Supersede over a faulty disk until the sealed segment crosses the
	// threshold and the background compactor's read of it has failed.
	inj.Arm(true)
	for id := uint64(1); id <= n/2 && inj.Stats().ReadFaults == 0; id++ {
		putOne(t, s, id, 1, stateFor(id+1000, stateW))
		time.Sleep(10 * time.Millisecond)
	}
	if inj.Stats().ReadFaults == 0 {
		t.Fatal("the background compactor never attempted the sealed segment")
	}
	inj.Arm(false)
	for deadline := time.Now().Add(10 * compactRetry); s.Stats().Compactions == 0; {
		if time.Now().After(deadline) {
			t.Fatal("a failed compaction was never retried")
		}
		time.Sleep(compactRetry / 20)
	}
}
