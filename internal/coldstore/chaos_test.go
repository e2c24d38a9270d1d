package coldstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
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

// TestCompactOnceChangedLiveRecord: a live record whose bytes changed on
// disk must not come back valid from a compaction. Rewriting it would
// give the changed bytes a fresh CRC; instead the compaction fails as on
// a read fault, the record stays indexed, and Take reports the mismatch.
func TestCompactOnceChangedLiveRecord(t *testing.T) {
	const sealedRecs, stateW, live = 13, 64, 7
	dir := t.TempDir()
	s := openT(t, dir, Config{SegmentBytes: 1 << 10})
	for id := uint64(1); id <= 24; id++ {
		putOne(t, s, id, 1, stateFor(id, stateW))
	}
	s.mu.Lock()
	l, seg0 := s.index.get(live), s.segs[0]
	sealed := seg0 != s.active && seg0.liveRecs == sealedRecs
	s.mu.Unlock()
	if !sealed || l.slot() != seg0.slot {
		t.Fatalf("want link %d among %d records of a sealed segment 0", live, sealedRecs)
	}

	// Change one state byte of the live record, then supersede the rest of
	// its segment: only now is the segment a compaction victim.
	f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	at := l.off() + recHeaderLen + stateW/2
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for id := uint64(1); id <= sealedRecs; id++ {
		if id != live {
			putOne(t, s, id, 1, stateFor(id+1000, stateW))
		}
	}

	if progressed, err := s.CompactOnce(); progressed || err == nil {
		t.Errorf("CompactOnce over a changed live record: progressed=%v err=%v, want (false, error)", progressed, err)
	}
	// At least this pass failed; the background compactor may have too.
	if n := s.Stats().CompactFailures; n < 1 {
		t.Errorf("CompactFailures = %d after a failed pass, want >= 1", n)
	}
	if _, state, ok, err := s.Take(live, nil); ok || err == nil {
		t.Errorf("Take(%d) of the changed record: ok=%v err=%v state %x, want a CRC error", live, ok, err, state)
	}
}

// TestCompactOnceDeadFrameWidthChanged: a dead record whose width field
// changed on disk makes the compaction's walk step over the live records
// after it. The victim must then stay, and those records with it, rather
// than be removed with index entries still pointing into it.
func TestCompactOnceDeadFrameWidthChanged(t *testing.T) {
	const sealedRecs, stateW, dead = 13, 64, 7
	dir := t.TempDir()
	s := openT(t, dir, Config{SegmentBytes: 1 << 10})
	for id := uint64(1); id <= 24; id++ {
		putOne(t, s, id, 1, stateFor(id, stateW))
	}
	s.mu.Lock()
	l, seg0 := s.index.get(dead), s.segs[0]
	end := seg0.size
	s.mu.Unlock()
	if l.slot() != seg0.slot || seg0.liveRecs != sealedRecs {
		t.Fatalf("want link %d among %d records of a sealed segment 0", dead, sealedRecs)
	}

	// Widen the record to run to the segment's end, then supersede it and
	// the ones before it: the segment is a victim whose last records are
	// live.
	f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var w [2]byte
	binary.LittleEndian.PutUint16(w[:], uint16(end-l.off()-recOverhead))
	if _, err := f.WriteAt(w[:], l.off()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for id := uint64(1); id <= dead; id++ {
		putOne(t, s, id, 1, stateFor(id+1000, stateW))
	}

	if progressed, err := s.CompactOnce(); progressed || err == nil {
		t.Errorf("CompactOnce over a hidden live record: progressed=%v err=%v, want (false, error)", progressed, err)
	}
	// At least this pass failed; the background compactor may have too.
	if n := s.Stats().CompactFailures; n < 1 {
		t.Errorf("CompactFailures = %d after a failed pass, want >= 1", n)
	}
	for id := uint64(dead + 1); id <= sealedRecs; id++ {
		if _, state, ok, err := s.Take(id, nil); !ok || err != nil || !bytes.Equal(state, stateFor(id, stateW)) {
			t.Errorf("Take(%d) after the compaction: ok=%v err=%v", id, ok, err)
		}
	}
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
