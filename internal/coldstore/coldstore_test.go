package coldstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"softrate/internal/faultfs"
)

func openT(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func stateFor(id uint64, w int) []byte {
	st := make([]byte, w)
	for i := range st {
		st[i] = byte(id + uint64(i)*131)
	}
	binary.LittleEndian.PutUint64(st[:8], id)
	return st
}

func putOne(t *testing.T, s *Store, id uint64, algo uint8, state []byte) {
	t.Helper()
	if err := s.PutBatch([]Record{{LinkID: id, Algo: algo, State: state}}); err != nil {
		t.Fatalf("PutBatch(%d): %v", id, err)
	}
}

func TestPutTakeRoundtrip(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	widths := []int{8, 16, 20, 1668}
	var batch []Record
	for i := 0; i < 64; i++ {
		id := uint64(i + 1)
		batch = append(batch, Record{LinkID: id, Algo: uint8(i%5 + 1), State: stateFor(id, widths[i%len(widths)])})
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if got := s.Len(); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
	for i, r := range batch {
		algo, st, ok, err := s.Take(r.LinkID, nil)
		if err != nil || !ok {
			t.Fatalf("Take(%d): ok=%v err=%v", r.LinkID, ok, err)
		}
		if algo != r.Algo {
			t.Fatalf("Take(%d): algo %d, want %d", r.LinkID, algo, r.Algo)
		}
		if !bytes.Equal(st, stateFor(r.LinkID, widths[i%len(widths)])) {
			t.Fatalf("Take(%d): state mismatch", r.LinkID)
		}
	}
	// Taken links are gone.
	if _, _, ok, err := s.Take(1, nil); ok || err != nil {
		t.Fatalf("re-Take(1): ok=%v err=%v, want miss", ok, err)
	}
	st := s.Stats()
	if st.Links != 0 || st.Spills != 64 || st.Restores != 64 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RestoreLatency.Count != 64 {
		t.Fatalf("restore latency count = %d, want 64", st.RestoreLatency.Count)
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	putOne(t, s, 7, 3, stateFor(7, 16))
	for i := 0; i < 2; i++ {
		algo, st, ok, err := s.Peek(7, nil)
		if err != nil || !ok || algo != 3 || !bytes.Equal(st, stateFor(7, 16)) {
			t.Fatalf("Peek #%d: algo=%d ok=%v err=%v", i, algo, ok, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Peek removed the link")
	}
}

func TestSupersedeKeepsLatest(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	putOne(t, s, 42, 1, stateFor(42, 8))
	next := stateFor(43, 8) // different bytes, same link
	putOne(t, s, 42, 1, next)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after supersede, want 1", s.Len())
	}
	_, st, ok, err := s.Take(42, nil)
	if err != nil || !ok || !bytes.Equal(st, next) {
		t.Fatalf("Take after supersede: ok=%v err=%v state=%x", ok, err, st)
	}
	stats := s.Stats()
	if stats.DeadBytes == 0 {
		t.Fatalf("superseded record not counted dead: %+v", stats)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	// Tiny segments so a few batches rotate; ratio 0.4 so a half-dead
	// segment is rewritten.
	s := openT(t, t.TempDir(), Config{SegmentBytes: 1 << 10, CompactRatio: 0.4})
	const n = 200
	for i := 0; i < n; i++ {
		putOne(t, s, uint64(i+1), 1, stateFor(uint64(i+1), 32))
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	// Kill most of the population, then compact to quiescence.
	for i := 0; i < n-10; i++ {
		if _, _, ok, err := s.Take(uint64(i+1), nil); !ok || err != nil {
			t.Fatalf("Take(%d): ok=%v err=%v", i+1, ok, err)
		}
	}
	for {
		progressed, err := s.CompactOnce()
		if err != nil {
			t.Fatalf("CompactOnce: %v", err)
		}
		if !progressed {
			break
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions ran: %+v", st)
	}
	if st.Links != 10 {
		t.Fatalf("Links = %d, want 10", st.Links)
	}
	// The survivors must still read back exactly.
	for i := n - 10; i < n; i++ {
		id := uint64(i + 1)
		_, got, ok, err := s.Take(id, nil)
		if err != nil || !ok || !bytes.Equal(got, stateFor(id, 32)) {
			t.Fatalf("post-compaction Take(%d): ok=%v err=%v", id, ok, err)
		}
	}
}

// TestCompactorStopsWhenIdle: the background compactor runs only while a
// segment may be reclaimed. A store with nothing to reclaim runs none;
// kicked by dead segments, it reclaims them and exits, so a tier nobody
// closes (the link store's in-memory one) holds no goroutine.
func TestCompactorStopsWhenIdle(t *testing.T) {
	s := openT(t, "", Config{SegmentBytes: 1 << 10, FS: new(faultfs.Mem)})
	running := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.compacting
	}
	const n = 200
	for id := uint64(1); id <= n; id++ {
		putOne(t, s, id, 1, stateFor(id, 32))
	}
	if st := s.Stats(); st.Segments < 3 || running() {
		t.Fatalf("%d segments, compactor running %v: want several, all live, and no compactor", st.Segments, running())
	}
	for id := uint64(1); id <= n; id++ {
		if _, _, ok, err := s.Take(id, nil); !ok || err != nil {
			t.Fatalf("Take(%d): ok=%v err=%v", id, ok, err)
		}
	}
	s.done.Wait() // the takes' kicks started the compactor; this is its exit
	if st := s.Stats(); running() || st.Segments != 1 {
		t.Fatalf("compactor running %v with %d segments left, want it done and stopped with the active one", running(), st.Segments)
	}
}

// TestReopenCompactsDeadSegments: a directory with several fully dead
// segments is reclaimed by the compactor that Open starts once recovery
// has returned its tables. Under -race this checks that Open's kicks and
// the compactor share the lock.
func TestReopenCompactsDeadSegments(t *testing.T) {
	// Two logs of the same links, the second one newer: appended to the
	// first under later segment IDs, it supersedes every record there.
	dir, newer := t.TempDir(), t.TempDir()
	const n = 200
	var newSegs int
	for v, d := range []string{dir, newer} {
		s := openT(t, d, Config{SegmentBytes: 1 << 10})
		for id := uint64(1); id <= n; id++ {
			putOne(t, s, id, 1, stateFor(id+uint64(v)*n, 32))
		}
		newSegs = s.Stats().Segments
		s.Close()
	}
	old, _ := os.ReadDir(dir)
	for i := range newSegs {
		if err := os.Rename(filepath.Join(newer, segName(uint32(i))), filepath.Join(dir, segName(uint32(len(old)+i)))); err != nil {
			t.Fatal(err)
		}
	}

	s := openT(t, dir, Config{SegmentBytes: 1 << 10})
	s.done.Wait()
	if st := s.Stats(); st.Links != n || st.Segments != newSegs {
		t.Fatalf("reopened: %d links in %d segments, want %d in the newer log's %d", st.Links, st.Segments, n, newSegs)
	}
	for id := uint64(1); id <= n; id++ {
		if _, state, ok, err := s.Peek(id, nil); !ok || err != nil || !bytes.Equal(state, stateFor(id+n, 32)) {
			t.Fatalf("Peek(%d): ok=%v err=%v, or not the newer state", id, ok, err)
		}
	}
}

// TestCompactionYieldsBetweenSlices: a compaction lets go of the lock
// between slices of its victim, and what runs there — a restore and a
// superseding spill of records the compaction has not reached yet — must
// neither be lost nor undone: every link restores its latest state, the
// victim is gone, and each segment's live and dead counts add up.
func TestCompactionYieldsBetweenSlices(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{SegmentBytes: 1 << 20})
	const n, w, batch = 20000, 64, 500
	recLen := int64(recOverhead + w)
	want := map[uint64][]byte{}
	for base := uint64(1); base <= n; base += batch {
		recs := make([]Record, batch)
		for i := range recs {
			id := base + uint64(i)
			recs[i] = Record{LinkID: id, Algo: 1, State: stateFor(id, w)}
			want[id] = recs[i].State
		}
		if err := s.PutBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	victimRecs := (s.segs[0].size - headerLen) / recLen
	s.mu.Unlock()
	if victimRecs*recLen < 3*compactSlice || s.Stats().Segments != 2 {
		t.Fatalf("segment 0 holds %d records over %d segments: too few for three slices", victimRecs, s.Stats().Segments)
	}

	// Links past the first slices of segment 0, odd so the kill below
	// leaves them live: the hook restores the first group and supersedes
	// the second, each the first time it runs.
	var mu sync.Mutex
	calls := 0
	taken, superseded := map[uint64]bool{}, map[uint64][]byte{}
	hook := func() {
		mu.Lock()
		defer mu.Unlock()
		if calls++; calls > 1 {
			return
		}
		var ids []uint64
		var recs []Record
		for id := uint64(victimRecs-1000) | 1; id < uint64(victimRecs); id += 2 {
			if id < uint64(victimRecs-500) {
				ids = append(ids, id)
				continue
			}
			superseded[id] = stateFor(id+n, w)
			recs = append(recs, Record{LinkID: id, Algo: 1, State: superseded[id]})
		}
		_, out := s.TakeBatch(ids, nil, nil)
		for i, r := range out {
			if !r.OK || !bytes.Equal(r.State, stateFor(ids[i], w)) {
				t.Errorf("restore of link %d between slices: %+v", ids[i], r)
			}
			taken[ids[i]] = true
		}
		if err := s.PutBatch(recs); err != nil {
			t.Errorf("superseding spill between slices: %v", err)
		}
	}
	s.mu.Lock()
	s.betweenSlices = hook
	s.mu.Unlock()

	// Kill every even link of segment 0: at half dead it is a victim, and
	// the background compactor may start on it while this loop runs.
	for id := uint64(2); id <= uint64(victimRecs); id += 2 {
		if _, _, ok, err := s.Take(id, nil); !ok || err != nil {
			t.Fatalf("Take(%d): ok=%v err=%v", id, ok, err)
		}
		delete(want, id)
	}
	for {
		progressed, err := s.CompactOnce()
		if err != nil {
			t.Fatalf("CompactOnce: %v", err)
		}
		if !progressed {
			break
		}
	}
	mu.Lock()
	if calls < 3 {
		t.Fatalf("the hook ran %d times: the victim was not compacted in slices", calls)
	}
	for id := range taken {
		delete(want, id)
	}
	for id, state := range superseded {
		want[id] = state
	}
	mu.Unlock()
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("the victim's file is still there: %v", err)
	}

	s.mu.Lock()
	liveRecs := int64(0)
	for _, sg := range s.segs {
		if sg == nil {
			continue
		}
		if sg.id == 0 {
			t.Errorf("the victim still holds slot %d", sg.slot)
		}
		if sg.liveBytes != sg.liveRecs*recLen || sg.deadBytes != sg.deadRecs*recLen ||
			sg.liveBytes+sg.deadBytes != sg.size-headerLen {
			t.Errorf("segment %d: %d live records in %d bytes, %d dead in %d, %d bytes written",
				sg.id, sg.liveRecs, sg.liveBytes, sg.deadRecs, sg.deadBytes, sg.size-headerLen)
		}
		liveRecs += sg.liveRecs
	}
	if int(liveRecs) != s.index.len() || s.index.len() != len(want) {
		t.Errorf("segments count %d live records, the index %d, want %d links", liveRecs, s.index.len(), len(want))
	}
	s.mu.Unlock()

	for id := uint64(1); id <= n; id++ {
		_, state, ok, err := s.Take(id, nil)
		if exp, live := want[id]; err != nil || ok != live || !bytes.Equal(state, exp) {
			t.Fatalf("Take(%d): ok=%v err=%v, want present %v with its latest state", id, ok, err, live)
		}
	}
	if st := s.Stats(); st.Links != 0 || st.LiveBytes != 0 {
		t.Fatalf("after restoring every link: %+v", st)
	}
}

func TestReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{SegmentBytes: 1 << 10})
	const n = 100
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		putOne(t, s, id, uint8(i%5+1), stateFor(id, 8+(i%4)*8))
	}
	// Supersede one so the reopened index must honor later-wins; take one
	// to pin the documented resurrection semantics (a taken link's record
	// stays in the log, so reopen recovers its spill-time state — the
	// owner supersedes it on the next spill, or SpillAll at shutdown).
	putOne(t, s, 5, 2, stateFor(500, 16))
	if _, _, ok, err := s.Take(9, nil); !ok || err != nil {
		t.Fatalf("Take(9): ok=%v err=%v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, dir, Config{SegmentBytes: 1 << 10})
	if got, want := r.Len(), n; got != want {
		t.Fatalf("reopened Len = %d, want %d", got, want)
	}
	if _, st, ok, _ := r.Peek(9, nil); !ok || !bytes.Equal(st, stateFor(9, 8+(9-1)%4*8)) {
		t.Fatalf("taken link 9 should resurrect with its spill-time state; ok=%v", ok)
	}
	algo, st, ok, err := r.Peek(5, nil)
	if err != nil || !ok || algo != 2 || !bytes.Equal(st, stateFor(500, 16)) {
		t.Fatalf("reopened Peek(5): algo=%d ok=%v err=%v", algo, ok, err)
	}
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		if id == 5 || id == 9 {
			continue
		}
		_, st, ok, err := r.Peek(id, nil)
		if err != nil || !ok || !bytes.Equal(st, stateFor(id, 8+(i%4)*8)) {
			t.Fatalf("reopened Peek(%d): ok=%v err=%v", id, ok, err)
		}
	}
}

// TestTornTailTruncated crashes mid-commit by chopping bytes off the
// active segment: every fully-written record must survive reopen and the
// torn suffix must be dropped, not parsed.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	for i := 0; i < 10; i++ {
		putOne(t, s, uint64(i+1), 1, stateFor(uint64(i+1), 32))
	}
	putOne(t, s, 999, 1, stateFor(999, 32))
	s.Close()

	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear halfway through the final record.
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Config{})
	if _, _, ok, _ := r.Peek(999, nil); ok {
		t.Fatalf("torn record 999 came back")
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if want := int64(len(data) - (recOverhead + 32)); fi.Size() != want {
		t.Fatalf("the segment is %d bytes after recovery, want the torn record cut to %d", fi.Size(), want)
	}
	for i := 0; i < 10; i++ {
		id := uint64(i + 1)
		_, st, ok, err := r.Peek(id, nil)
		if err != nil || !ok || !bytes.Equal(st, stateFor(id, 32)) {
			t.Fatalf("committed record %d lost to torn tail: ok=%v err=%v", id, ok, err)
		}
	}
	if st := r.Stats(); st.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", st.TornTails)
	}
	// The tier keeps working after repair.
	putOne(t, r, 999, 1, stateFor(999, 32))
	_, st, ok, err := r.Take(999, nil)
	if err != nil || !ok || !bytes.Equal(st, stateFor(999, 32)) {
		t.Fatalf("post-repair Take(999): ok=%v err=%v", ok, err)
	}
}

// TestCorruptTailNeverFabricates flips a byte inside the final record:
// recovery must drop that record (CRC) without inventing state, keeping
// all earlier ones.
func TestCorruptTailNeverFabricates(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	for i := 0; i < 5; i++ {
		putOne(t, s, uint64(i+1), 1, stateFor(uint64(i+1), 24))
	}
	s.Close()

	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x40 // inside the last record's state
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Config{})
	if r.Len() != 4 {
		t.Fatalf("Len = %d after corrupt tail, want 4", r.Len())
	}
	if _, _, ok, _ := r.Peek(5, nil); ok {
		t.Fatalf("corrupt record 5 came back")
	}
	for i := 0; i < 4; i++ {
		id := uint64(i + 1)
		_, st, ok, err := r.Peek(id, nil)
		if err != nil || !ok || !bytes.Equal(st, stateFor(id, 24)) {
			t.Fatalf("record %d lost: ok=%v err=%v", id, ok, err)
		}
	}
}

func TestStatsBytesAndAlgos(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	putOne(t, s, 1, 1, stateFor(1, 8))
	putOne(t, s, 2, 2, stateFor(2, 1668))
	st := s.Stats()
	wantLive := int64(recOverhead+8) + int64(recOverhead+1668)
	if st.LiveBytes != wantLive {
		t.Fatalf("LiveBytes = %d, want %d", st.LiveBytes, wantLive)
	}
	if st.AlgoLinks[1] != 1 || st.AlgoLinks[2] != 1 {
		t.Fatalf("AlgoLinks = %v", st.AlgoLinks)
	}
	if _, _, ok, _ := s.Take(2, nil); !ok {
		t.Fatal("Take(2) missed")
	}
	st = s.Stats()
	if st.LiveBytes != int64(recOverhead+8) || st.DeadBytes != int64(recOverhead+1668) {
		t.Fatalf("after Take: live=%d dead=%d", st.LiveBytes, st.DeadBytes)
	}
	if _, ok := st.AlgoLinks[2]; ok {
		t.Fatalf("algo 2 still counted: %v", st.AlgoLinks)
	}
}

func TestRejectsOversizeState(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	err := s.PutBatch([]Record{{LinkID: 1, Algo: 1, State: make([]byte, maxStateLen+1)}})
	if err == nil {
		t.Fatal("oversize state accepted")
	}
	if s.Len() != 0 {
		t.Fatal("oversize batch partially applied")
	}
}

func TestRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte("not a segment file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a foreign file as a segment")
	}
}

func TestManyBatchesManySegmentsReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{SegmentBytes: 4 << 10})
	want := make(map[uint64][]byte)
	for b := 0; b < 40; b++ {
		var batch []Record
		for i := 0; i < 25; i++ {
			id := uint64(b*1000 + i + 1)
			st := stateFor(id, 8+(i%3)*12)
			want[id] = st
			batch = append(batch, Record{LinkID: id, Algo: uint8(b%5 + 1), State: st})
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatalf("PutBatch #%d: %v", b, err)
		}
	}
	s.Close()
	r := openT(t, dir, Config{SegmentBytes: 4 << 10})
	if r.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), len(want))
	}
	for id, st := range want {
		_, got, ok, err := r.Take(id, nil)
		if err != nil || !ok || !bytes.Equal(got, st) {
			t.Fatalf("Take(%d): ok=%v err=%v", id, ok, err)
		}
	}
}

// FuzzSegmentRecovery is the crash-recovery contract under fire: commit
// a known population, then corrupt the tail of the last segment in an
// arbitrary way (truncate to any length, or flip arbitrary suffix
// bytes). Reopen must (a) never return a record that was not committed
// byte-for-byte, and (b) recover every record strictly before the
// damage.
func FuzzSegmentRecovery(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(0))
	f.Add(uint16(20), uint8(1), uint64(0x40))
	f.Add(uint16(300), uint8(7), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, chop uint16, nflips uint8, flipSeed uint64) {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64][]byte)
		for b := 0; b < 6; b++ {
			var batch []Record
			for i := 0; i < 10; i++ {
				id := uint64(b*100 + i + 1)
				st := stateFor(id, 8+(int(id)%5)*7)
				want[id] = st
				batch = append(batch, Record{LinkID: id, Algo: uint8(id%5 + 1), State: st})
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		// Find the last segment and damage its tail.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		last := ""
		for _, e := range entries {
			if e.Name() > last {
				last = e.Name()
			}
		}
		path := filepath.Join(dir, last)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Parse the pre-damage image: only these links may be lost.
		lastIDs := make(map[uint64]bool)
		for off := headerLen; off+recOverhead <= len(data); {
			w := int(binary.LittleEndian.Uint16(data[off : off+2]))
			lastIDs[binary.LittleEndian.Uint64(data[off+3:off+11])] = true
			off += recOverhead + w
		}
		// damageStart marks the first byte that may differ from the
		// committed image.
		damageStart := len(data)
		if n := int(chop) % (len(data) + 1); n > 0 {
			data = data[:len(data)-n]
			damageStart = len(data)
		}
		rng := flipSeed
		for i := 0; i < int(nflips%8) && len(data) > headerLen; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			// Flip within the last quarter of the file (past the header)
			// so the damage is tail-shaped.
			span := (len(data)-headerLen)/4 + 1
			pos := len(data) - 1 - int(rng>>33)%span
			if pos < headerLen {
				pos = headerLen
			}
			data[pos] ^= byte(rng) | 1
			if pos < damageStart {
				damageStart = pos
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
		if err != nil {
			// A fully unparseable segment header is a refused Open, not a
			// fabricated record — acceptable only if the header itself was
			// damaged.
			if damageStart < headerLen {
				return
			}
			t.Fatalf("Open after tail damage: %v", err)
		}
		defer r.Close()

		for id, st := range want {
			algo, got, ok, err := r.Peek(id, nil)
			if err != nil {
				t.Fatalf("Peek(%d): %v", id, err)
			}
			if !ok {
				// Only links whose record lived in the damaged segment may
				// be lost.
				if !lastIDs[id] {
					t.Fatalf("Peek(%d): lost a record from an undamaged segment", id)
				}
				continue
			}
			// Never a garbage record: anything returned must be the
			// committed bytes.
			if !bytes.Equal(got, st) || algo != uint8(id%5+1) {
				t.Fatalf("Peek(%d) returned fabricated state: algo=%d got=%x want=%x", id, algo, got, st)
			}
		}
	})
}

// TestDecodeRecordFrame: decodeRecord, the one reader of the record
// frame, reads back what appendRecord wrote at SoftRate's 8-byte and
// served SampleRate's 1668-byte state widths and stops at the frame's
// end. After any change to any one byte of the frame — width, algorithm,
// link ID, state or CRC — and for every strict prefix of it, the frame it
// reads is refused as recovery refuses one: not whole, or not intact.
func TestDecodeRecordFrame(t *testing.T) {
	accepted := func(b []byte) bool {
		_, n := decodeRecord(b)
		return n <= len(b) && intact(b[:n])
	}
	for _, w := range []int{8, 1668} {
		want := Record{LinkID: 0x0123456789abcdef, Algo: 3, State: stateFor(77, w)}
		frame := appendRecord(nil, want)
		r, n := decodeRecord(appendRecord(frame[:len(frame):len(frame)], Record{LinkID: 1, Algo: 1, State: stateFor(1, 8)}))
		if n != recOverhead+w || !intact(frame) || r.LinkID != want.LinkID || r.Algo != want.Algo || !bytes.Equal(r.State, want.State) {
			t.Fatalf("width %d: decoded %+v from %d bytes, intact %v; want %+v from %d", w, r, n, intact(frame), want, recOverhead+w)
		}
		for i := range frame {
			for x := 1; x < 256; x++ {
				frame[i] ^= byte(x)
				if accepted(frame) {
					t.Fatalf("width %d: byte %d changed by %#x is accepted", w, i, x)
				}
				frame[i] ^= byte(x)
			}
		}
		for k := range frame {
			if accepted(frame[:k]) {
				t.Fatalf("width %d: a %d-byte prefix is accepted", w, k)
			}
		}
	}
}

// TestOpenRejectsNaNCompactRatio: NaN passes both the "<= 0 means the
// default" and the "> 1 means 1" bounds, so Open must refuse it outright.
func TestOpenRejectsNaNCompactRatio(t *testing.T) {
	if s, err := Open(Config{Dir: t.TempDir(), CompactRatio: math.NaN()}); err == nil {
		s.Close()
		t.Fatal("Open accepted CompactRatio NaN")
	}
}
