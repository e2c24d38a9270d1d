package coldstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"softrate/internal/faultfs"
)

// stateOf is stateFor that also makes the zero-width state.
func stateOf(id uint64, w int) []byte {
	if w == 0 {
		return nil
	}
	return stateFor(id, w)
}

// fillMixed commits the same 300 links — four state widths, five
// algorithms, a few superseded — to a store in batches small enough to
// span several segments.
func fillMixed(t *testing.T, s *Store) (ids []uint64, width map[uint64]int) {
	t.Helper()
	widths := []int{0, 8, 20, 1668}
	width = make(map[uint64]int)
	for b := 0; b < 12; b++ {
		var batch []Record
		for i := 0; i < 25; i++ {
			id := uint64(b*25 + i + 1)
			w := widths[(b+i)%len(widths)]
			width[id] = w
			ids = append(ids, id)
			batch = append(batch, Record{LinkID: id, Algo: uint8(id%5 + 1), State: stateOf(id, w)})
		}
		if b > 0 { // supersede one link of the previous batch
			id := uint64(b*25 - 3)
			batch = append(batch, Record{LinkID: id, Algo: uint8(id%5 + 1), State: stateOf(id, width[id])})
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatalf("PutBatch #%d: %v", b, err)
		}
	}
	return ids, width
}

// TestTakeBatchMatchesSequentialTake: one TakeBatch and the same ids
// through Take one at a time give the same answer for every id —
// shuffled, with duplicates and ids the tier never held — and leave two
// identically filled stores in the same state.
func TestTakeBatchMatchesSequentialTake(t *testing.T) {
	cfg := Config{SegmentBytes: 8 << 10}
	batched := openT(t, t.TempDir(), cfg)
	serial := openT(t, t.TempDir(), cfg)
	ids, width := fillMixed(t, batched)
	fillMixed(t, serial)

	rng := rand.New(rand.NewSource(5))
	ask := append([]uint64(nil), ids[:200]...)
	for i := 0; i < 30; i++ {
		ask = append(ask, ids[rng.Intn(200)]) // duplicates
		ask = append(ask, uint64(10000+i))    // never held
	}
	rng.Shuffle(len(ask), func(i, j int) { ask[i], ask[j] = ask[j], ask[i] })

	_, got := batched.TakeBatch(ask, nil, nil)
	if len(got) != len(ask) {
		t.Fatalf("TakeBatch answered %d of %d ids", len(got), len(ask))
	}
	for i, id := range ask {
		algo, state, ok, err := serial.Take(id, nil)
		g := got[i]
		if g.Err != nil || err != nil {
			t.Fatalf("ask[%d]=%d: batch err %v, serial err %v", i, id, g.Err, err)
		}
		if g.OK != ok || g.Algo != algo || !bytes.Equal(g.State, state) {
			t.Fatalf("ask[%d]=%d: batch (%v, %d, %x) != serial (%v, %d, %x)", i, id, g.OK, g.Algo, g.State, ok, algo, state)
		}
		if ok && !bytes.Equal(state, stateOf(id, width[id])) {
			t.Fatalf("ask[%d]=%d restored the wrong bytes", i, id)
		}
	}
	bs, ss := batched.Stats(), serial.Stats()
	if bs.RestoreLatency.Count != bs.Restores || bs.Restores != 200 {
		t.Fatalf("batched: %d restores, %d latency observations, want 200 of each", bs.Restores, bs.RestoreLatency.Count)
	}
	// Background compaction may have reclaimed different segments by now;
	// what the tier holds must not differ.
	if bs.Links != ss.Links || bs.LiveBytes != ss.LiveBytes || bs.Spills != ss.Spills ||
		bs.Restores != ss.Restores || !reflect.DeepEqual(bs.AlgoLinks, ss.AlgoLinks) {
		t.Fatalf("stores diverged:\nbatched %+v\nserial  %+v", bs, ss)
	}
	for _, id := range ids[200:] {
		_, a, aok, _ := batched.Peek(id, nil)
		_, b, bok, _ := serial.Peek(id, nil)
		if !aok || !bok || !bytes.Equal(a, b) {
			t.Fatalf("untouched link %d: batched ok=%v serial ok=%v", id, aok, bok)
		}
	}
}

// TestTakeBatchReadErrorLeavesRecordIndexed: a record that fails its CRC
// answers with an error and stays in the tier; its neighbours in the
// same batch restore normally.
func TestTakeBatchReadErrorLeavesRecordIndexed(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	const w = 16
	for id := uint64(1); id <= 5; id++ {
		putOne(t, s, id, 1, stateFor(id, w))
	}
	// Flip a state byte of link 3 on disk, before anything is cached.
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+2*(recOverhead+w)+recHeaderLen] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got := s.TakeBatch([]uint64{1, 2, 3, 4, 5}, nil, nil)
	for i, g := range got {
		id := uint64(i + 1)
		if id == 3 {
			if g.OK || g.Err == nil {
				t.Fatalf("corrupt link 3: OK=%v Err=%v, want an error", g.OK, g.Err)
			}
			continue
		}
		if !g.OK || g.Err != nil || !bytes.Equal(g.State, stateFor(id, w)) {
			t.Fatalf("link %d beside the corrupt one: OK=%v Err=%v", id, g.OK, g.Err)
		}
	}
	if st := s.Stats(); st.Links != 1 || st.Restores != 4 {
		t.Fatalf("after the batch: %d links, %d restores, want 1 and 4", st.Links, st.Restores)
	}
}

// TestWarmBatchesDoNotAllocate: once its buffers have grown, a spill and
// the restore of the same links touch the heap zero times.
func TestWarmBatchesDoNotAllocate(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	recs := make([]Record, 64)
	ids := make([]uint64, len(recs))
	for i := range recs {
		ids[i] = uint64(i + 1)
		recs[i] = Record{LinkID: ids[i], Algo: 1, State: stateFor(ids[i], 8)}
	}
	var buf []byte
	var out []Taken
	round := func() {
		if err := s.PutBatch(recs); err != nil {
			t.Fatal(err)
		}
		buf, out = s.TakeBatch(ids, buf[:0], out[:0])
		if !out[len(out)-1].OK {
			t.Fatalf("restore failed: %+v", out[len(out)-1])
		}
	}
	round()
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("a warm PutBatch + TakeBatch allocates %v times, want 0", n)
	}
	id := ids[0]
	if n := testing.AllocsPerRun(50, func() {
		if err := s.PutBatch(recs[:1]); err != nil {
			t.Fatal(err)
		}
		_, buf, _, _ = s.Take(id, buf[:0])
	}); n != 0 {
		t.Fatalf("a warm Take allocates %v times, want 0", n)
	}
}

// TestFailedSyncIsTrimmed: a batch whose fsync fails was never committed,
// so its bytes must not outlive it. Left in the log, a shorter batch
// written over their start leaves the rest behind as a run of CRC-valid
// records, and the next recovery indexes links that were never spilled.
func TestFailedSyncIsTrimmed(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.Wrap(faultfs.OS{}, 9, faultfs.Rates{SyncErr: 1})
	inj.Arm(false)
	s, err := Open(Config{Dir: dir, Sync: true, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	const w = 8
	var failed, short []Record
	for id := uint64(1); id <= 8; id++ {
		failed = append(failed, Record{LinkID: id, Algo: 1, State: stateFor(id, w)})
	}
	for id := uint64(101); id <= 103; id++ {
		short = append(short, Record{LinkID: id, Algo: 1, State: stateFor(id, w)})
	}
	inj.Arm(true)
	if err := s.PutBatch(failed); !faultfs.IsInjected(err) {
		t.Fatalf("PutBatch over a failing fsync: err=%v, want the injected fault", err)
	}
	inj.Arm(false)
	if s.Len() != 0 {
		t.Fatalf("a batch that failed its fsync indexed %d links", s.Len())
	}
	if err := s.PutBatch(short); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Config{Sync: true, FS: inj})
	for _, rec := range failed {
		if _, _, ok, _ := r.Peek(rec.LinkID, nil); ok {
			t.Fatalf("link %d of the batch that failed its fsync came back at reopen", rec.LinkID)
		}
	}
	for _, rec := range short {
		peekT(t, r, rec.LinkID, w)
	}
	if st := r.Stats(); st.Links != len(short) || st.TornTails != 0 {
		t.Fatalf("reopened: %d links, %d torn tails, want %d and 0", st.Links, st.TornTails, len(short))
	}
}

// TestSegmentOffsetBound: an index entry carries a 32-bit offset, so Open
// refuses a SegmentBytes it could not address, and a batch that would
// carry the active segment past the bound goes to a fresh segment.
func TestSegmentOffsetBound(t *testing.T) {
	if tooBig := int64(maxSegOffset) + 1; int64(int(tooBig)) == tooBig {
		if s, err := Open(Config{Dir: t.TempDir(), SegmentBytes: int(tooBig)}); err == nil {
			s.Close()
			t.Fatal("Open accepted a SegmentBytes past the 32-bit offset bound")
		}
		s := openT(t, t.TempDir(), Config{SegmentBytes: int(tooBig - 1)})
		putOne(t, s, 1, 1, stateFor(1, 8))
		// Pretend the active segment has grown to just under the bound; the
		// file itself stays small, nothing below reads from it.
		s.mu.Lock()
		s.active.size = maxSegOffset - 10
		s.mu.Unlock()
		putOne(t, s, 2, 1, stateFor(2, 8))
		if st := s.Stats(); st.Segments != 2 {
			t.Fatalf("a batch crossing the offset bound stayed in its segment (%d segments)", st.Segments)
		}
		peekT(t, s, 2, 8)
		s.mu.Lock()
		l := s.index.get(2)
		s.mu.Unlock()
		if l.off() != headerLen {
			t.Fatalf("link 2 indexed at offset %d, want the head of the fresh segment", l.off())
		}
	} else {
		t.Skip("int is 32 bits: SegmentBytes cannot exceed the bound")
	}
}

// TestLiveSegmentLimit: an index entry names its segment by a 16-bit
// slot, so only so many segments can be live at once. At the limit a
// PutBatch that needs a fresh segment fails without touching what is
// stored, and works again once a segment has been reclaimed.
func TestLiveSegmentLimit(t *testing.T) {
	// SegmentBytes 1 seals a segment after every batch.
	s := openT(t, t.TempDir(), Config{SegmentBytes: 1})
	const limit = 4
	s.mu.Lock()
	s.maxSegs = limit
	s.mu.Unlock()
	var stored []uint64
	var err error
	for id := uint64(1); id <= 2*limit; id++ {
		if err = s.PutBatch([]Record{{LinkID: id, Algo: 1, State: stateFor(id, 8)}}); err != nil {
			break
		}
		stored = append(stored, id)
	}
	if err == nil {
		t.Fatalf("%d one-batch segments fit under a limit of %d", len(stored), limit)
	}
	// The empty first segment holds a slot until the background compactor
	// reclaims it, so the limit is met after limit-1 or limit batches.
	if st := s.Stats(); st.Segments > limit || st.Links != len(stored) || len(stored) < limit-1 {
		t.Fatalf("at the limit of %d: %d segments, %d links indexed, %d batches stored", limit, st.Segments, st.Links, len(stored))
	}
	for _, id := range stored {
		peekT(t, s, id, 8)
	}
	// Restoring a link leaves its segment fully dead; reclaiming it frees
	// the slot (the background compactor may already have).
	if _, _, ok, err := s.Take(stored[0], nil); !ok || err != nil {
		t.Fatalf("Take(%d): ok=%v err=%v", stored[0], ok, err)
	}
	if _, err := s.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	putOne(t, s, 100, 1, stateFor(100, 8))
	peekT(t, s, 100, 8)
}

// TestOversizeBatchBufferNotKept: the serialization buffer of an
// unusually large batch — a compaction rewrite, a shutdown SpillAll — is
// released, not pinned for the life of the store.
func TestOversizeBatchBufferNotKept(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	putOne(t, s, 1, 1, stateFor(1, 8))
	if s.batchBuf == nil {
		t.Fatal("an ordinary batch's buffer was not kept for reuse")
	}
	state := make([]byte, 1668)
	big := make([]Record, maxKeptBatchBuf/len(state)+1)
	for i := range big {
		big[i] = Record{LinkID: uint64(100 + i), Algo: 2, State: state}
	}
	if err := s.PutBatch(big); err != nil {
		t.Fatal(err)
	}
	if s.batchBuf != nil {
		t.Fatalf("a %d-byte batch buffer stayed pinned", cap(s.batchBuf))
	}
}
