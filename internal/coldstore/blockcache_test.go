package coldstore

import (
	"bytes"
	"sync"
	"testing"

	"softrate/internal/faultfs"
)

// readLogFS is the real filesystem with every ReadAt logged.
type readLogFS struct {
	faultfs.OS
	mu    sync.Mutex
	reads []readAtCall
}

type readAtCall struct {
	off int64
	n   int
}

type readLogFile struct {
	faultfs.File
	fs *readLogFS
}

func (f readLogFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads = append(f.fs.reads, readAtCall{off, len(p)})
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

func (fs *readLogFS) Create(path string) (faultfs.File, error) {
	f, err := fs.OS.Create(path)
	if err != nil {
		return nil, err
	}
	return readLogFile{f, fs}, nil
}

// take returns the reads logged since the last call.
func (fs *readLogFS) take() []readAtCall {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := fs.reads
	fs.reads = nil
	return out
}

func peekT(t *testing.T, s *Store, id uint64, w int) {
	t.Helper()
	_, st, ok, err := s.Peek(id, nil)
	if err != nil || !ok || !bytes.Equal(st, stateFor(id, w)) {
		t.Fatalf("Peek(%d): ok=%v err=%v state=%x", id, ok, err, st)
	}
}

// TestBlockCacheActiveTailGrowth: a block of the active segment is
// fetched up to the committed size; when the segment grows, a read past
// the cached part fetches only the new suffix, and everything already
// fetched is served without touching the file.
func TestBlockCacheActiveTailGrowth(t *testing.T) {
	fs := &readLogFS{}
	s := openT(t, t.TempDir(), Config{FS: fs})
	const w, rec = 8, recOverhead + 8
	for id := uint64(1); id <= 10; id++ {
		putOne(t, s, id, 1, stateFor(id, w))
	}
	fs.take()

	peekT(t, s, 3, w)
	if got := fs.take(); len(got) != 1 || got[0] != (readAtCall{0, headerLen + 10*rec}) {
		t.Fatalf("first read of the block read %v, want the block as far as it is committed", got)
	}
	for id := uint64(1); id <= 10; id++ {
		peekT(t, s, id, w)
	}
	if got := fs.take(); len(got) != 0 {
		t.Fatalf("cached records read the file again: %v", got)
	}

	for id := uint64(11); id <= 15; id++ {
		putOne(t, s, id, 1, stateFor(id, w))
	}
	peekT(t, s, 14, w)
	if got := fs.take(); len(got) != 1 || got[0] != (readAtCall{headerLen + 10*rec, 5 * rec}) {
		t.Fatalf("tail growth read %v, want only the appended suffix", got)
	}
	for id := uint64(1); id <= 15; id++ {
		peekT(t, s, id, w)
	}
	if got := fs.take(); len(got) != 0 {
		t.Fatalf("cached records read the file again: %v", got)
	}
}

// TestBlockCacheDropsCompactedSegment: compaction deletes a segment whose
// blocks are cached; the frames go with it, and the survivors read back
// from where compaction put them.
func TestBlockCacheDropsCompactedSegment(t *testing.T) {
	s := openT(t, t.TempDir(), Config{SegmentBytes: 1 << 10, CompactRatio: 0.5})
	const w, n = 32, 40
	for id := uint64(1); id <= n; id++ {
		putOne(t, s, id, 1, stateFor(id, w))
	}
	for id := uint64(1); id <= n; id++ { // every block is cached
		peekT(t, s, id, w)
	}
	s.mu.Lock()
	doomed := s.segs[0]
	s.mu.Unlock()
	for id := uint64(1); id <= n; id += 2 {
		if _, _, ok, err := s.Take(id, nil); !ok || err != nil {
			t.Fatalf("Take(%d): ok=%v err=%v", id, ok, err)
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
	s.mu.Lock()
	for i := range s.cache.frames {
		if s.cache.frames[i].sg == doomed {
			t.Errorf("frame %d still holds a block of the deleted segment", i)
		}
	}
	s.mu.Unlock()
	for id := uint64(2); id <= n; id += 2 {
		peekT(t, s, id, w)
	}
}

// TestBlockCacheStraddlingRecord: a record that crosses a block boundary
// is never cached; it is read directly at its exact length every time.
func TestBlockCacheStraddlingRecord(t *testing.T) {
	fs := &readLogFS{}
	s := openT(t, t.TempDir(), Config{FS: fs})
	const w, rec = 1668, recOverhead + 1668
	var batch []Record
	for id := uint64(1); id <= 12; id++ {
		batch = append(batch, Record{LinkID: id, Algo: 2, State: stateFor(id, w)})
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	straddler := uint64(0)
	for i := 0; i < len(batch); i++ {
		if off := headerLen + i*rec; off>>blockShift != (off+rec-1)>>blockShift {
			straddler = batch[i].LinkID
		}
	}
	if straddler == 0 {
		t.Fatal("no record straddles a block boundary; resize the batch")
	}
	fs.take()
	for round := 0; round < 3; round++ {
		for id := uint64(1); id <= 12; id++ {
			peekT(t, s, id, w)
		}
	}
	direct := 0
	wantOff := int64(headerLen) + int64(straddler-1)*rec
	for _, r := range fs.take() {
		if r == (readAtCall{wantOff, rec}) {
			direct++
		}
	}
	if direct != 3 {
		t.Fatalf("the straddling record was read directly %d times in 3 rounds, want 3", direct)
	}
}

// TestBlockCacheReadErrorNotCached: a failed block fetch, or a failed
// fetch of a grown tail, returns the error and caches nothing — the same
// read succeeds once the disk heals — and does not disturb what the
// frame already held, which keeps being served without touching the
// (still faulty) disk.
func TestBlockCacheReadErrorNotCached(t *testing.T) {
	inj := faultfs.Wrap(faultfs.OS{}, 3, faultfs.Rates{ReadErr: 1})
	inj.Arm(false)
	s := openT(t, t.TempDir(), Config{FS: inj})
	const w = 8
	for id := uint64(1); id <= 10; id++ {
		putOne(t, s, id, 1, stateFor(id, w))
	}

	inj.Arm(true)
	if _, _, _, err := s.Peek(2, nil); !faultfs.IsInjected(err) {
		t.Fatalf("Peek over a faulty disk: err=%v, want the injected fault", err)
	}
	inj.Arm(false)
	for id := uint64(1); id <= 10; id++ {
		peekT(t, s, id, w) // fetches the block now
	}

	for id := uint64(11); id <= 15; id++ {
		putOne(t, s, id, 1, stateFor(id, w))
	}
	inj.Arm(true)
	if _, _, _, err := s.Peek(12, nil); !faultfs.IsInjected(err) {
		t.Fatalf("Peek of the grown tail over a faulty disk: err=%v, want the injected fault", err)
	}
	for id := uint64(1); id <= 10; id++ {
		peekT(t, s, id, w) // cached before the fault: no read, so no fault
	}
	inj.Arm(false)
	for id := uint64(1); id <= 15; id++ {
		peekT(t, s, id, w)
	}
}
