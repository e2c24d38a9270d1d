// Package coldstore is the link store's cold tier: an append-only
// segment log of encoded per-link controller states with a compact
// in-memory index, on disk or, for a store given no directory, over an
// in-memory file system (faultfs.Mem). It exists so that the link tables
// track the *hot* link population instead of the total one — on disk, at
// 10M+ links, the RAM cost of an idle link drops from its full archived
// state (up to ~1.7 KB for SampleRate) to one 16-byte entry of a flat
// index table: about 23 bytes per link at any population.
//
// Design, in the spirit of every log-structured store:
//
//   - Writes are batched appends. The link store evicts links in
//     generations, and one generation becomes one PutBatch: every record
//     is serialized into a single buffer and committed with one write
//     syscall (group commit). Records are CRC-framed — [width u16,
//     algo u8, linkID u64, state, crc32 over all of it] — so a torn
//     tail is detectable. appendRecord is the frame's one writer and
//     decodeRecord (with intact, its CRC check) its one reader, for
//     recovery, restores and compaction alike.
//   - The index (index.go) maps linkID u64 to [segment slot u16, offset
//     u32, state width u16]. It carries the record's length, so a read is
//     exact and superseding or restoring a record needs no I/O to account
//     its bytes dead. It is 64 partitions, each an idtable.Table (the
//     link-ID table linkstore's shards use too) grown one at a time, so
//     no insert rehashes the whole index. The hash is keyed per process:
//     link IDs come off the wire, and nobody outside can aim them at one
//     slot.
//   - Reads go through a small read-through cache of aligned segment
//     blocks (blockcache.go). Append-only segments make it coherent
//     without invalidation: committed bytes never change, the growing
//     tail is tracked by a per-block valid length, failed reads are not
//     cached, and a deleted segment's blocks go with it. The cache fills
//     only through Config.FS, so a fault injector still sees every byte.
//   - Restores are batched. TakeBatch resolves any number of links under
//     one lock acquisition: every index probe first, then the reads in
//     segment/offset order, each CRC-checked before its state is handed
//     back. A restored link's record becomes dead — the hot store owns
//     the state again. Take is TakeBatch of one.
//   - Segments rotate at a size threshold. Superseded and restored
//     records make a segment's dead ratio grow; a background compactor
//     rewrites any segment past Config.CompactRatio by re-appending its
//     live records and deleting the file, so disk usage tracks the live
//     population. It rewrites a segment 256 KiB at a time and releases
//     the lock in between, so restores and spills never wait for a whole
//     segment. It re-appends only records whose CRC it has checked: a
//     live record that fails it fails the slice as a read fault does, and
//     stays indexed for Take to report. It is woken when a record dies or
//     a segment is sealed, and by its own timer after a compaction that
//     failed.
//   - Recovery is a function (recover.go) from a file system and a
//     directory to the segment table, the index, the per-algorithm counts
//     and the torn-tail count, with no Store, lock or goroutine; Open
//     builds the store from its result and then starts the compactor on
//     any segment worth it. It reads every segment in ID order (later
//     segments supersede earlier ones, later offsets supersede earlier
//     ones); the first CRC or framing failure in a segment is treated as
//     a torn tail and truncated away, so a crash mid-commit recovers
//     every fully-written record and never fabricates one. Take deletes
//     only the index entry, so a link taken back into RAM and then lost
//     to a crash resurrects at reopen with its spill-time state —
//     best-available semantics; a clean shutdown (linkstore.SpillAll)
//     supersedes every such record first, making restart exact.
//
// The store never decodes controller state — bytes in are bytes out,
// which is what keeps decisions byte-identical across evict → spill →
// restore (linkstore's tests check restored links against bare
// controllers across this tier).
//
// log.go holds the Store, the frame and the put, take and rotation paths;
// recover.go recovery, compact.go the compactor and stats.go Stats.
package coldstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"softrate/internal/bitutil"
	"softrate/internal/faultfs"
	"softrate/internal/obs"
)

const (
	// segMagic/segVersion head every segment file.
	segMagic   = 0x53524353 // "SRCS"
	segVersion = 1
	headerLen  = 8

	// recHeaderLen is [width u16][algo u8][linkID u64]; recOverhead adds
	// the trailing CRC32.
	recHeaderLen = 2 + 1 + 8
	recOverhead  = recHeaderLen + 4

	// maxStateLen bounds a record's state width to what the frame's u16
	// width field can say (the widest registered state is SampleRate's
	// ~1.7 KB).
	maxStateLen = 1<<16 - 1

	// maxKeptBatchBuf is the largest PutBatch serialization buffer kept
	// for reuse.
	maxKeptBatchBuf = 1 << 20

	// compactRetry is how long the background compactor waits before it
	// tries again after a failed compaction.
	compactRetry = time.Second

	// compactSlice is how much of a victim segment one step of a
	// compaction reads and rewrites under s.mu. The lock is released
	// between steps, so a restore or spill waits for one slice — a few
	// milliseconds at most — where a whole half-live 64 MiB segment held
	// it for most of a second (BenchmarkCompactOnce). It exceeds the
	// largest record, so every slice makes progress.
	compactSlice = 256 << 10

	// DefaultSegmentBytes is the rotation threshold when
	// Config.SegmentBytes is zero.
	DefaultSegmentBytes = 64 << 20
	// DefaultCompactRatio is the dead-byte ratio past which a segment is
	// rewritten, when Config.CompactRatio is zero.
	DefaultCompactRatio = 0.5
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the segment directory (created if absent).
	Dir string
	// SegmentBytes is the size at which the active segment is rotated.
	// A batch is never split across segments, so a segment may exceed
	// this by up to one batch — but never 4 GiB, the largest offset an
	// index entry can carry; Open rejects a larger value. 0 means
	// DefaultSegmentBytes.
	SegmentBytes int
	// CompactRatio is the dead/total byte ratio past which a sealed
	// segment is compacted, in (0, 1]; 1 rewrites only fully-dead
	// segments (which are always reclaimed). 0 means
	// DefaultCompactRatio; Open rejects NaN.
	CompactRatio float64
	// Sync fsyncs after every committed batch. Off by default: the tier
	// targets crash-*restart* recovery (process death), not power-loss
	// durability, and the TTL-eviction write path should not pay an
	// fsync per generation.
	Sync bool
	// FS is the filesystem the tier runs on. Nil means the real one
	// (faultfs.OS); chaos runs pass a faultfs.Injector here, and a link
	// store with no directory a faultfs.Mem.
	FS faultfs.FS
}

// Record is one link's encoded state handed to PutBatch. State is only
// read during the call.
type Record struct {
	LinkID uint64
	Algo   uint8
	State  []byte
}

// segment is one on-disk log file.
type segment struct {
	id        uint32       // names the file; never reused
	slot      uint16       // position in tables.segs, what index entries carry
	f         faultfs.File // no *os.File fast path: Config.FS sees every read, write and sync
	size      int64        // committed bytes, including the header
	liveBytes int64        // record bytes still referenced by the index
	deadBytes int64        // record bytes superseded or restored
	liveRecs  int64
	deadRecs  int64
}

func (sg *segment) deadRatio() float64 {
	total := sg.liveBytes + sg.deadBytes
	if total == 0 {
		return 0
	}
	return float64(sg.deadBytes) / float64(total)
}

// tables is what the tier knows of its segments: the segment table, the
// index over it, the per-algorithm link counts and the torn tails cut.
// Recovery (recover.go) builds it from the segment files with no Store
// around it; a Store keeps it under s.mu.
type tables struct {
	// segs holds the live segments by slot (nil = free slot). Index
	// entries name a segment by slot, not by ID: IDs grow for the life of
	// the directory, slots are reused, so 16 bits bound the segments live
	// at once rather than the segments ever written.
	segs      []*segment
	freeSlots []uint16
	maxSegs   int      // maxSegSlots; a field so a test can reach the limit
	active    *segment // the segment appends go to
	nextSeg   uint32   // the ID of the next segment created
	// index is all an idle link keeps in RAM — the whole point of the
	// tier.
	index index
	// perAlgo counts live indexed links per algorithm ID.
	perAlgo   [256]int64
	tornTails uint64
}

// Store is the disk-backed cold tier.
type Store struct {
	cfg Config

	mu sync.Mutex
	tables
	// links is index.len(), stored under s.mu after every change so Len
	// can read it without the lock: a link store asks it on every miss.
	links atomic.Int64
	cache blockCache

	batchBuf []byte    // PutBatch serialization buffer, reused
	readBuf  []byte    // direct-read buffer for block-straddling records, reused
	takeRefs []takeRef // TakeBatch probe results, reused

	// compactMu makes compactions take turns: one runs in slices, letting
	// go of s.mu between them, and its victim must not be picked again
	// meanwhile. betweenSlices, set only by tests, runs after each slice
	// with s.mu released.
	compactMu     sync.Mutex
	betweenSlices func()

	spills          uint64
	restores        uint64
	compactions     uint64
	compactFailures uint64
	// restoreLat is allocated by the first restore: its stripes are most of
	// an empty store's footprint, and a tier that is never read from (a
	// store whose links never idle out) should not carry them.
	restoreLat *obs.Latency

	// The compactor goroutine runs only while there may be a segment to
	// reclaim: a kick starts it and it exits once a pass finds nothing, so
	// an idle tier — such as the in-memory one a link store opens for
	// itself and never closes — holds none. kicked is a kick it has not
	// yet acted on; wake carries a kick to a compactor waiting out a
	// failed pass.
	compacting bool
	kicked     bool
	wake       chan struct{}
	stopCh     chan struct{}
	done       sync.WaitGroup
	closed     bool
}

func segName(id uint32) string             { return fmt.Sprintf("seg-%08d.slog", id) }
func segPath(dir string, id uint32) string { return filepath.Join(dir, segName(id)) }

// Open creates or recovers a Store in cfg.Dir. Recovery (recover.go)
// rebuilds the segment table and the index from the segments already
// there; the store is built from its result, and every segment it found
// worth compacting starts the compactor.
func Open(cfg Config) (*Store, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if int64(cfg.SegmentBytes) > maxSegOffset {
		return nil, fmt.Errorf("coldstore: SegmentBytes %d is beyond the %d-byte offset an index entry carries", cfg.SegmentBytes, int64(maxSegOffset))
	}
	if math.IsNaN(cfg.CompactRatio) { // NaN passes both bounds below
		return nil, fmt.Errorf("coldstore: CompactRatio is NaN")
	}
	if cfg.CompactRatio <= 0 {
		cfg.CompactRatio = DefaultCompactRatio
	}
	cfg.CompactRatio = min(cfg.CompactRatio, 1)
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, err
	}
	t, err := recoverDir(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:    cfg,
		tables: t,
		wake:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	if s.active == nil {
		if err := s.rotateLocked(); err != nil { // an empty directory starts at segment 0
			return nil, err
		}
	}
	s.links.Store(int64(s.index.len()))
	// The first kick starts the compactor, which takes s.mu and may remove
	// segments, so the check holds the lock.
	s.mu.Lock()
	for _, sg := range s.segs {
		s.kickIfCompactable(sg)
	}
	s.mu.Unlock()
	return s, nil
}

// addSegment gives sg a slot in t.segs.
func (t *tables) addSegment(sg *segment) error {
	if n := len(t.freeSlots); n > 0 {
		sg.slot = t.freeSlots[n-1]
		t.freeSlots = t.freeSlots[:n-1]
		t.segs[sg.slot] = sg
	} else if len(t.segs) < t.maxSegs {
		sg.slot = uint16(len(t.segs))
		t.segs = append(t.segs, sg)
	} else {
		return fmt.Errorf("coldstore: %d segments are live, the most the index can name", t.maxSegs)
	}
	return nil
}

// removeSegment closes and deletes a segment that no index entry points
// into, and releases its slot and cached blocks.
func (s *Store) removeSegment(sg *segment) error {
	sg.f.Close()
	if err := s.cfg.FS.Remove(segPath(s.cfg.Dir, sg.id)); err != nil {
		return err
	}
	s.cache.drop(sg)
	s.segs[sg.slot] = nil
	s.freeSlots = append(s.freeSlots, sg.slot)
	return nil
}

func writeHeader(sg *segment) error {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	if _, err := sg.f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if err := sg.f.Truncate(headerLen); err != nil {
		return err
	}
	sg.size = headerLen
	return nil
}

// place points the index at a freshly scanned or written record of state
// width w at off in sg and counts its bytes live. A record it supersedes
// is counted dead, and its segment, whose standing that changed, is
// returned; nil if none.
func (t *tables) place(id uint64, algo uint8, sg *segment, off int64, w int) (superseded *segment) {
	if old := t.index.put(id, makeLoc(sg.slot, off, w)); old != 0 {
		superseded = t.kill(old)
	} else {
		t.perAlgo[algo]++
	}
	sg.liveBytes += int64(recOverhead + w)
	sg.liveRecs++
	return superseded
}

// kill moves the record at l from live to dead accounting and returns its
// segment.
func (t *tables) kill(l loc) *segment {
	sg := t.segs[l.slot()]
	n := int64(l.recLen())
	sg.liveBytes -= n
	sg.deadBytes += n
	sg.liveRecs--
	sg.deadRecs++
	return sg
}

// rotateLocked seals the active segment and starts a new one.
func (s *Store) rotateLocked() error {
	id := s.nextSeg
	f, err := s.cfg.FS.Create(segPath(s.cfg.Dir, id))
	if err != nil {
		return err
	}
	sg := &segment{id: id, f: f}
	err = writeHeader(sg)
	if err == nil {
		err = s.addSegment(sg)
	}
	if err != nil {
		f.Close()
		s.cfg.FS.Remove(segPath(s.cfg.Dir, id))
		return err
	}
	s.nextSeg++
	sealed := s.active
	s.active = sg
	if sealed != nil {
		s.kickIfCompactable(sealed)
	}
	return nil
}

// appendRecord serializes one record into buf.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(r.State)))
	hdr[2] = r.Algo
	binary.LittleEndian.PutUint64(hdr[3:11], r.LinkID)
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.State...)
	crc := bitutil.CRC32(buf[start:])
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// decodeRecord parses the frame at the head of b: the one reader of what
// appendRecord writes. n is the frame's length as its width field says (at
// least recOverhead). If all n bytes are in b, r is the record, its State
// a view of b, and intact(b[:n]) says whether its CRC holds.
func decodeRecord(b []byte) (r Record, n int) {
	if len(b) < recOverhead {
		return r, recOverhead
	}
	w := int(binary.LittleEndian.Uint16(b[0:2]))
	if n = recOverhead + w; len(b) >= n {
		r = Record{LinkID: binary.LittleEndian.Uint64(b[3:11]), Algo: b[2], State: b[recHeaderLen : recHeaderLen+w]}
	}
	return r, n
}

// intact reports whether a whole frame's CRC holds.
func intact(frame []byte) bool {
	n := len(frame) - 4
	return bitutil.CRC32(frame[:n]) == binary.LittleEndian.Uint32(frame[n:])
}

// PutBatch group-commits a batch of encoded states: one serialization
// pass, one write syscall, then the index is updated. A link already in
// the tier is superseded (its old record becomes dead). Records' State
// slices are not retained.
func (s *Store) PutBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("coldstore: store is closed")
	}
	buf, err := s.putLocked(recs, s.batchBuf)
	// Keep the buffer for the next batch unless this one was unusually
	// large (a shutdown SpillAll): an eviction generation is kilobytes, and
	// a segment's worth of live records should not stay pinned behind it.
	if s.batchBuf = buf; cap(buf) > maxKeptBatchBuf {
		s.batchBuf = nil
	}
	if err != nil {
		return err
	}
	s.spills += uint64(len(recs))
	return nil
}

// putLocked appends recs to the active segment as one write, serialized
// into buf, and indexes them. It returns buf emptied, for reuse.
func (s *Store) putLocked(recs []Record, buf []byte) ([]byte, error) {
	buf = buf[:0]
	batchLen := int64(0)
	for _, r := range recs {
		if len(r.State) > maxStateLen {
			return buf, fmt.Errorf("coldstore: link %d state is %d bytes, beyond the %d-byte record bound", r.LinkID, len(r.State), maxStateLen)
		}
		batchLen += int64(recOverhead + len(r.State))
	}
	if headerLen+batchLen > maxSegOffset {
		return buf, fmt.Errorf("coldstore: a %d-byte batch cannot fit one segment", batchLen)
	}
	// Rotate at the size threshold, and before a batch that would carry
	// the segment past the largest offset an index entry can name.
	if s.active.size >= int64(s.cfg.SegmentBytes) || s.active.size+batchLen > maxSegOffset {
		if err := s.rotateLocked(); err != nil {
			return buf, err
		}
	}
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	sg := s.active
	if _, err := sg.f.WriteAt(buf, sg.size); err != nil {
		// A partial append is exactly the torn-tail shape recovery
		// handles; trim it now so the in-process store stays coherent.
		sg.f.Truncate(sg.size)
		return buf[:0], err
	}
	if s.cfg.Sync {
		if err := sg.f.Sync(); err != nil {
			// The bytes landed but were never committed. Left in place, a
			// shorter batch written over their start would leave the rest
			// behind as a run of CRC-valid records for recovery to
			// resurrect; trim them like a failed write.
			sg.f.Truncate(sg.size)
			return buf[:0], err
		}
	}
	off := sg.size
	sg.size += int64(len(buf))
	for _, r := range recs {
		s.kickIfCompactable(s.place(r.LinkID, r.Algo, sg, off, len(r.State)))
		off += int64(recOverhead + len(r.State))
	}
	s.links.Store(int64(s.index.len()))
	return buf[:0], nil
}

// readRecord fetches and validates the record for id at l. Returns the
// algo and a view of the state inside the block cache or s.readBuf
// (valid until the next call; caller holds s.mu).
func (s *Store) readRecord(id uint64, l loc) (uint8, []byte, error) {
	sg := s.segs[l.slot()]
	if l.off()+int64(l.recLen()) > sg.size {
		return 0, nil, fmt.Errorf("coldstore: link %d record overruns its segment", id)
	}
	b, err := s.cache.read(sg, l.off(), l.recLen(), &s.readBuf)
	if err != nil {
		return 0, nil, err
	}
	switch r, n := decodeRecord(b); {
	case n != len(b):
		return 0, nil, fmt.Errorf("coldstore: link %d record is not the width its index entry says", id)
	case r.LinkID != id:
		return 0, nil, fmt.Errorf("coldstore: index for link %d points at link %d", id, r.LinkID)
	case !intact(b):
		return 0, nil, fmt.Errorf("coldstore: link %d record failed its CRC", id)
	default:
		return r.Algo, r.State, nil
	}
}

// Taken is TakeBatch's answer for one link.
type Taken struct {
	// State is the link's encoded state, a slice of the buffer TakeBatch
	// returned; set only when OK.
	State []byte
	Algo  uint8
	// OK reports the link was in the tier and is now restored. It is
	// false, with a nil Err, for a link the tier does not hold.
	OK bool
	// Err is why a link the tier does hold could not be read back; its
	// record stays indexed.
	Err error
}

// clockBase anchors TakeBatch's timing: time.Since of a fixed instant is
// one monotonic clock read, where time.Now also reads the wall clock —
// 28 ns of a 207 ns Take, and a shard visit restores only a link or two
// per call.
var clockBase = time.Now()

// takeRef is one index hit of a TakeBatch: where the record is and which
// of the batch's ids asked for it.
type takeRef struct {
	loc loc
	pos int32
}

// TakeBatch restores ids[i] into out[i] for every i, exactly as
// len(ids) calls of Take in order would — a link named twice is restored
// to its first mention and absent for the second — but under one lock
// acquisition, with every index probe issued before the first read and
// the reads made in segment/offset order. States are appended to dst;
// results to out. Both are returned.
func (s *Store) TakeBatch(ids []uint64, dst []byte, out []Taken) ([]byte, []Taken) {
	t0 := time.Since(clockBase)
	base := len(out)
	s.mu.Lock()
	refs := s.takeRefs[:0]
	stateBytes := 0
	for i, id := range ids {
		out = append(out, Taken{})
		if l := s.index.get(id); l != 0 {
			refs = append(refs, takeRef{loc: l, pos: int32(i)})
			stateBytes += l.width()
		}
	}
	slices.SortFunc(refs, func(a, b takeRef) int {
		return cmp.Or(cmp.Compare(a.loc, b.loc), cmp.Compare(a.pos, b.pos))
	})
	// One growth up front: the State slices handed out below must not be
	// left behind by a later append.
	dst = slices.Grow(dst, stateBytes)
	var restored uint64
	var taken loc // the last record restored; a repeat of it is a duplicate id
	for _, r := range refs {
		if r.loc == taken {
			continue
		}
		id := ids[r.pos]
		t := &out[base+int(r.pos)]
		algo, state, err := s.readRecord(id, r.loc)
		if err != nil {
			t.Err = err
			continue
		}
		at := len(dst)
		dst = append(dst, state...)
		*t = Taken{State: dst[at:len(dst):len(dst)], Algo: algo, OK: true}
		s.index.del(id)
		s.perAlgo[algo]--
		s.kickIfCompactable(s.kill(r.loc))
		taken = r.loc
		restored++
	}
	s.takeRefs = refs[:0]
	s.restores += restored
	s.links.Store(int64(s.index.len()))
	if restored > 0 && s.restoreLat == nil {
		s.restoreLat = new(obs.Latency)
	}
	lat := s.restoreLat
	s.mu.Unlock()
	if restored > 0 {
		// One clock pair for the batch, recorded as each restored link's
		// share, so RestoreLatency.Count stays equal to Restores.
		lat.ObserveN((time.Since(clockBase)-t0)/time.Duration(restored), restored)
	}
	return dst, out
}

// Take restores one link — TakeBatch of one: a cached or single read,
// CRC validation, and removal from the index (the caller owns the state
// again; the record becomes dead). The state is appended to dst. ok is
// false when the link is not in the tier.
func (s *Store) Take(id uint64, dst []byte) (algo uint8, state []byte, ok bool, err error) {
	ids := [1]uint64{id}
	var out [1]Taken
	dst, res := s.TakeBatch(ids[:], dst, out[:0])
	if !res[0].OK {
		return 0, nil, false, res[0].Err
	}
	return res[0].Algo, dst, true, nil
}

// Peek reads a link's state without removing it (the link store's Peek
// surface). The state is appended to dst.
func (s *Store) Peek(id uint64, dst []byte) (algo uint8, state []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.index.get(id)
	if l == 0 {
		return 0, nil, false, nil
	}
	a, view, err := s.readRecord(id, l)
	if err != nil {
		return 0, nil, false, err
	}
	return a, append(dst, view...), true, nil
}

// Len returns the number of links in the tier.
func (s *Store) Len() int { return int(s.links.Load()) }

// Close stops the compactor and closes every segment file. The store is
// unusable afterwards; reopen with Open.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.done.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, sg := range s.segs {
		if sg == nil {
			continue
		}
		if s.cfg.Sync {
			err = cmp.Or(err, sg.f.Sync())
		}
		err = cmp.Or(err, sg.f.Close()) // the first error is the one returned
	}
	return err
}
