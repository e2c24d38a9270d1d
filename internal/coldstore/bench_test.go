package coldstore

import (
	"math/rand"
	"testing"
	"time"
)

const benchBatch = 4096

func benchRecords(base uint64, state []byte, recs []Record) {
	for i := range recs {
		recs[i] = Record{LinkID: base + uint64(i), Algo: 1, State: state}
	}
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkPutBatch group-commits 4096 never-seen SoftRate-width links
// per batch: serialization, one write, and an index insert each.
func BenchmarkPutBatch(b *testing.B) {
	s := benchStore(b)
	recs := make([]Record, benchBatch)
	state := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += benchBatch {
		benchRecords(uint64(n), state, recs)
		if err := s.PutBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTakeBatch restores b.N links 128 to a call, in the order they
// were spilled (the shape of links idling out and returning in arrival
// order) or shuffled across the whole log.
func benchTakeBatch(b *testing.B, shuffled bool) {
	s := benchStore(b)
	recs := make([]Record, benchBatch)
	state := make([]byte, 8)
	total := (b.N + benchBatch - 1) / benchBatch * benchBatch
	for n := 0; n < total; n += benchBatch {
		benchRecords(uint64(n), state, recs)
		if err := s.PutBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
	ids := make([]uint64, total)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if shuffled {
		rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	var buf []byte
	var out []Taken
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += 128 {
		buf, out = s.TakeBatch(ids[n:min(n+128, b.N)], buf[:0], out[:0])
		if !out[0].OK {
			b.Fatalf("link %d: %+v", ids[n], out[0])
		}
	}
}

func BenchmarkTakeBatch(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchTakeBatch(b, false) })
	b.Run("random", func(b *testing.B) { benchTakeBatch(b, true) })
}

// BenchmarkCompactOnce compacts one half-dead segment of the default
// 64 MiB, SoftRate-width records, and reports the compaction's length and
// the longest stretch it held the store's lock: the gap between two
// slices, lock re-acquisition included. The background compactor, woken
// by the restore that takes the segment to half dead, does the work.
func BenchmarkCompactOnce(b *testing.B) {
	var total, longest time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchStore(b)
		recs := make([]Record, benchBatch)
		state := make([]byte, 8)
		n := 0
		for s.Stats().Segments < 2 {
			benchRecords(uint64(n), state, recs)
			if err := s.PutBatch(recs); err != nil {
				b.Fatal(err)
			}
			n += benchBatch
		}
		s.mu.Lock()
		victim := int((s.segs[0].size - headerLen) / (recOverhead + 8))
		var last time.Time
		s.betweenSlices = func() {
			longest = max(longest, time.Since(last))
			last = time.Now()
		}
		s.mu.Unlock()
		ids := make([]uint64, 0, victim/2)
		for id := 0; id < victim; id += 2 {
			ids = append(ids, uint64(id))
		}
		var buf []byte
		var out []Taken
		for k := 0; k < len(ids); k += 128 {
			if k+128 >= len(ids) {
				b.StartTimer()
				s.mu.Lock()
				last = time.Now()
				s.mu.Unlock()
			}
			buf, out = s.TakeBatch(ids[k:min(k+128, len(ids))], buf[:0], out[:0])
		}
		t0 := time.Now()
		for s.Stats().Compactions == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		total += time.Since(t0)
		s.Close()
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms/compaction")
	b.ReportMetric(float64(longest.Microseconds())/1e3, "max-hold-ms")
}

// BenchmarkIndexGetPutDel is one insert, one hit, one miss and one delete
// per op against an index holding a million links.
func BenchmarkIndexGetPutDel(b *testing.B) {
	const resident = 1 << 20
	var ix index
	for id := uint64(0); id < resident; id++ {
		ix.put(id, makeLoc(0, int64(headerLen+id), 8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		id := resident + uint64(n)
		ix.put(id, makeLoc(1, headerLen, 8))
		if ix.get(id) == 0 {
			b.Fatal("lost a link")
		}
		if ix.get(id+1) != 0 {
			b.Fatal("found a link never put")
		}
		ix.del(id - resident/2)
	}
}
