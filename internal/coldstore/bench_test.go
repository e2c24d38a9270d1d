package coldstore

import (
	"math/rand"
	"testing"
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
		if _, ok := ix.get(id); !ok {
			b.Fatal("lost a link")
		}
		if _, ok := ix.get(id + 1); ok {
			b.Fatal("found a link never put")
		}
		ix.del(id - resident/2)
	}
}
