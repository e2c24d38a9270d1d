package coldstore

import (
	"math/rand"
	"testing"

	"softrate/internal/idtable"
)

// checkIndex verifies ix holds exactly want: that each made partition
// holds just the links that belong in it, each once and with its model
// location, that the counts agree, and that every link is found. The
// layout lookups rely on is idtable's to check.
func checkIndex(t *testing.T, ix *index, want map[uint64]uint64) {
	t.Helper()
	if ix.len() != len(want) {
		t.Fatalf("index holds %d links, model %d", ix.len(), len(want))
	}
	seen := 0
	for k := range ix.parts {
		p := &ix.parts[k]
		if ix.made&(1<<k) == 0 {
			if p.Len() != 0 {
				t.Fatalf("partition %d holds %d links, never made", k, p.Len())
			}
			continue
		}
		used := 0
		p.Walk(func(i int, id uint64, l *loc) bool {
			used++
			if got, ok := want[id]; !ok || loc(got) != *l {
				t.Fatalf("partition %d slot %d: link %d → %#x, model has %#x (present %v)", k, i, id, *l, got, ok)
			}
			if pk, _ := part(id); pk != k {
				t.Fatalf("link %d sits in partition %d, belongs in %d", id, k, pk)
			}
			return false
		})
		if used != p.Len() {
			t.Fatalf("partition %d: %d entries, Len says %d", k, used, p.Len())
		}
		seen += used
	}
	if seen != len(want) {
		t.Fatalf("partitions hold %d entries, model %d", seen, len(want))
	}
	for id, l := range want {
		if got := ix.get(id); got != loc(l) {
			t.Fatalf("get(%d) = %#x; model has %#x", id, got, l)
		}
	}
}

// slotRange returns the lowest and highest slots partition k holds links
// in.
func slotRange(ix *index, k int) (lo, hi int) {
	lo, hi = -1, -1
	ix.parts[k].Walk(func(i int, _ uint64, _ *loc) bool {
		if lo < 0 {
			lo = i
		}
		hi = i
		return false
	})
	return lo, hi
}

// TestIndexAgainstMap drives the flat index and a Go map with the same
// seeded stream of inserts, supersedes, deletes and misses — the
// population swelling and draining so partitions grow under it — and
// compares every answer, and the whole content at checkpoints.
func TestIndexAgainstMap(t *testing.T) {
	steps := 1 << 20
	if testing.Short() {
		steps = 1 << 17
	}
	rng := rand.New(rand.NewSource(20090817))
	var ix index
	model := make(map[uint64]uint64)
	var ids []uint64                                        // every id ever put; deletes and supersedes draw from it
	newLoc := func() uint64 { return rng.Uint64() | 1<<16 } // never the empty loc
	for step := 0; step < steps; step++ {
		// Phases of 1<<16 steps alternate between mostly-insert and
		// mostly-delete.
		growing := step>>16&1 == 0
		switch r := rng.Intn(10); {
		case r < 2 && len(ids) > 0: // supersede, or re-put a deleted link
			id, l := ids[rng.Intn(len(ids))], newLoc()
			if old := ix.put(id, loc(l)); old != loc(model[id]) {
				t.Fatalf("step %d: put(%d) replaced %#x; model had %#x", step, id, old, model[id])
			}
			model[id] = l
		case r < 3: // miss
			id := rng.Uint64()
			if _, ok := model[id]; !ok {
				if l := ix.get(id); l != 0 {
					t.Fatalf("step %d: get(%d) found %#x, never put", step, id, l)
				}
				if l := ix.del(id); l != 0 {
					t.Fatalf("step %d: del(%d) removed %#x, never put", step, id, l)
				}
			}
		case (r < 8) == growing || len(ids) == 0: // insert
			id, l := rng.Uint64()>>rng.Intn(64), newLoc() // small and large ids alike
			if old := ix.put(id, loc(l)); old != loc(model[id]) {
				t.Fatalf("step %d: put(%d) replaced %#x; model had %#x", step, id, old, model[id])
			}
			model[id] = l
			ids = append(ids, id)
		default: // delete
			id := ids[rng.Intn(len(ids))]
			if old := ix.del(id); old != loc(model[id]) {
				t.Fatalf("step %d: del(%d) = %#x; model had %#x", step, id, old, model[id])
			}
			delete(model, id)
		}
		if step&(1<<15-1) == 0 || step == steps-1 {
			checkIndex(t, &ix, model)
		}
	}
}

// TestIndexEndOfTableCluster piles links onto the last home slot of a
// partition's first table. There is no wrap-around: the cluster runs on
// into the slack past the homes and lengthens it, stays reachable there,
// survives the growth steps the load threshold triggers along the way,
// and closes up
// correctly when links are deleted from its front.
func TestIndexEndOfTableCluster(t *testing.T) {
	var ix index
	model := make(map[uint64]uint64)
	// Collect ids of partition 0 whose hash lands on the last home of the
	// partition's first table: more than its slack holds, and past its
	// load threshold.
	first := idtable.New[loc](hashSeed, indexFirstLinks, idtable.Dense)
	lastHome := first.Home(^uint64(0))
	var tail []uint64
	for id := uint64(0); len(tail) < 72; id++ {
		if k, m := part(id); k == 0 && first.Home(m) == lastHome {
			tail = append(tail, id)
		}
	}
	for i, id := range tail {
		ix.put(id, makeLoc(1, int64(headerLen+i), 8))
		model[id] = uint64(makeLoc(1, int64(headerLen+i), 8))
		checkIndex(t, &ix, model)
	}
	if ix.parts[0].Home(^uint64(0)) == lastHome {
		t.Fatalf("%d links never grew partition 0 past its first %d homes", len(tail), lastHome+1)
	}
	for _, id := range tail[:len(tail)/2] {
		if ix.del(id) == 0 {
			t.Fatalf("del(%d) missed", id)
		}
		delete(model, id)
		checkIndex(t, &ix, model)
	}
}

// TestIndexSlackExhaustedLengthens fills a partition's slack directly —
// below the load threshold — so the next link fits only if the slack
// gets longer.
func TestIndexSlackExhaustedLengthens(t *testing.T) {
	var ix index
	model := make(map[uint64]uint64)
	// A table with many homes and few entries, all hashing to its last
	// home: the load threshold is far away, the slack (32 slots) is not.
	ix.parts[0] = idtable.New[loc](hashSeed, 3400, idtable.Dense)
	ix.made = 1
	lastHome := ix.parts[0].Home(^uint64(0))
	const n = 100
	for id := uint64(0); len(model) < n; id++ {
		if k, m := part(id); k == 0 && ix.parts[0].Home(m) == lastHome {
			l := makeLoc(2, int64(headerLen+len(model)), 8)
			ix.put(id, l)
			model[id] = uint64(l)
			checkIndex(t, &ix, model)
		}
	}
	if lo, hi := slotRange(&ix, 0); ix.parts[0].Home(^uint64(0)) != lastHome || lo != lastHome || hi != lastHome+n-1 {
		t.Fatalf("%d links on the last home %d: in slots %d to %d, last home now %d; want one run from it and no growth",
			n, lastHome, lo, hi, ix.parts[0].Home(^uint64(0)))
	}
}

// unmix64 inverts bitutil.Mix64.
func unmix64(x uint64) uint64 {
	inv := func(m uint64) uint64 { // Newton's iteration for m⁻¹ mod 2^64
		y := m
		for range 6 {
			y *= 2 - m*y
		}
		return y
	}
	x ^= x>>31 ^ x>>62
	x *= inv(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inv(0xbf58476d1ce4e5b9)
	return x ^ x>>30 ^ x>>60
}

// TestIndexIdenticalHashesAtTop inserts several slacks' worth of links
// whose hash is the largest there is, all in one partition: no growth
// step can spread them, so each insert has to make its own room, and
// growth steps along the way have to carry the pile over. (Crafting them
// takes the process's hash seed.)
func TestIndexIdenticalHashesAtTop(t *testing.T) {
	var ix index
	model := make(map[uint64]uint64)
	const k = indexParts - 1
	ids := make([]uint64, 160)
	for i := range ids {
		m := uint64(0xFFFFFFFF)<<32 | uint64(i)*indexParts | k
		ids[i] = unmix64(m) ^ hashSeed
		if pk, pm := part(ids[i]); pk != k || pm != m {
			t.Fatalf("crafted id %d lands in partition %d with mix %#x", i, pk, pm)
		}
	}
	for i, id := range ids {
		l := makeLoc(3, int64(headerLen+i), 8)
		ix.put(id, l)
		model[id] = uint64(l)
		checkIndex(t, &ix, model)
	}
	if lo, hi := slotRange(&ix, k); lo != ix.parts[k].Home(^uint64(0)) || hi != lo+len(ids)-1 {
		t.Fatalf("%d same-hash links sit in slots %d to %d, want one run from the last home %d", len(ids), lo, hi, ix.parts[k].Home(^uint64(0)))
	}
	for _, id := range ids[:len(ids)/2] {
		if ix.del(id) == 0 {
			t.Fatalf("del(%d) missed", id)
		}
		delete(model, id)
	}
	checkIndex(t, &ix, model)
}

func TestLocRoundTrip(t *testing.T) {
	for _, c := range []struct {
		slot  uint16
		off   int64
		width int
	}{{0, headerLen, 0}, {1, headerLen, 8}, {65535, maxSegOffset, maxStateLen}, {7, 1 << 31, 1668}} {
		l := makeLoc(c.slot, c.off, c.width)
		if l == 0 || l.slot() != c.slot || l.off() != c.off || l.width() != c.width || l.recLen() != recOverhead+c.width {
			t.Fatalf("makeLoc(%d, %d, %d) = %#x → (%d, %d, %d)", c.slot, c.off, c.width, uint64(l), l.slot(), l.off(), l.width())
		}
	}
	if !(makeLoc(1, 900, 8) < makeLoc(1, 901, 0) && makeLoc(1, maxSegOffset, 8) < makeLoc(2, headerLen, 8)) {
		t.Fatal("raw loc order is not (segment, offset) order")
	}
}
