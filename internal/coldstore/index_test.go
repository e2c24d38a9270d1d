package coldstore

import (
	"math/rand"
	"testing"
)

// checkIndex verifies ix holds exactly want, that every partition keeps
// the layout lookups rely on — entries in hash order, each at or after
// its home with no empty slot in between, the last slot empty — and that
// the counts agree.
func checkIndex(t *testing.T, ix *index, want map[uint64]uint64) {
	t.Helper()
	if ix.len() != len(want) {
		t.Fatalf("index holds %d links, model %d", ix.len(), len(want))
	}
	seen := 0
	for k := range ix.parts {
		p := &ix.parts[k]
		if len(p.slots) == 0 {
			continue
		}
		if p.slots[len(p.slots)-1].loc != 0 {
			t.Fatalf("partition %d: last slot is filled", k)
		}
		used, prev, lastEmpty := 0, uint32(0), -1
		for i, s := range p.slots {
			if s.loc == 0 {
				lastEmpty = i
				continue
			}
			used++
			if got, ok := want[s.key]; !ok || loc(got) != s.loc {
				t.Fatalf("partition %d slot %d: link %d → %#x, model has %#x (present %v)", k, i, s.key, s.loc, got, ok)
			}
			if pk, _ := part(s.key); pk != k {
				t.Fatalf("link %d sits in partition %d, belongs in %d", s.key, k, pk)
			}
			h := hash32(s.key)
			if h < prev {
				t.Fatalf("partition %d slot %d: hash order broken", k, i)
			}
			prev = h
			if home := p.home(h); home > i || home <= lastEmpty {
				t.Fatalf("partition %d slot %d: home %d, nearest empty slot before it %d", k, i, home, lastEmpty)
			}
		}
		if used != p.used {
			t.Fatalf("partition %d: %d entries, used says %d", k, used, p.used)
		}
		seen += used
	}
	if seen != len(want) {
		t.Fatalf("partitions hold %d entries, model %d", seen, len(want))
	}
	for id, l := range want {
		if got, ok := ix.get(id); !ok || got != loc(l) {
			t.Fatalf("get(%d) = %#x, %v; model has %#x", id, got, ok, l)
		}
	}
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
			old, replaced := ix.put(id, loc(l))
			if want, ok := model[id]; ok != replaced || loc(want) != old {
				t.Fatalf("step %d: put(%d) replaced %#x, %v; model had %#x, %v", step, id, old, replaced, want, ok)
			}
			model[id] = l
		case r < 3: // miss
			id := rng.Uint64()
			if _, ok := model[id]; !ok {
				if l, ok := ix.get(id); ok {
					t.Fatalf("step %d: get(%d) found %#x, never put", step, id, l)
				}
				if l, ok := ix.del(id); ok {
					t.Fatalf("step %d: del(%d) removed %#x, never put", step, id, l)
				}
			}
		case (r < 8) == growing || len(ids) == 0: // insert
			id, l := rng.Uint64()>>rng.Intn(64), newLoc() // small and large ids alike
			old, replaced := ix.put(id, loc(l))
			if want, ok := model[id]; ok != replaced || loc(want) != old {
				t.Fatalf("step %d: put(%d) replaced %#x, %v; model had %#x, %v", step, id, old, replaced, want, ok)
			}
			model[id] = l
			ids = append(ids, id)
		default: // delete
			id := ids[rng.Intn(len(ids))]
			old, ok := ix.del(id)
			if want, had := model[id]; had != ok || loc(want) != old {
				t.Fatalf("step %d: del(%d) = %#x, %v; model had %#x, %v", step, id, old, ok, want, had)
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
	// partition's first table.
	firstHomes := indexFirstHomes
	var tail []uint64
	for id := uint64(0); len(tail) < indexSlack+8; id++ {
		if k, h := part(id); k == 0 && int(uint64(h)*uint64(firstHomes)>>32) == firstHomes-1 {
			tail = append(tail, id)
		}
	}
	for i, id := range tail {
		ix.put(id, makeLoc(1, int64(headerLen+i), 8))
		model[id] = uint64(makeLoc(1, int64(headerLen+i), 8))
		checkIndex(t, &ix, model)
	}
	for _, id := range tail[:len(tail)/2] {
		if _, ok := ix.del(id); !ok {
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
	// home: the load threshold is far away, the slack is not.
	const homes = 4096
	p := &ix.parts[0]
	p.homes = homes
	p.slots = make([]indexSlot, homes+indexSlack)
	n := 0
	for id := uint64(0); n < indexSlack+4; id++ {
		if k, h := part(id); k == 0 && p.home(h) == p.homes-1 {
			l := makeLoc(2, int64(headerLen+n), 8)
			ix.put(id, l)
			model[id] = uint64(l)
			n++
			checkIndex(t, &ix, model)
		}
	}
	if p.homes != homes || len(p.slots) != homes+n {
		t.Fatalf("%d links on the last home: %d homes, %d slots; want %d homes and the slack lengthened to %d slots", n, p.homes, len(p.slots), homes, homes+n)
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
// step can spread them, so each insert has to make its own room — in
// space proportional to the pile — and growth steps along the way have
// to carry the pile over. (Crafting them takes the process's hash seed.)
func TestIndexIdenticalHashesAtTop(t *testing.T) {
	var ix index
	model := make(map[uint64]uint64)
	const k = indexParts - 1
	n := 5 * indexSlack
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = unmix64(uint64(k)<<indexPartShift|0xFFFFFFFF<<24|uint64(i)) ^ hashSeed
		if pk, h := part(ids[i]); pk != k || h != 0xFFFFFFFF {
			t.Fatalf("crafted id %d lands in partition %d with hash %#x", i, pk, h)
		}
	}
	for i, id := range ids {
		l := makeLoc(3, int64(headerLen+i), 8)
		ix.put(id, l)
		model[id] = uint64(l)
		checkIndex(t, &ix, model)
	}
	p := &ix.parts[k]
	if len(p.slots) > p.homes+n {
		t.Fatalf("%d same-hash links took %d slots past %d homes", n, len(p.slots)-p.homes, p.homes)
	}
	for _, id := range ids[:n/2] {
		if _, ok := ix.del(id); !ok {
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
