package linkstore

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"softrate/internal/ctl"
	"softrate/internal/idtable"
)

// linkTable is a shard's table of links in RAM.
type linkTable = idtable.Table[entry]

func newLinkTable(seed uint64, links int) linkTable {
	return idtable.New[entry](seed, links, idtable.Fast)
}

// tableHash is the hash a table keyed by seed orders link id by.
func tableHash(seed, id uint64) uint32 { return uint32(idtable.Mix(seed, id) >> 32) }

// tableKeys returns n link IDs for the table tests to draw from. Under
// seed the first n/2+n/8 hash into the top sixteenth of the hash range,
// so at any table size they pile up against the last home slots and past
// them into the slack; the rest hash anywhere.
func tableKeys(seed uint64, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for id := uint64(1); len(keys) < n; id++ {
		if len(keys) >= n/2+n/8 || tableHash(seed, id) >= 0xF0000000 {
			keys = append(keys, id)
		}
	}
	return keys
}

// scan is a walk over the links of one tier: it shows visit only those
// and deletes the ones it reports true for, as each is visited.
func scan(t *linkTable, tier uint8, visit func(id uint64, e *entry) bool) int {
	return t.Walk(func(_ int, id uint64, e *entry) bool { return e.tier == tier && visit(id, e) })
}

// slotted is a table's content slot by slot, as a walk shows it.
type slotted struct {
	i  int
	id uint64
	e  entry
}

func contents(tb *linkTable) []slotted {
	var out []slotted
	tb.Walk(func(i int, id uint64, e *entry) bool {
		out = append(out, slotted{i, id, *e})
		return false
	})
	return out
}

// checkTable verifies that the table holds exactly model, that a walk
// shows every link once, in hash order — the order a spill writes — and
// that every link is found where the walk saw it.
func checkTable(t *testing.T, tb *linkTable, model map[uint64]entry) {
	t.Helper()
	if tb.Len() != len(model) {
		t.Fatalf("table holds %d links, model %d", tb.Len(), len(model))
	}
	seen, prev, last := 0, uint32(0), -1
	tb.Walk(func(i int, id uint64, e *entry) bool {
		seen++
		if i <= last {
			t.Fatalf("walk showed slot %d after slot %d", i, last)
		}
		last = i
		if h := uint32(tb.Mix(id) >> 32); h < prev {
			t.Fatalf("slot %d holds hash %#x after %#x: not in hash order", i, h, prev)
		} else {
			prev = h
		}
		if want, ok := model[id]; !ok || want != *e {
			t.Fatalf("slot %d holds link %d = %+v, model %+v (present %v)", i, id, *e, want, ok)
		}
		if got, e2 := tb.At(i); got != id || e2 != e {
			t.Fatalf("At(%d) = %d, %p; the walk saw %d, %p", i, got, e2, id, e)
		}
		return false
	})
	if seen != len(model) {
		t.Fatalf("walk showed %d links, model holds %d", seen, len(model))
	}
	for id, want := range model {
		if e := tb.Get(id, tb.Mix(id)); e == nil || *e != want {
			t.Fatalf("get(%d) = %v, model %+v", id, e, want)
		}
	}
}

// driveTable interprets prog as put / update-in-place / get / delete /
// scan-and-evict / tag / revive / spill-a-generation steps over a 64-key
// universe on a table that starts at its smallest size, mirroring each in
// a Go map, and checks the table against the map after every step.
func driveTable(t *testing.T, seed uint64, prog []byte) {
	keys := tableKeys(seed, 64)
	tb := newLinkTable(seed, 0)
	model := map[uint64]entry{}
	stamp := uint32(0)
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc], prog[pc+1]
		id := keys[int(arg)%len(keys)]
		m := tb.Mix(id)
		stamp++
		switch op % 9 {
		case 0, 1: // put: insert, or replace the link's entry
			e := entry{lastUsed: stamp, algo: ctl.Algo(1 + arg%5)}
			binary.LittleEndian.PutUint64(e.state[:], uint64(stamp)<<8|uint64(arg))
			if got, _ := tb.Put(id, m, e); *got != e {
				t.Fatalf("step %d: put(%d) handed back %+v, stored %+v", pc, id, *got, e)
			}
			model[id] = e
		case 2: // update in place through the pointer get hands back
			e, want := tb.Get(id, m), model[id]
			if _, ok := model[id]; ok != (e != nil) {
				t.Fatalf("step %d: get(%d) = %v, model present %v", pc, id, e, ok)
			}
			if e != nil {
				e.lastUsed, want.lastUsed = stamp, stamp
				e.state[7] ^= arg
				want.state[7] ^= arg
				model[id] = want
			}
		case 3: // miss
			if e := tb.Get(^id, tb.Mix(^id)); e != nil {
				t.Fatalf("step %d: get of a key never stored = %+v", pc, *e)
			}
		case 4: // delete, by the slot a walk finds the link in
			i := -1
			for _, s := range contents(&tb) {
				if s.id == id {
					i = s.i
				}
			}
			if _, ok := model[id]; ok != (i >= 0) {
				t.Fatalf("step %d: a walk found %d in slot %d, model present %v", pc, id, i, ok)
			}
			if i >= 0 {
				tb.DelAt(i)
				delete(model, id)
			}
		case 5: // scan one tier and evict its links whose stamp arg selects
			tier := arg >> 6 % 3
			inTier := 0
			for _, e := range model {
				if e.tier == tier {
					inTier++
				}
			}
			visits := map[uint64]int{}
			n := scan(&tb, tier, func(id uint64, e *entry) bool {
				visits[id]++
				if want, ok := model[id]; !ok || want != *e || e.tier != tier {
					t.Fatalf("step %d: scan of tier %d saw link %d = %+v, model %+v (present %v)", pc, tier, id, *e, want, ok)
				}
				return (e.lastUsed^uint32(arg))&3 == 0
			})
			if len(visits) != inTier {
				t.Fatalf("step %d: scan visited %d links of tier %d's %d", pc, len(visits), tier, inTier)
			}
			for id, k := range visits {
				if k != 1 {
					t.Fatalf("step %d: scan visited link %d %d times", pc, id, k)
				}
				if (model[id].lastUsed^uint32(arg))&3 == 0 {
					delete(model, id)
					n--
				}
			}
			if n != 0 {
				t.Fatalf("step %d: evict's count is off by %d", pc, n)
			}
		case 6, 7: // tag as one of two generations (6), or revive (7), in place
			e, want := tb.Get(id, m), model[id]
			if _, ok := model[id]; ok != (e != nil) {
				t.Fatalf("step %d: get(%d) = %v, model present %v", pc, id, e, ok)
			}
			if e != nil {
				tier := tierLive
				if op%9 == 6 {
					tier = 1 + int(arg>>6&1)
				}
				e.tier, want.tier = uint8(tier), uint8(tier)
				model[id] = want
			}
		case 8: // spill a generation: collect it in one scan, delete it in the next
			gen := 1 + arg&1
			var collected []uint64
			if n := scan(&tb, gen, func(id uint64, _ *entry) bool {
				collected = append(collected, id)
				return false
			}); n != 0 {
				t.Fatalf("step %d: a scan that deletes nothing deleted %d links", pc, n)
			}
			checkTable(t, &tb, model)
			for k, id := range collected {
				if model[id].tier != gen {
					t.Fatalf("step %d: collected link %d, tier %d in the model", pc, id, model[id].tier)
				}
				if k > 0 && tableHash(seed, id) < tableHash(seed, collected[k-1]) {
					t.Fatalf("step %d: link %d collected out of table order", pc, id)
				}
				delete(model, id)
			}
			if n := scan(&tb, gen, func(uint64, *entry) bool { return true }); n != len(collected) {
				t.Fatalf("step %d: deleted %d links of generation %d, collected %d", pc, n, gen, len(collected))
			}
		}
		checkTable(t, &tb, model)
	}
}

// TestLinkTableModel drives long random programs, weighted toward puts so
// the table grows several times and its tail piles past the initial
// slack.
func TestLinkTableModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 6000)
		rng.Read(prog)
		for pc := 0; pc < len(prog)/2; pc += 2 { // first half: fill
			prog[pc] %= 3
		}
		driveTable(t, seed*0x9e3779b97f4a7c15, prog)
	}
}

func FuzzLinkTable(f *testing.F) {
	fill := make([]byte, 0, 256)
	for k := 0; k < 64; k++ {
		fill = append(fill, 0, byte(k))
	}
	f.Add(uint64(1), fill)
	f.Add(uint64(2), append(append([]byte(nil), fill...), 5, 0, 5, 1, 4, 7, 5, 2, 0, 7))
	f.Add(uint64(3), []byte{0, 1, 4, 1, 2, 1, 5, 0})
	f.Add(uint64(4), append(append([]byte(nil), fill...), 6, 3, 6, 67, 6, 4, 7, 3, 8, 1, 6, 9, 8, 0, 8, 1))
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		driveTable(t, seed, prog)
	})
}

// tableSlack is the slack idtable starts a table with past its last home.
const tableSlack = 32

// TestLinkTableSlackGrows pins the case the model test reaches only by
// chance: more links hashing to the last home than the slack has slots.
func TestLinkTableSlackGrows(t *testing.T) {
	const seed = 7
	tb := newLinkTable(seed, 0)
	model := map[uint64]entry{}
	for id := uint64(1); len(model) < 2*tableSlack; id++ {
		if tableHash(seed, id) < 0xFFF00000 {
			continue
		}
		model[id] = entry{algo: ctl.AlgoSoftRate, lastUsed: uint32(id)}
		tb.Put(id, tb.Mix(id), model[id])
		checkTable(t, &tb, model)
	}
	lastHome := tb.Home(^uint64(0))
	c := contents(&tb)
	if lo, hi := c[0].i, c[len(c)-1].i; lo != lastHome || hi != lastHome+len(model)-1 {
		t.Fatalf("%d links at the last home %d sit in slots %d to %d, want one run from it", len(model), lastHome, lo, hi)
	}
	if n := scan(&tb, tierLive, func(uint64, *entry) bool { return true }); n != 2*tableSlack {
		t.Fatalf("evicted %d links, want %d", n, 2*tableSlack)
	}
	checkTable(t, &tb, map[uint64]entry{})
}

// TestLinkTableDescendingDeletes pins what a spill's deletion rests on:
// deleting a set of slots highest first leaves exactly the table a walk
// deleting the same links as it reaches them does, slot for slot, in
// tables whose tail has piled past the initial slack as well.
func TestLinkTableDescendingDeletes(t *testing.T) {
	grown := 0
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, n := range []int{10, 64, 300, 1000} {
			keys := tableKeys(seed, n)
			a, b := newLinkTable(seed, 0), newLinkTable(seed, 0)
			for _, id := range keys {
				a.Put(id, a.Mix(id), entry{algo: ctl.AlgoSoftRate, lastUsed: uint32(id)})
				b.Put(id, b.Mix(id), entry{algo: ctl.AlgoSoftRate, lastUsed: uint32(id)})
			}
			if c := contents(&a); c[len(c)-1].i >= a.Home(^uint64(0))+tableSlack {
				grown++
			}
			doomed, model := map[uint64]bool{}, map[uint64]entry{}
			for _, id := range keys {
				if rng.Intn(3) == 0 {
					doomed[id] = true
				} else {
					model[id] = *a.Get(id, a.Mix(id))
				}
			}
			scan(&a, tierLive, func(id uint64, _ *entry) bool { return doomed[id] })
			var at []int
			for _, s := range contents(&b) {
				if doomed[s.id] {
					at = append(at, s.i)
				}
			}
			for k := len(at) - 1; k >= 0; k-- {
				b.DelAt(at[k])
			}
			if !slices.Equal(contents(&a), contents(&b)) || a.Len() != b.Len() {
				t.Fatalf("seed %d, %d links: deleting %d slots highest first leaves a different table than a walk", seed, n, len(at))
			}
			checkTable(t, &b, model)
		}
	}
	if grown == 0 {
		t.Fatal("no table's tail piled past its slack")
	}
}

// probeLens returns the mean and the longest probe sequence over ids.
func probeLens(tb *linkTable, ids []uint64) (mean float64, longest int) {
	slot := map[uint64]int{}
	for _, s := range contents(tb) {
		slot[s.id] = s.i
	}
	total := 0
	for _, id := range ids {
		n := slot[id] - tb.Home(tb.Mix(id)) + 1
		total += n
		longest = max(longest, n)
	}
	return float64(total) / float64(len(ids)), longest
}

// TestLinkTableKeyedAgainstChosenIDs is the wire-reachable attack on an
// unkeyed table: link IDs picked to share a hash prefix pile into one
// cluster. They can only be picked against a known key; under any other
// they spread like random ones.
func TestLinkTableKeyedAgainstChosenIDs(t *testing.T) {
	const seedA, seedB = 0x0123456789abcdef, 0xfedcba9876543210
	ids := make([]uint64, 0, 4096)
	for id := uint64(1); len(ids) < cap(ids); id++ {
		if tableHash(seedA, id)>>20 == 0 {
			ids = append(ids, id)
		}
	}
	fill := func(seed uint64) *linkTable {
		tb := newLinkTable(seed, 0)
		for _, id := range ids {
			tb.Put(id, tb.Mix(id), entry{algo: ctl.AlgoSoftRate})
		}
		return &tb
	}
	if mean, _ := probeLens(fill(seedA), ids); mean < 1000 {
		t.Fatalf("chosen IDs probe %.1f slots on average under the key they were chosen for: the attack is not one", mean)
	}
	mean, longest := probeLens(fill(seedB), ids)
	if mean > 4 || longest > 64 {
		t.Fatalf("chosen IDs probe %.1f slots on average, %d at worst under another key, want <= 4 and <= 64", mean, longest)
	}
}

// TestShardLayout pins the false-sharing fix: everything a shard visit
// touches sits in the shard's first cache line, and shards tile lines
// exactly, so neighbours in []shard share none.
func TestShardLayout(t *testing.T) {
	const line = 64
	var sh shard
	if size := unsafe.Sizeof(sh); size%line != 0 {
		t.Fatalf("shard is %d bytes, not a whole number of %d-byte lines", size, line)
	}
	if unsafe.Offsetof(sh.mu) != 0 {
		t.Fatalf("mutex at offset %d, want 0", unsafe.Offsetof(sh.mu))
	}
	for name, end := range map[string]uintptr{
		"links":     unsafe.Offsetof(sh.links) + unsafe.Sizeof(sh.links),
		"hits":      unsafe.Offsetof(sh.hits) + unsafe.Sizeof(sh.hits),
		"lastSweep": unsafe.Offsetof(sh.lastSweep) + unsafe.Sizeof(sh.lastSweep),
	} {
		if end > line {
			t.Fatalf("%s ends at byte %d, outside the first cache line", name, end)
		}
	}
	// A stored link's algo is never ctl.AlgoDefault, so with algo at
	// offset 0 the table's zero-entry test on the hot path stops at an
	// occupied slot's first byte; and a 16-byte entry makes a 24-byte
	// slot, which a decision that hits touches in one cache line three
	// times in four.
	if off := unsafe.Offsetof(entry{}.algo); off != 0 {
		t.Fatalf("entry.algo at offset %d, want 0: the empty-slot test reads it first", off)
	}
	if size := unsafe.Sizeof(entry{}); size != 16 {
		t.Fatalf("entry is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(struct {
		id uint64
		entry
	}{}); size != 24 {
		t.Fatalf("table slot is %d bytes, want 24", size)
	}
}

func BenchmarkLinkTable(b *testing.B) {
	const n = 1 << 14
	tb := newLinkTable(1, n)
	put := func(id uint64) { tb.Put(id, tb.Mix(id), entry{algo: ctl.AlgoSoftRate}) }
	for id := uint64(0); id < n; id++ {
		put(id)
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			id := uint64(i) * 0x9e3779b9 % n
			tb.Get(id, tb.Mix(id)).lastUsed++
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if tb.Get(n+uint64(i), tb.Mix(n+uint64(i))) != nil {
				b.Fatal("found a link never stored")
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		// One pass evicts the idle half of a full table; refilling it is
		// untimed.
		for i := 0; i < b.N; i++ {
			evicted := scan(&tb, tierLive, func(id uint64, _ *entry) bool { return id&1 == 0 })
			b.StopTimer()
			if evicted != n/2 {
				b.Fatalf("evicted %d links, want %d", evicted, n/2)
			}
			for id := uint64(0); id < n; id += 2 {
				put(id)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n/2), "ns/evicted")
	})
}
