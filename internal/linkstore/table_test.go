package linkstore

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"softrate/internal/ctl"
)

// tableKeys returns n link IDs for the table tests to draw from. Under
// seed the first n/2+n/8 hash into the top sixteenth of the hash range,
// so at any table size they pile up against the last home slots and past
// them into the slack; the rest hash anywhere.
func tableKeys(seed uint64, n int) []uint64 {
	t := linkTable{seed: seed}
	keys := make([]uint64, 0, n)
	for id := uint64(1); len(keys) < n; id++ {
		if len(keys) >= n/2+n/8 || t.hash(id) >= 0xF0000000 {
			keys = append(keys, id)
		}
	}
	return keys
}

// scan is a walk over the links of one tier: it shows visit only those
// and deletes the ones it reports true for, as each is visited.
func (t *linkTable) scan(tier uint8, visit func(id uint64, e *entry) bool) int {
	return t.walk(func(_ int, id uint64, e *entry) bool { return e.tier == tier && visit(id, e) })
}

// checkTable verifies the table's structural invariants and that it holds
// exactly model.
func checkTable(t *testing.T, tb *linkTable, model map[uint64]entry) {
	t.Helper()
	if tb.len() != len(model) {
		t.Fatalf("table holds %d links, model %d", tb.len(), len(model))
	}
	if last := tb.slots[len(tb.slots)-1]; last.algo != ctl.AlgoDefault {
		t.Fatalf("last slot is filled: %+v", last)
	}
	seen, prev := 0, uint32(0)
	for i := range tb.slots {
		s := &tb.slots[i]
		if s.algo == ctl.AlgoDefault {
			continue
		}
		seen++
		h := tb.hash(s.id)
		if home := tb.home(h); home > i {
			t.Fatalf("slot %d holds link %d before its home %d", i, s.id, home)
		} else if home < i && tb.slots[i-1].algo == ctl.AlgoDefault {
			t.Fatalf("slot %d holds link %d displaced from %d across an empty slot", i, s.id, home)
		}
		if h < prev {
			t.Fatalf("slot %d holds hash %#x after %#x: not in hash order", i, h, prev)
		}
		prev = h
		if want, ok := model[s.id]; !ok || want != s.entry {
			t.Fatalf("slot %d holds link %d = %+v, model %+v (present %v)", i, s.id, s.entry, want, ok)
		}
	}
	if seen != len(model) {
		t.Fatalf("%d filled slots, model holds %d", seen, len(model))
	}
	for id, want := range model {
		if e := tb.get(id); e == nil || *e != want {
			t.Fatalf("get(%d) = %v, model %+v", id, e, want)
		}
		if i, found := tb.find(id); !found || tb.slots[i].id != id {
			t.Fatalf("find(%d) = %d, %v", id, i, found)
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
		stamp++
		switch op % 9 {
		case 0, 1: // put: insert, or replace the link's entry
			e := entry{lastUsed: stamp, algo: ctl.Algo(1 + arg%5)}
			binary.LittleEndian.PutUint64(e.state[:], uint64(stamp)<<8|uint64(arg))
			if got := tb.put(id, e); *got != e {
				t.Fatalf("step %d: put(%d) handed back %+v, stored %+v", pc, id, *got, e)
			}
			model[id] = e
		case 2: // update in place through the pointer get hands back
			e, want := tb.get(id), model[id]
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
			if e := tb.get(^id); e != nil {
				t.Fatalf("step %d: get of a key never stored = %+v", pc, *e)
			}
		case 4: // delete
			i, found := tb.find(id)
			if _, ok := model[id]; ok != found {
				t.Fatalf("step %d: find(%d) found %v, model present %v", pc, id, found, ok)
			}
			if found {
				tb.delAt(i)
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
			n := tb.scan(tier, func(id uint64, e *entry) bool {
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
			e, want := tb.get(id), model[id]
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
			if n := tb.scan(gen, func(id uint64, _ *entry) bool {
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
				if k > 0 && tb.hash(id) < tb.hash(collected[k-1]) {
					t.Fatalf("step %d: link %d collected out of table order", pc, id)
				}
				delete(model, id)
			}
			if n := tb.scan(gen, func(uint64, *entry) bool { return true }); n != len(collected) {
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

// TestLinkTableSlackGrows pins the case the model test reaches only by
// chance: more links hashing to the last home than the slack has slots.
func TestLinkTableSlackGrows(t *testing.T) {
	const seed = 7
	tb := newLinkTable(seed, 0)
	slots := len(tb.slots)
	model := map[uint64]entry{}
	for id := uint64(1); len(model) < 2*tableSlack; id++ {
		if tb.hash(id) < 0xFFF00000 {
			continue
		}
		model[id] = entry{algo: ctl.AlgoSoftRate, lastUsed: uint32(id)}
		tb.put(id, model[id])
		checkTable(t, &tb, model)
	}
	if len(tb.slots) <= slots+tableSlack {
		t.Fatalf("table has %d slots after %d links at its last home, started with %d", len(tb.slots), len(model), slots)
	}
	if n := tb.scan(tierLive, func(uint64, *entry) bool { return true }); n != 2*tableSlack {
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
			a := newLinkTable(seed, 0)
			for _, id := range keys {
				a.put(id, entry{algo: ctl.AlgoSoftRate, lastUsed: uint32(id)})
			}
			if len(a.slots) > int(a.homes)+tableSlack {
				grown++
			}
			b := a
			b.slots = slices.Clone(a.slots)
			doomed, model := map[uint64]bool{}, map[uint64]entry{}
			for _, id := range keys {
				if rng.Intn(3) == 0 {
					doomed[id] = true
				} else {
					model[id] = *a.get(id)
				}
			}
			a.scan(tierLive, func(id uint64, _ *entry) bool { return doomed[id] })
			var at []int
			for i, s := range b.slots {
				if s.algo != ctl.AlgoDefault && doomed[s.id] {
					at = append(at, i)
				}
			}
			for k := len(at) - 1; k >= 0; k-- {
				b.delAt(at[k])
			}
			if !slices.Equal(a.slots, b.slots) || a.used != b.used {
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
	total := 0
	for _, id := range ids {
		i, _ := tb.find(id)
		n := i - tb.home(tb.hash(id)) + 1
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
	a := linkTable{seed: seedA}
	ids := make([]uint64, 0, 4096)
	for id := uint64(1); len(ids) < cap(ids); id++ {
		if a.hash(id)>>20 == 0 {
			ids = append(ids, id)
		}
	}
	fill := func(seed uint64) *linkTable {
		tb := newLinkTable(seed, 0)
		for _, id := range ids {
			tb.put(id, entry{algo: ctl.AlgoSoftRate})
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
	if size := unsafe.Sizeof(tableSlot{}); size != 24 {
		t.Fatalf("table slot is %d bytes, want 24", size)
	}
}

func BenchmarkLinkTable(b *testing.B) {
	const n = 1 << 14
	tb := newLinkTable(1, n)
	for id := uint64(0); id < n; id++ {
		tb.put(id, entry{algo: ctl.AlgoSoftRate})
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb.get(uint64(i)*0x9e3779b9%n).lastUsed++
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if tb.get(n+uint64(i)) != nil {
				b.Fatal("found a link never stored")
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		// One pass evicts the idle half of a full table; refilling it is
		// untimed.
		for i := 0; i < b.N; i++ {
			evicted := tb.scan(tierLive, func(id uint64, _ *entry) bool { return id&1 == 0 })
			b.StopTimer()
			if evicted != n/2 {
				b.Fatalf("evicted %d links, want %d", evicted, n/2)
			}
			for id := uint64(0); id < n; id += 2 {
				tb.put(id, entry{algo: ctl.AlgoSoftRate})
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n/2), "ns/evicted")
	})
}
