package idtable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// wide is a value shaped like linkstore's entry: 16 bytes, with a byte
// that is never zero in a stored value first.
type wide struct {
	tag   uint8
	gen   uint8
	stamp uint32
	body  [8]byte
}

// shape is one value type under test: the value a put step stores, and
// an in-place change that keeps it nonzero.
type shape[V comparable] struct {
	make func(stamp uint32, arg byte) V
	bump func(v *V, arg byte)
}

var (
	wideShape = shape[wide]{
		make: func(stamp uint32, arg byte) wide {
			w := wide{tag: 1 + arg%5, stamp: stamp}
			binary.LittleEndian.PutUint64(w.body[:], uint64(stamp)<<8|uint64(arg))
			return w
		},
		bump: func(v *wide, arg byte) { v.gen, v.body[7] = arg>>6, v.body[7]^arg },
	}
	wordShape = shape[uint64]{
		make: func(stamp uint32, arg byte) uint64 { return 1<<63 | uint64(stamp)<<8 | uint64(arg) },
		bump: func(v *uint64, arg byte) { *v ^= uint64(arg) << 40 },
	}
	loads = []Load{Fast, Dense}
)

// keys returns n IDs for the tests to draw from, ID 0 first. Under seed
// the next n/2+n/8 hash into the top sixteenth of the hash range, so at
// any table size they pile up against the last home slots and past them
// into the slack; the rest hash anywhere.
func keys(seed uint64, n int) []uint64 {
	t := Table[uint64]{seed: seed}
	ids := append(make([]uint64, 0, n), 0)
	for id := uint64(1); len(ids) < n; id++ {
		if len(ids) > n/2+n/8 || t.hash(id) >= 0xF0000000 {
			ids = append(ids, id)
		}
	}
	return ids
}

// check verifies the layout every lookup relies on — IDs in hash order,
// each at or after its home with no empty slot in between, empty slots
// all zero, the last slot empty, no fewer slots than homes and slack,
// the used count right — and that the table holds exactly model.
func check[V comparable](t *testing.T, tb *Table[V], model map[uint64]V) {
	t.Helper()
	var zero V
	if tb.Len() != len(model) {
		t.Fatalf("table holds %d IDs, model %d", tb.Len(), len(model))
	}
	if len(tb.slots) < int(tb.homes)+slack {
		t.Fatalf("%d slots for %d homes, fewer than the slack", len(tb.slots), tb.homes)
	}
	if last := tb.slots[len(tb.slots)-1]; last.v != zero {
		t.Fatalf("last slot is filled: %+v", last)
	}
	used, prev := 0, uint32(0)
	for i, s := range tb.slots {
		if s.v == zero {
			if s.id != 0 {
				t.Fatalf("empty slot %d keeps ID %d", i, s.id)
			}
			continue
		}
		used++
		h := tb.hash(s.id)
		if home := tb.home(h); home > i {
			t.Fatalf("slot %d holds ID %d before its home %d", i, s.id, home)
		} else if home < i && tb.slots[i-1].v == zero {
			t.Fatalf("slot %d holds ID %d displaced from %d across an empty slot", i, s.id, home)
		}
		if h < prev {
			t.Fatalf("slot %d holds hash %#x after %#x: not in hash order", i, h, prev)
		}
		prev = h
		if want, ok := model[s.id]; !ok || want != s.v {
			t.Fatalf("slot %d holds ID %d = %+v, model %+v (present %v)", i, s.id, s.v, want, ok)
		}
	}
	if used != len(model) {
		t.Fatalf("%d filled slots, model holds %d", used, len(model))
	}
	for id, want := range model {
		if p := tb.Get(id, tb.Mix(id)); p == nil || *p != want {
			t.Fatalf("Get(%d) = %v, model %+v", id, p, want)
		}
	}
}

// drive interprets prog as put / replace / get-and-update / miss /
// delete-by-ID / delete-by-slot / walk-and-delete steps over a 64-key
// universe on a table that starts at its smallest size, mirroring each in
// a Go map, and checks the table against the map after every step.
func drive[V comparable](t *testing.T, sh shape[V], seed uint64, load Load, prog []byte) {
	ids := keys(seed, 64)
	tb := New[V](seed, 0, load)
	model := map[uint64]V{}
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc], prog[pc+1]
		id := ids[int(arg)%len(ids)]
		m := tb.Mix(id)
		switch op % 7 {
		case 0, 1: // put: insert, or replace the ID's value
			v := sh.make(uint32(pc), arg)
			at, old := tb.Put(id, m, v)
			if *at != v || old != model[id] {
				t.Fatalf("step %d: Put(%d) = %+v, replaced %+v; stored %+v over %+v", pc, id, *at, old, v, model[id])
			}
			model[id] = v
		case 2: // get, and update in place through the pointer
			p := tb.Get(id, m)
			want, ok := model[id]
			if ok != (p != nil) || ok && *p != want {
				t.Fatalf("step %d: Get(%d) = %v, model %+v (present %v)", pc, id, p, want, ok)
			}
			if p != nil {
				sh.bump(p, arg)
				sh.bump(&want, arg)
				model[id] = want
			}
		case 3: // miss, on a lookup and a delete
			var zero V
			if p := tb.Get(^id, tb.Mix(^id)); p != nil {
				t.Fatalf("step %d: Get of an ID never stored = %+v", pc, *p)
			}
			if old := tb.Del(^id, tb.Mix(^id)); old != zero {
				t.Fatalf("step %d: Del of an ID never stored = %+v", pc, old)
			}
		case 4: // delete by ID
			if old := tb.Del(id, m); old != model[id] {
				t.Fatalf("step %d: Del(%d) = %+v, model %+v", pc, id, old, model[id])
			}
			delete(model, id)
		case 5: // delete by slot
			i, found := tb.find(id, m)
			if _, ok := model[id]; ok != found {
				t.Fatalf("step %d: find(%d) found %v, model present %v", pc, id, found, ok)
			}
			if found {
				if at, v := tb.At(i); at != id || *v != model[id] {
					t.Fatalf("step %d: At(%d) = %d, %+v; want %d, %+v", pc, i, at, *v, id, model[id])
				}
				tb.DelAt(i)
				delete(model, id)
			}
		case 6: // walk, deleting the IDs arg picks as they are reached
			visits, last := map[uint64]int{}, -1
			var doomed []uint64
			n := tb.Walk(func(i int, id uint64, v *V) bool {
				visits[id]++
				if want, ok := model[id]; !ok || want != *v || i < last {
					t.Fatalf("step %d: walk saw ID %d = %+v in slot %d after slot %d, model %+v (present %v)", pc, id, *v, i, last, want, ok)
				}
				last = i
				if (id^uint64(arg))&3 == 0 {
					doomed = append(doomed, id)
					return true
				}
				return false
			})
			if len(visits) != len(model) || n != len(doomed) {
				t.Fatalf("step %d: walk visited %d IDs of %d and deleted %d of %d", pc, len(visits), len(model), n, len(doomed))
			}
			for id, k := range visits {
				if k != 1 {
					t.Fatalf("step %d: walk visited ID %d %d times", pc, id, k)
				}
			}
			for _, id := range doomed {
				delete(model, id)
			}
		}
		check(t, &tb, model)
	}
}

func name(load Load, shape string) string {
	num, den := load.frac()
	return fmt.Sprintf("load=%d|%d/%s", num, den, shape)
}

// TestTableModel drives long random programs, weighted toward puts so the
// table grows several times and its tail piles past the initial slack, at
// both loads and with both value shapes.
func TestTableModel(t *testing.T) {
	for _, load := range loads {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			prog := make([]byte, 6000)
			rng.Read(prog)
			for pc := 0; pc < len(prog)/2; pc += 2 { // first half: fill
				prog[pc] %= 3
			}
			s := seed * 0x9e3779b97f4a7c15
			t.Run(fmt.Sprint(name(load, "wide"), "/seed=", seed), func(t *testing.T) { drive(t, wideShape, s, load, prog) })
			t.Run(fmt.Sprint(name(load, "uint64"), "/seed=", seed), func(t *testing.T) { drive(t, wordShape, s, load, prog) })
		}
	}
}

func FuzzTable(f *testing.F) {
	fill := make([]byte, 0, 256)
	for k := 0; k < 64; k++ {
		fill = append(fill, 0, byte(k))
	}
	f.Add(uint64(1), false, false, fill)
	f.Add(uint64(2), true, false, append(slices.Clone(fill), 6, 0, 6, 1, 5, 7, 6, 2, 0, 7))
	f.Add(uint64(3), false, true, []byte{0, 1, 4, 1, 2, 1, 3, 0, 5, 1})
	f.Add(uint64(4), true, true, append(slices.Clone(fill), 4, 3, 5, 67, 2, 4, 6, 3, 1, 1, 6, 9))
	f.Fuzz(func(t *testing.T, seed uint64, dense, word bool, prog []byte) {
		load := Fast
		if dense {
			load = Dense
		}
		if word {
			drive(t, wordShape, seed, load, prog)
		} else {
			drive(t, wideShape, seed, load, prog)
		}
	})
}

// TestTableNewHoldsWithoutGrowing pins New's promise and the load
// threshold: a table made for n IDs has the fewest homes (but 8) that
// hold n at its load, takes n without growing, and the first insert past
// the threshold grows it by half.
func TestTableNewHoldsWithoutGrowing(t *testing.T) {
	for load, frac := range map[Load][2]int{Fast: {4, 5}, Dense: {17, 20}} {
		num, den := frac[0], frac[1]
		for n := 0; n <= 400; n++ {
			tb := New[uint64](uint64(n), n, load)
			homes := tb.homes
			if want := max(8, (n*den+num-1)/num); int(homes) != want {
				t.Fatalf("%s: a table made for %d IDs has %d homes, want %d", name(load, "uint64"), n, homes, want)
			}
			id := uint64(0)
			for ; tb.Len() < n; id++ {
				tb.Put(id, tb.Mix(id), id|1<<63)
			}
			if tb.homes != homes {
				t.Fatalf("%s: a table made for %d IDs grew from %d to %d homes taking them", name(load, "uint64"), n, homes, tb.homes)
			}
			for ; (tb.Len()+1)*den <= int(homes)*num; id++ {
				tb.Put(id, tb.Mix(id), id|1<<63)
			}
			if tb.Put(id, tb.Mix(id), id|1<<63); tb.homes != homes+homes/2 {
				t.Fatalf("%s: %d IDs in %d homes: the next insert left %d homes, want %d", name(load, "uint64"), tb.Len()-1, homes, tb.homes, homes+homes/2)
			}
		}
	}
}

// TestTableSlackLengthens pins the case the model test reaches only by
// chance: more IDs hashing to the last home than the slack has slots,
// below the load threshold (the slack lengthens by exactly a slot per ID
// past it) and across growth steps (each copy carries the pile over).
func TestTableSlackLengthens(t *testing.T) {
	for _, load := range loads {
		// Many homes and few IDs: the load threshold is far away, the slack
		// is not.
		tb := New[uint64](7, 3400, load)
		homes, model := int(tb.homes), map[uint64]uint64{}
		for id := uint64(1); len(model) < slack+4; id++ {
			if tb.Home(tb.Mix(id)) == homes-1 {
				model[id] = id | 1<<63
				tb.Put(id, tb.Mix(id), model[id])
				check(t, &tb, model)
			}
		}
		if int(tb.homes) != homes || len(tb.slots) != homes+len(model) {
			t.Fatalf("%s: %d IDs on the last home: %d homes, %d slots; want %d homes and the slack lengthened to %d slots",
				name(load, "uint64"), len(model), tb.homes, len(tb.slots), homes, homes+len(model))
		}

		tb = New[uint64](7, 0, load)
		model = map[uint64]uint64{}
		for id := uint64(1); len(model) < 2*slack; id++ {
			if tb.hash(id) >= 0xFFF00000 {
				model[id] = id | 1<<63
				tb.Put(id, tb.Mix(id), model[id])
				check(t, &tb, model)
			}
		}
		if len(tb.slots) <= int(tb.homes)+slack {
			t.Fatalf("%s: %d slots after %d IDs at the last home of %d", name(load, "uint64"), len(tb.slots), len(model), tb.homes)
		}
		if n := tb.Walk(func(int, uint64, *uint64) bool { return true }); n != 2*slack {
			t.Fatalf("walk deleted %d IDs, want %d", n, 2*slack)
		}
		check(t, &tb, map[uint64]uint64{})
	}
}

// TestTableEndCluster piles IDs onto the last home slot of a table's
// first size. There is no wrap-around: the cluster runs on into the
// slack, stays reachable there, survives the growth steps the load
// threshold triggers along the way, and closes up correctly when IDs are
// deleted from its front.
func TestTableEndCluster(t *testing.T) {
	for _, load := range loads {
		tb, model := New[wide](11, 0, load), map[uint64]wide{}
		firstHomes := int(tb.homes)
		var tail []uint64
		for id := uint64(1); len(tail) < slack+8; id++ {
			if m := tb.Mix(id); int(uint64(m>>32)*uint64(firstHomes)>>32) == firstHomes-1 {
				tail = append(tail, id)
			}
		}
		for _, id := range tail {
			model[id] = wideShape.make(uint32(id), byte(id))
			tb.Put(id, tb.Mix(id), model[id])
			check(t, &tb, model)
		}
		if int(tb.homes) == firstHomes {
			t.Fatalf("%s: the cluster never grew the table", name(load, "wide"))
		}
		for _, id := range tail[:len(tail)/2] {
			if old := tb.Del(id, tb.Mix(id)); old != model[id] {
				t.Fatalf("Del(%d) = %+v, want %+v", id, old, model[id])
			}
			delete(model, id)
			check(t, &tb, model)
		}
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

// TestTableIdenticalHashesAtTop inserts several slacks' worth of IDs
// whose hash is the largest there is: no growth step can spread them, so
// each insert has to make its own room — in space proportional to the
// pile — and growth steps along the way have to carry the pile over.
func TestTableIdenticalHashesAtTop(t *testing.T) {
	const seed = 0xfeedface
	tb, model := New[uint64](seed, 0, Dense), map[uint64]uint64{}
	ids := make([]uint64, 5*slack)
	for i := range ids {
		ids[i] = unmix64(0xFFFFFFFF<<32|uint64(i)) ^ seed
		if h := tb.hash(ids[i]); h != 0xFFFFFFFF {
			t.Fatalf("crafted ID %d hashes to %#x", i, h)
		}
		model[ids[i]] = ids[i] | 1
		tb.Put(ids[i], tb.Mix(ids[i]), model[ids[i]])
		check(t, &tb, model)
	}
	if n := len(ids); len(tb.slots) > int(tb.homes)+n {
		t.Fatalf("%d same-hash IDs took %d slots past %d homes", n, len(tb.slots)-int(tb.homes), tb.homes)
	}
	for _, id := range ids[:len(ids)/2] {
		if old := tb.Del(id, tb.Mix(id)); old != model[id] {
			t.Fatalf("Del(%d) = %#x, want %#x", id, old, model[id])
		}
		delete(model, id)
	}
	check(t, &tb, model)
}

// TestTableDescendingDeletes pins what a spill's deletion rests on:
// deleting a set of slots highest first leaves exactly the table a walk
// deleting the same IDs as it reaches them does, slot for slot, in
// tables whose tail has piled past the initial slack as well.
func TestTableDescendingDeletes(t *testing.T) {
	grown := 0
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, n := range []int{10, 64, 300, 1000} {
			ids := keys(seed, n)
			a := New[wide](seed, 0, loads[seed%2])
			for _, id := range ids {
				a.Put(id, a.Mix(id), wideShape.make(uint32(id), byte(id)))
			}
			if len(a.slots) > int(a.homes)+slack {
				grown++
			}
			b := a
			b.slots = slices.Clone(a.slots)
			doomed, model := map[uint64]bool{}, map[uint64]wide{}
			for _, id := range ids {
				if rng.Intn(3) == 0 {
					doomed[id] = true
				} else {
					model[id] = *a.Get(id, a.Mix(id))
				}
			}
			a.Walk(func(_ int, id uint64, _ *wide) bool { return doomed[id] })
			var at []int
			for i, s := range b.slots {
				if s.v != (wide{}) && doomed[s.id] {
					at = append(at, i)
				}
			}
			for k := len(at) - 1; k >= 0; k-- {
				b.DelAt(at[k])
			}
			if !slices.Equal(a.slots, b.slots) || a.used != b.used {
				t.Fatalf("seed %d, %d IDs: deleting %d slots highest first leaves a different table than a walk", seed, n, len(at))
			}
			check(t, &b, model)
		}
	}
	if grown == 0 {
		t.Fatal("no table's tail piled past its slack")
	}
}

// TestTableKeyedAgainstChosenIDs is the wire-reachable attack on an
// unkeyed table: IDs picked to share a hash prefix pile into one
// cluster. They can only be picked against a known key; under any other
// they spread like random ones.
func TestTableKeyedAgainstChosenIDs(t *testing.T) {
	const seedA, seedB = 0x0123456789abcdef, 0xfedcba9876543210
	a := Table[uint64]{seed: seedA}
	ids := make([]uint64, 0, 4096)
	for id := uint64(1); len(ids) < cap(ids); id++ {
		if a.hash(id)>>20 == 0 {
			ids = append(ids, id)
		}
	}
	probes := func(seed uint64, load Load) (mean float64, longest int) {
		tb := New[uint64](seed, 0, load)
		for _, id := range ids {
			tb.Put(id, tb.Mix(id), id|1<<63)
		}
		total := 0
		for _, id := range ids {
			i, _ := tb.find(id, tb.Mix(id))
			n := i - tb.Home(tb.Mix(id)) + 1
			total += n
			longest = max(longest, n)
		}
		return float64(total) / float64(len(ids)), longest
	}
	for _, load := range loads {
		if mean, _ := probes(seedA, load); mean < 1000 {
			t.Fatalf("%s: chosen IDs probe %.1f slots on average under the key they were chosen for: the attack is not one", name(load, "uint64"), mean)
		}
		mean, longest := probes(seedB, load)
		if mean > 4 || longest > 64 {
			t.Fatalf("%s: chosen IDs probe %.1f slots on average, %d at worst under another key, want <= 4 and <= 64", name(load, "uint64"), mean, longest)
		}
	}
}
