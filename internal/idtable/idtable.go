// Package idtable is the hash table both tiers of the decision service
// key link state by: linkstore's shard tables and coldstore's index.
//
// A Table keeps IDs in hash order (Robin Hood linear probing) with
// backward-shift deletion and no tombstones or wrap-around: each ID sits
// at or after its home — its keyed 32-bit hash scaled onto the home
// slots — with no empty slot in between, slack past the last home takes
// the IDs displaced off its end, and the last slot stays empty. A lookup
// stops at the first empty slot or larger hash, growing is one in-order
// copy, and a deletion moves only IDs above it, so an ascending walk that
// deletes as it goes sees every ID once. A zero value marks an empty slot.
package idtable

import "softrate/internal/bitutil"

// Load is how full a table may get before an insert grows it by half.
type Load uint32

const (
	Fast  Load = 0       // 4/5: short probes, for tables every decision reads
	Dense Load = 1 << 31 // 17/20: fewer bytes per ID, for an index of idle links
)

func (l Load) frac() (num, den int) {
	if l == Dense {
		return 17, 20
	}
	return 4, 5
}

// slack is how many slots past the last home a table starts with: at
// either load a displacement of 32 has probability near e^-16, and an
// insert that needs more lengthens the slack by a slot.
const slack = 32

type slot[V comparable] struct {
	id uint64
	v  V
}

// Table maps link IDs to values of type V, keyed by a per-table seed.
// Get and Put hand back a pointer into the table, good until the next
// Put or deletion. Only New makes a table that takes a Put.
type Table[V comparable] struct {
	slots []slot[V] // homes, then slack; the last is never filled
	homes uint32
	used  uint32 // filled slots, and the Load in the top bit: 40 bytes in all
	seed  uint64
}

// New returns a table keyed by seed that holds links IDs without growing.
func New[V comparable](seed uint64, links int, load Load) Table[V] {
	num, den := load.frac()
	homes := max(8, (links*den+num-1)/num)
	return Table[V]{slots: make([]slot[V], homes+slack), homes: uint32(homes), used: uint32(load), seed: seed}
}

// Mix is id's mix under seed. Every operation takes it, so that a caller
// spreading IDs over tables of one seed by its low bits mixes an ID once;
// a table orders IDs by its top 32.
func Mix(seed, id uint64) uint64 { return bitutil.Mix64(id ^ seed) }

// Mix is id's mix under the table's seed.
func (t *Table[V]) Mix(id uint64) uint64 { return Mix(t.seed, id) }

func (t *Table[V]) hash(id uint64) uint32 { return uint32(Mix(t.seed, id) >> 32) }

func (t *Table[V]) home(h uint32) int { return int(uint64(h) * uint64(t.homes) >> 32) }

// Home is the slot a lookup of the ID with mix m starts at.
func (t *Table[V]) Home(m uint64) int { return t.home(uint32(m >> 32)) }

// Len is the number of IDs in the table.
func (t *Table[V]) Len() int { return int(t.used &^ uint32(Dense)) }

// find returns the slot holding id, or the slot an insert of id belongs
// in: the first at or after its home that is empty or holds a larger hash.
func (t *Table[V]) find(id, m uint64) (i int, found bool) {
	var zero V
	h := uint32(m >> 32)
	for i = t.home(h); ; i++ {
		s := &t.slots[i]
		if s.v == zero {
			return i, false
		}
		if s.id == id {
			return i, true
		}
		if t.hash(s.id) > h {
			return i, false
		}
	}
}

// Get returns id's value, nil if the table has none. It is find's loop
// again, so that a hit costs one call.
func (t *Table[V]) Get(id, m uint64) *V {
	var zero V
	h := uint32(m >> 32)
	for i := t.home(h); ; i++ {
		s := &t.slots[i]
		if s.v == zero {
			return nil
		}
		if s.id == id {
			return &s.v
		}
		if t.hash(s.id) > h {
			return nil
		}
	}
}

// Put stores v, which must not be zero, as id's value, and returns where
// it lies and the value it replaced (zero for a new ID).
func (t *Table[V]) Put(id, m uint64, v V) (at *V, old V) {
	if num, den := Load(t.used & uint32(Dense)).frac(); (t.Len()+1)*den > int(t.homes)*num {
		t.grow() // before the lookup, which then serves the insert
	}
	i, found := t.find(id, m)
	if found {
		old = t.slots[i].v
	} else {
		// Shift the run up to the next empty (old, zero) slot right by one;
		// a run that reaches the last slot gets one more.
		end := i
		for t.slots[end].v != old {
			end++
		}
		if end == len(t.slots)-1 {
			t.slots = append(t.slots, slot[V]{})
		}
		copy(t.slots[i+1:end+1], t.slots[i:end])
		t.used++
	}
	t.slots[i] = slot[V]{id, v}
	return &t.slots[i].v, old
}

// Del removes id and returns its value, zero if the table had none.
func (t *Table[V]) Del(id, m uint64) (old V) {
	if i, found := t.find(id, m); found {
		old = t.slots[i].v
		t.DelAt(i)
	}
	return old
}

// DelAt empties slot i, which must hold an ID, by backward shift: each
// following ID displaced from its home moves one slot toward it, up to
// the first empty slot or ID at its home. IDs below slot i never move, so
// slots deleted highest first each still hold the ID they held before.
func (t *Table[V]) DelAt(i int) {
	var zero V
	j := i + 1
	for t.slots[j].v != zero && t.home(t.hash(t.slots[j].id)) < j {
		j++
	}
	copy(t.slots[i:j-1], t.slots[i+1:j])
	t.slots[j-1] = slot[V]{}
	t.used--
}

// At returns the ID in slot i, which must hold one, and its value.
func (t *Table[V]) At(i int) (uint64, *V) { return t.slots[i].id, &t.slots[i].v }

// Walk shows visit every ID once, in ascending slot order, deletes those
// it reports true for and returns how many that was. visit may change the
// value in place, but not to zero. The slot visit saw a kept ID in still
// holds it when the walk ends.
func (t *Table[V]) Walk(visit func(i int, id uint64, v *V) bool) int {
	var zero V
	n := 0
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; s.v != zero && visit(i, s.id, &s.v) {
			t.DelAt(i) // may pull the next ID into slot i: look at it again
			n++
		} else {
			i++
		}
	}
	return n
}

// grow copies the table, in order, into one with half again as many homes.
func (t *Table[V]) grow() {
	var zero V
	old := t.slots
	t.homes += t.homes / 2
	t.slots = make([]slot[V], int(t.homes)+slack)
	next := 0
	for _, s := range old {
		if s.v == zero {
			continue
		}
		at := max(t.home(t.hash(s.id)), next)
		for at >= len(t.slots)-1 {
			t.slots = append(t.slots, slot[V]{})
		}
		t.slots[at] = s
		next = at + 1
	}
}
