package linkstore

import (
	"encoding/binary"

	"softrate/internal/bitutil"
	"softrate/internal/ctl"
)

// inlineState is the largest encoded state kept inline in the entry.
const inlineState = 8

// tierLive is the tier tag of a link in service. Any other tag is one of
// the RAM archive's two generations (1 and 2): the link idled out and is
// waiting, where it was, to come back or be spilled.
const tierLive = 0

// entry is a link in RAM, deliberately 16 bytes: for algorithms whose
// encoded state fits inlineState bytes (SoftRate's 8), the state lives
// directly in the entry. Wider states live in the per-algorithm slab, and
// the slot index is overlaid on the (then unused) state bytes. Eviction
// and revival change tier and nothing else.
type entry struct {
	state    [inlineState]byte // encoded state (w <= 8) or LE slab slot in [0:4)
	lastUsed uint32            // ticks since the store epoch
	algo     ctl.Algo          // never ctl.AlgoDefault for a stored link
	tier     uint8             // tierLive or an archive generation
}

func (e *entry) slot() uint32     { return binary.LittleEndian.Uint32(e.state[0:4]) }
func (e *entry) setSlot(v uint32) { binary.LittleEndian.PutUint32(e.state[0:4], v) }

// tableSlot is 24 bytes — key, state, stamp, algorithm and tier together —
// so a decision that hits touches only the cache line its probe lands on
// (two for the slot in four that straddles). algo ctl.AlgoDefault, which
// is never stored, marks an empty slot.
type tableSlot struct {
	id uint64
	entry
}

const (
	// A table grows by half when an insert would take it past 4/5 full.
	tableLoadNum, tableLoadDen = 4, 5
	// tableSlack is how many slots past the last home a table starts with
	// for links displaced off its end (there is no wrap-around): at these
	// loads a displacement of 32 has probability near e^-16, and an insert
	// that needs more lengthens the slack by a slot.
	tableSlack = 32
)

// linkTable is one shard's linkID → entry table, laid out like coldstore's
// index: linear probing kept in hash order (Robin Hood), backward-shift
// deletion — no tombstones, so probe lengths depend only on the current
// population — and capacities that are not powers of two. get and put
// hand back a pointer into the table for the caller to update in place,
// valid until the next put or delAt.
//
// A link's home is the multiplicative range reduction of its 32-bit keyed
// hash onto [0, homes), monotone in the hash; links sit in hash order,
// each at or after its home with no empty slot in between, and the last
// slot is always empty. So a lookup stops at the first empty slot or
// larger hash, growing is one in-order copy, and a deletion only moves
// links toward lower slots: an ascending walk that deletes as it goes
// still visits every link exactly once. A link takes the same slot live or
// archived: the table never reads tier.
type linkTable struct {
	slots []tableSlot // homes, then slack; the last is never filled
	homes uint32
	used  uint32
	seed  uint64
}

// newLinkTable returns a table keyed by seed that holds links links
// without growing.
func newLinkTable(seed uint64, links int) linkTable {
	homes := max(8, (links*tableLoadDen+tableLoadNum-1)/tableLoadNum)
	return linkTable{slots: make([]tableSlot, homes+tableSlack), homes: uint32(homes), seed: seed}
}

// hash orders the table's links. It takes the keyed mix's top half: the
// store picks a link's shard from the low bits of the unkeyed mix.
func (t *linkTable) hash(id uint64) uint32 { return uint32(bitutil.Mix64(id^t.seed) >> 32) }

func (t *linkTable) home(h uint32) int { return int(uint64(h) * uint64(t.homes) >> 32) }

func (t *linkTable) len() int { return int(t.used) }

// find returns the slot holding id, or the slot an insert of id belongs
// in: the first at or after its home that is empty or holds a larger hash.
func (t *linkTable) find(id uint64) (i int, found bool) {
	h := t.hash(id)
	for i = t.home(h); ; i++ {
		s := &t.slots[i]
		if s.algo == ctl.AlgoDefault {
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

// get returns the link's entry, nil when it is not in the table.
func (t *linkTable) get(id uint64) *entry {
	if i, found := t.find(id); found {
		return &t.slots[i].entry
	}
	return nil
}

// put stores e (whose algo is set) as the link's entry, replacing any it
// had, and returns its place in the table.
func (t *linkTable) put(id uint64, e entry) *entry {
	if (t.used+1)*tableLoadDen > t.homes*tableLoadNum {
		t.grow()
	}
	i, found := t.find(id)
	if !found {
		// Open slot i by moving everything up to the next empty slot one to
		// the right; a cluster that reaches the last slot gets one more.
		end := i
		for t.slots[end].algo != ctl.AlgoDefault {
			end++
		}
		if end == len(t.slots)-1 {
			t.slots = append(t.slots, tableSlot{})
		}
		copy(t.slots[i+1:end+1], t.slots[i:end])
		t.used++
	}
	t.slots[i] = tableSlot{id: id, entry: e}
	return &t.slots[i].entry
}

// delAt empties slot i, which must hold a link, by backward shift: every
// following link that is displaced from its home moves one slot toward
// it, up to the first that is not, or the first empty slot. Links below
// slot i never move, so slots deleted highest first each still hold the
// link they held before the first deletion.
func (t *linkTable) delAt(i int) {
	j := i + 1
	for t.slots[j].algo != ctl.AlgoDefault && t.home(t.hash(t.slots[j].id)) < j {
		j++
	}
	copy(t.slots[i:j-1], t.slots[i+1:j])
	t.slots[j-1] = tableSlot{}
	t.used--
}

// walk shows visit every link exactly once, in ascending slot order, with
// the slot it is in, deletes those it reports true for and returns how
// many that was. visit may update the entry in place, tier included; the
// pointer is good until the next deletion. A deletion moves only links
// above it, so the slot visit saw a kept link in still holds that link
// when the walk ends.
func (t *linkTable) walk(visit func(i int, id uint64, e *entry) bool) int {
	n := 0
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; s.algo != ctl.AlgoDefault && visit(i, s.id, &s.entry) {
			t.delAt(i) // may pull the next link into slot i: look at it again
			n++
		} else {
			i++
		}
	}
	return n
}

// grow copies the table, in order, into one with half again as many home
// slots.
func (t *linkTable) grow() {
	old := t.slots
	t.homes += t.homes / 2
	t.slots = make([]tableSlot, int(t.homes)+tableSlack)
	next := 0
	for i := range old {
		if old[i].algo == ctl.AlgoDefault {
			continue
		}
		at := max(t.home(t.hash(old[i].id)), next)
		for at >= len(t.slots)-1 {
			t.slots = append(t.slots, tableSlot{})
		}
		t.slots[at] = old[i]
		next = at + 1
	}
}
