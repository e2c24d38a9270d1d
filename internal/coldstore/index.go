package coldstore

import "softrate/internal/bitutil"

// loc is where one record lives, packed so that sorting raw values sorts
// by segment, then offset: [segment slot u16 | byte offset u32 | state
// width u16]. A record's offset is never 0 (the segment header comes
// first), so the zero loc marks an empty index slot.
type loc uint64

const (
	// maxSegOffset is the largest record offset a loc can carry, and so
	// the hard bound on a segment's size.
	maxSegOffset = 1<<32 - 1
	// maxSegSlots is the number of segments that can be live at once.
	maxSegSlots = 1 << 16
)

func makeLoc(slot uint16, off int64, width int) loc {
	return loc(slot)<<48 | loc(uint32(off))<<16 | loc(uint16(width))
}

func (l loc) slot() uint16 { return uint16(l >> 48) }
func (l loc) off() int64   { return int64(uint32(l >> 16)) }
func (l loc) width() int   { return int(uint16(l)) }

// recLen is the record's on-disk length, frame included.
func (l loc) recLen() int { return recOverhead + l.width() }

// indexSlot is one 16-byte table entry: four to a cache line, never
// straddling one.
type indexSlot struct {
	key uint64
	loc loc
}

const (
	// indexParts is the number of independently grown tables the index
	// is split into (by the hash's top bits). A growth step copies one of
	// them — 1/64 of the index — so no insert ever pays for the whole.
	indexParts     = 64
	indexPartShift = 64 - 6
	// A partition grows by half when an insert would take it past 17/20
	// full, so its load swings between 0.57 and 0.85 — but partitions
	// start at staggered sizes (indexFirstHomes plus up to half again, by
	// partition number) and so grow at different times: the index as a
	// whole stays near 23 bytes per link at every population instead of
	// swinging between 19 and 28, and two growth-step copies of each
	// entry per insert pay for it.
	indexLoadNum, indexLoadDen = 17, 20
	indexFirstHomes            = 64
	// indexSlack is how many slots past the last home a partition starts
	// with for the entries displaced off its end (there is no wrap-around);
	// at these loads a displacement of 64 has probability below e^-20,
	// and an insert that needs more lengthens the slack by a slot.
	indexSlack = 64
)

// index is the cold tier's linkID → loc table: open addressing with
// linear probing kept in hash order (Robin Hood), backward-shift
// deletion — no tombstones, so probe lengths depend only on the current
// population — and capacities that are not powers of two.
//
// A partition has n home slots and a little slack after them. An entry's
// home is the multiplicative range reduction of its 32-bit hash onto
// [0, n), which is monotone in the hash; entries sit in hash order, each
// at or after its home with no empty slot in between, and the last slot
// is always empty. A lookup therefore stops at the first empty slot or
// larger hash, hit or miss alike, and growing is one in-order copy.
type index struct {
	parts [indexParts]indexPart
	n     int
}

type indexPart struct {
	slots []indexSlot // homes, then slack; the last is never filled
	homes int
	used  int
}

// hashSeed keys the index hash for the life of the process.
var hashSeed = bitutil.HashSeed()

// hash32 orders a partition's entries; the same mix's top bits pick the
// partition.
func hash32(id uint64) uint32 { return uint32(bitutil.Mix64(id^hashSeed) >> 24) }

func (p *indexPart) home(h uint32) int { return int(uint64(h) * uint64(p.homes) >> 32) }

// part returns id's partition number and its hash there.
func part(id uint64) (int, uint32) {
	m := bitutil.Mix64(id ^ hashSeed)
	return int(m >> indexPartShift), uint32(m >> 24)
}

func (ix *index) len() int { return ix.n }

// find returns the slot holding id, or the slot an insert of id belongs
// in: the first at or after its home that is empty or holds a larger
// hash. p must have slots.
func (p *indexPart) find(id uint64, h uint32) (i int, found bool) {
	for i = p.home(h); ; i++ {
		s := &p.slots[i]
		if s.loc == 0 {
			return i, false
		}
		if s.key == id {
			return i, true
		}
		if hash32(s.key) > h {
			return i, false
		}
	}
}

// get returns the link's location.
func (ix *index) get(id uint64) (loc, bool) {
	k, h := part(id)
	p := &ix.parts[k]
	if p.used == 0 {
		return 0, false
	}
	i, found := p.find(id, h)
	if !found {
		return 0, false
	}
	return p.slots[i].loc, true
}

// put points the link at l and returns the location it replaces, if any.
func (ix *index) put(id uint64, l loc) (old loc, replaced bool) {
	k, h := part(id)
	p := &ix.parts[k]
	if (p.used+1)*indexLoadDen > p.homes*indexLoadNum {
		// Growing before the lookup costs a supersede at the threshold one
		// early step, and saves a second lookup after every real one.
		p.grow(k)
	}
	i, found := p.find(id, h)
	if found {
		old = p.slots[i].loc
		p.slots[i].loc = l
		return old, true
	}
	// Open slot i by moving everything up to the next empty slot one to
	// the right. The last slot stays empty: a cluster that reaches it gets
	// one more slot of slack, however its hashes are spread.
	e := i
	for p.slots[e].loc != 0 {
		e++
	}
	if e == len(p.slots)-1 {
		p.slots = append(p.slots, indexSlot{})
	}
	copy(p.slots[i+1:e+1], p.slots[i:e])
	p.slots[i] = indexSlot{key: id, loc: l}
	p.used++
	ix.n++
	return 0, false
}

// del removes the link and returns where it was.
func (ix *index) del(id uint64) (loc, bool) {
	k, h := part(id)
	p := &ix.parts[k]
	if p.used == 0 {
		return 0, false
	}
	i, found := p.find(id, h)
	if !found {
		return 0, false
	}
	old := p.slots[i].loc
	// Backward shift: every following entry that is displaced from its
	// home moves one slot toward it, up to the first that is not, or the
	// first empty slot.
	j := i + 1
	for p.slots[j].loc != 0 && p.home(hash32(p.slots[j].key)) < j {
		j++
	}
	copy(p.slots[i:j-1], p.slots[i+1:j])
	p.slots[j-1] = indexSlot{}
	p.used--
	ix.n--
	return old, true
}

// grow copies partition number k, in order, into one with half again as
// many home slots.
func (p *indexPart) grow(k int) {
	old := p.slots
	if p.homes == 0 {
		// Partition k of n starts at (1 + k/2n) × indexFirstHomes.
		p.homes = indexFirstHomes + k*indexFirstHomes/(2*indexParts)
	} else {
		p.homes += p.homes / 2
	}
	p.slots = make([]indexSlot, p.homes+indexSlack)
	next := 0
	for _, s := range old {
		if s.loc == 0 {
			continue
		}
		i := max(p.home(hash32(s.key)), next)
		for i >= len(p.slots)-1 {
			p.slots = append(p.slots, indexSlot{})
		}
		p.slots[i] = s
		next = i + 1
	}
}
