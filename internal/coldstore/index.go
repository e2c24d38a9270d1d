package coldstore

import (
	"softrate/internal/bitutil"
	"softrate/internal/idtable"
)

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

const (
	// indexParts is the number of idtable.Dense tables the index is split
	// into, grown one at a time so no insert ever pays for the whole. They
	// start at staggered sizes (64 homes plus up to half again, by
	// partition number) and so grow at different times: the index stays
	// near 23 bytes per link at every population instead of swinging
	// between 19 and 28, and two growth-step copies of each entry per
	// insert pay for it.
	indexParts      = 64
	indexFirstLinks = 54 // 64 homes at the Dense load
)

// index is the cold tier's linkID → loc table, in 16-byte slots: four to
// a cache line, never straddling one. A partition is made by its first
// insert.
type index struct {
	parts [indexParts]idtable.Table[loc]
	made  uint64 // bit k is set once partition k is made
}

// hashSeed keys the index for the life of the process.
var hashSeed = bitutil.HashSeed()

// part returns id's partition number and mix: one keyed mix picks the
// partition by its low bits and orders the partition by its top ones.
func part(id uint64) (int, uint64) {
	m := idtable.Mix(hashSeed, id)
	return int(m % indexParts), m
}

func (ix *index) len() (n int) {
	for k := range ix.parts {
		n += ix.parts[k].Len()
	}
	return n
}

// get returns the link's location, or 0.
func (ix *index) get(id uint64) loc {
	if k, m := part(id); ix.made&(1<<k) != 0 {
		if l := ix.parts[k].Get(id, m); l != nil {
			return *l
		}
	}
	return 0
}

// put points the link at l and returns the location it replaced, or 0.
func (ix *index) put(id uint64, l loc) (old loc) {
	k, m := part(id)
	if ix.made&(1<<k) == 0 {
		ix.made |= 1 << k
		ix.parts[k] = idtable.New[loc](hashSeed, indexFirstLinks+k*indexFirstLinks/(2*indexParts), idtable.Dense)
	}
	_, old = ix.parts[k].Put(id, m, l)
	return old
}

// del removes the link and returns where it was, or 0.
func (ix *index) del(id uint64) loc {
	if k, m := part(id); ix.made&(1<<k) != 0 {
		return ix.parts[k].Del(id, m)
	}
	return 0
}
