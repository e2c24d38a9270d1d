package coldstore

const (
	// Restores walk the log roughly in the order it was written — links
	// idle out, spill and come back in arrival order — so a few aligned
	// blocks cover the records about to be asked for. The cache is a
	// fixed 48 × 16 KiB = 768 KiB, direct-mapped; its frames are
	// allocated on first fill. (On the benchmark's cold-churn workload 32
	// frames cost a tenth of the throughput and 64 add nothing.)
	blockShift  = 14
	blockSize   = 1 << blockShift
	cacheFrames = 48
)

// blockCache is a read-through cache of aligned segment blocks, filled
// only through the segment's faultfs.File — an injecting Config.FS sees
// every byte that ever reaches a caller.
//
// Coherence rests on segments being append-only. Bytes below a segment's
// committed size never change, so a cached byte can never go stale;
// a frame records how many of its bytes are filled (valid) and a read
// past that — the active segment's tail has grown since — fetches just
// the new suffix. Nothing at or past the committed size is ever read, so
// a failed append that is truncated and rewritten is never seen. A
// failed fill leaves valid where it was: a read error is returned, not
// cached. Frames of a deleted segment are dropped with it.
type blockCache struct {
	frames [cacheFrames]blockFrame
}

type blockFrame struct {
	sg    *segment // nil while the frame is unused
	block int64
	valid int // bytes of data filled from the file
	data  []byte
}

// read returns the n bytes at off in sg, which must lie below sg.size.
// The result aliases a frame or *scratch and is valid until the next
// read.
//
// A block is filled on its second touch. The first touch of a block
// only claims the frame and reads the record itself, exact-length, into
// *scratch: restores that land all over the log (links returning in an
// order unrelated to the one they left in) then cost one small read
// each, as they would uncached, instead of a block each. A record that
// straddles a block boundary is always read that way.
func (c *blockCache) read(sg *segment, off int64, n int, scratch *[]byte) ([]byte, error) {
	block := off >> blockShift
	rel := int(off & (blockSize - 1))
	// Consecutive blocks of one segment take consecutive frames, and the
	// per-segment stride keeps two segments' tails apart.
	fr := &c.frames[(uint64(block)+uint64(sg.id)*29)%cacheFrames]
	straddles := rel+n > blockSize
	if !straddles && fr.sg == sg && fr.block == block {
		if rel+n > fr.valid {
			if fr.data == nil {
				fr.data = make([]byte, blockSize)
			}
			start := block << blockShift
			end := int(min(sg.size-start, blockSize))
			if _, err := sg.f.ReadAt(fr.data[fr.valid:end], start+int64(fr.valid)); err != nil {
				return nil, err
			}
			fr.valid = end
		}
		return fr.data[rel : rel+n], nil
	}
	if !straddles {
		fr.sg, fr.block, fr.valid = sg, block, 0
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := sg.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// drop forgets every block of sg (the segment is being deleted).
func (c *blockCache) drop(sg *segment) {
	for i := range c.frames {
		if c.frames[i].sg == sg {
			c.frames[i].sg, c.frames[i].valid = nil, 0
		}
	}
}
