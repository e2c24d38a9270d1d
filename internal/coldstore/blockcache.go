package coldstore

const (
	// Links that idle out together come back together, so restores walk
	// the log roughly in the order it was written — but only roughly: the
	// link store spills one batch per shard, in map order, so links that
	// left at the same moment are scattered over 64 shards' batches. The
	// cache has to hold that whole stretch of log, not a few streams'
	// worth of read-ahead, which is why its total size is what counts: on
	// the benchmark's cold-churn workload 48 frames of 4, 8 and 16 KiB
	// serve 0.87, 1.00 and 1.18 M decisions/s, 32 frames of 16 KiB cost a
	// tenth and 64 add nothing. It is a fixed 48 × 16 KiB = 768 KiB,
	// direct-mapped; a frame's block is allocated on its first fill.
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
// read. A record that straddles a block boundary is read directly,
// exact-length, into *scratch.
func (c *blockCache) read(sg *segment, off int64, n int, scratch *[]byte) ([]byte, error) {
	block := off >> blockShift
	rel := int(off & (blockSize - 1))
	if rel+n > blockSize {
		if cap(*scratch) < n {
			*scratch = make([]byte, n)
		}
		buf := (*scratch)[:n]
		if _, err := sg.f.ReadAt(buf, off); err != nil {
			return nil, err
		}
		return buf, nil
	}
	// Consecutive blocks of one segment take consecutive frames, and the
	// per-segment stride keeps two segments' tails apart.
	fr := &c.frames[(uint64(block)+uint64(sg.id)*29)%cacheFrames]
	if fr.sg != sg || fr.block != block {
		fr.sg, fr.block, fr.valid = sg, block, 0
	}
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

// drop forgets every block of sg (the segment is being deleted).
func (c *blockCache) drop(sg *segment) {
	for i := range c.frames {
		if c.frames[i].sg == sg {
			c.frames[i].sg, c.frames[i].valid = nil, 0
		}
	}
}
