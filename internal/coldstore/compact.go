package coldstore

import (
	"fmt"
	"time"
)

// compactable reports whether sg is sealed and either fully dead or
// past the dead-ratio threshold.
func (s *Store) compactable(sg *segment) bool {
	return sg != s.active && (sg.liveRecs == 0 || sg.deadRatio() >= s.cfg.CompactRatio)
}

// kickIfCompactable wakes the background compactor, starting it if it is
// not running, when sg has become worth rewriting. A segment's standing
// changes only when one of its records dies or when it is sealed, so
// checking the segment just touched at those two points sees every
// crossing without scanning the segment list per record. sg may be nil.
// Caller holds s.mu.
func (s *Store) kickIfCompactable(sg *segment) {
	if sg == nil || !s.compactable(sg) || s.closed {
		return
	}
	s.kicked = true
	if !s.compacting {
		s.compacting = true
		s.done.Add(1)
		go s.compactLoop()
		return
	}
	select { // cut short a running compactor's retry wait
	case s.wake <- struct{}{}:
	default:
	}
}

// compactLoop compacts until a pass reclaims nothing and no kick came in
// meanwhile, or until Close. Kicks come only when a segment's standing
// changes, so a compaction that fails — a transient read or write fault, a
// Remove that did not take — would wait for some other segment's kick; the
// loop kicks itself after compactRetry instead, or at once on a new kick.
func (s *Store) compactLoop() {
	defer s.done.Done()
	for s.takeKick() {
		progressed, err := s.CompactOnce()
		for err == nil && progressed {
			progressed, err = s.CompactOnce()
		}
		if err != nil {
			select {
			case <-s.stopCh:
				continue
			case <-s.wake:
			case <-time.After(compactRetry):
			}
			s.mu.Lock()
			s.kicked = true
			s.mu.Unlock()
		}
	}
}

// takeKick consumes a pending kick for the compactor, or, with none
// pending or the store closed, records that the compactor has stopped.
func (s *Store) takeKick() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kicked && !s.closed {
		s.kicked = false
		return true
	}
	s.compacting = false
	return false
}

// CompactOnce rewrites (or, when fully dead, deletes) the sealed
// segment with the worst dead ratio at or past the threshold. Returns
// whether a segment was reclaimed. Exported for tests and for callers
// that want compaction on their own schedule.
//
// The victim is rewritten a slice at a time, each slice under its own
// hold of s.mu, so restores and spills run in between: a record may be
// restored or superseded before its slice is read, and it is live only if
// its index entry still points at it then. The victim is removed once no
// live record is left in it. A failed slice leaves the records moved so
// far where they went and the rest in the victim, for a later compaction
// to finish.
func (s *Store) CompactOnce() (_ bool, err error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { // runs before the unlock: every return holds s.mu
		if err != nil {
			s.compactFailures++
		}
	}()
	if s.closed {
		return false, nil
	}
	var victim *segment
	for _, sg := range s.segs {
		if sg == nil || !s.compactable(sg) {
			continue
		}
		if victim == nil || sg.deadRatio() > victim.deadRatio() {
			victim = sg
		}
	}
	if victim == nil {
		return false, nil
	}
	c := compaction{victim: victim, off: headerLen}
	if victim.liveRecs > 0 {
		c.buf = make([]byte, compactSlice)
	}
	for victim.liveRecs > 0 && c.off < victim.size {
		if err := s.compactSliceLocked(&c); err != nil {
			return false, err
		}
		hook := s.betweenSlices
		s.mu.Unlock()
		if hook != nil {
			hook()
		}
		s.mu.Lock()
		if s.closed {
			return false, nil
		}
	}
	if victim.liveRecs > 0 {
		// A dead frame whose width changed on disk hid the records after it.
		return false, fmt.Errorf("coldstore: %s: %d live records not found", segPath(s.cfg.Dir, victim.id), victim.liveRecs)
	}
	if err := s.removeSegment(victim); err != nil {
		return false, err
	}
	s.compactions++
	return true, nil
}

// compaction is one victim's rewrite in progress.
type compaction struct {
	victim *segment
	off    int64    // where the next slice starts
	buf    []byte   // the slice read, compactSlice bytes
	live   []Record // the slice's live records, pointing into buf
	out    []byte   // their serialization
}

// compactSliceLocked reads the victim's next slice and re-appends its
// live records through the ordinary put path, which supersedes their
// index entries (or, on error, changes none). A record the slice cuts off
// starts the next one. A live record whose frame fails its CRC fails the
// slice as a read fault does: re-appending it would give changed bytes a
// fresh CRC. It stays indexed where it is, and Take reports the mismatch.
// A dead one is dropped like any dead record. Caller holds s.mu.
func (s *Store) compactSliceLocked(c *compaction) error {
	data := c.buf[:min(int64(len(c.buf)), c.victim.size-c.off)]
	if _, err := c.victim.f.ReadAt(data, c.off); err != nil {
		return err
	}
	c.live = c.live[:0]
	rel := 0
	for rel < len(data) {
		r, n := decodeRecord(data[rel:])
		if n > len(data)-rel {
			break
		}
		if s.index.get(r.LinkID) == makeLoc(c.victim.slot, c.off+int64(rel), len(r.State)) {
			if !intact(data[rel : rel+n]) {
				return fmt.Errorf("coldstore: %s: link %d record failed its CRC", segPath(s.cfg.Dir, c.victim.id), r.LinkID)
			}
			c.live = append(c.live, r)
		}
		rel += n
	}
	if rel == 0 {
		// Every record is shorter than a slice: the bytes at off are not
		// one, and retrying would never get past them.
		return fmt.Errorf("coldstore: %s: no record at offset %d", segPath(s.cfg.Dir, c.victim.id), c.off)
	}
	var err error
	if c.out, err = s.putLocked(c.live, c.out); err != nil {
		return err
	}
	c.off += int64(rel)
	return nil
}
