package coldstore

import (
	"encoding/binary"
	"fmt"
	"slices"

	"softrate/internal/faultfs"
)

// recoverDir rebuilds the tier's tables from the segment files in dir. It
// loads every segment in ID order, so later segments supersede earlier
// ones (and later offsets earlier ones), and resumes the highest as the
// active one; an empty directory gets no segment. On error every file it
// opened is closed.
func recoverDir(fs faultfs.FS, dir string) (t tables, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return t, err
	}
	var ids []uint32
	for _, name := range names {
		var id uint32
		if n, _ := fmt.Sscanf(name, "seg-%08d.slog", &id); n == 1 && name == segName(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	t.maxSegs = maxSegSlots
	defer func() {
		if err != nil {
			for _, sg := range t.segs {
				sg.f.Close()
			}
		}
	}()
	for _, id := range ids {
		f, err := fs.Open(segPath(dir, id))
		if err != nil {
			return t, err
		}
		sg := &segment{id: id, f: f}
		if err := t.addSegment(sg); err != nil {
			f.Close()
			return t, err
		}
		if err := t.load(sg, segPath(dir, id)); err != nil {
			return t, err
		}
		t.active, t.nextSeg = sg, id+1
	}
	return t, nil
}

// load reads segment sg, whose file is at path, and places its records in
// the index up to the first frame that is not whole and intact. It starts
// a torn tail — a crash mid-commit — and load truncates it away, so a
// later append can never concatenate into it, and counts it. A header
// torn by a crash during creation is rewritten.
func (t *tables) load(sg *segment, path string) error {
	size, err := sg.f.Size()
	if err != nil {
		return err
	}
	if size < headerLen {
		return writeHeader(sg)
	}
	if size > maxSegOffset {
		return fmt.Errorf("coldstore: %s: %d bytes is beyond the %d-byte offset an index entry carries", path, size, int64(maxSegOffset))
	}
	data := make([]byte, size)
	if _, err := sg.f.ReadAt(data, 0); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(data[0:4]) != segMagic || binary.LittleEndian.Uint32(data[4:8]) != segVersion {
		return fmt.Errorf("coldstore: %s: not a cold-tier segment", path)
	}
	off := headerLen
	for off < len(data) {
		r, n := decodeRecord(data[off:])
		if n > len(data)-off || !intact(data[off:off+n]) {
			break // a short frame, a width past the tail or a partial write
		}
		t.place(r.LinkID, r.Algo, sg, int64(off), len(r.State))
		off += n
	}
	if sg.size = int64(off); off == len(data) {
		return nil
	}
	t.tornTails++
	return sg.f.Truncate(sg.size)
}
