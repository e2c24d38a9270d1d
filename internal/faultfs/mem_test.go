package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// errKind names what an error is, without the path or wording that differ
// between file systems.
func errKind(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "EOF"
	case errors.Is(err, fs.ErrExist):
		return "exist"
	case errors.Is(err, fs.ErrNotExist):
		return "not-exist"
	}
	return "other"
}

// fsScript runs one fixed sequence of FS and File operations in dir and
// returns its transcript: every count, every byte read and the kind of
// every error. File systems that behave alike give the same transcript.
func fsScript(t *testing.T, fsys FS, dir string) string {
	t.Helper()
	var log strings.Builder
	note := func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) }
	a, b := filepath.Join(dir, "a.seg"), filepath.Join(dir, "b.seg")
	note("mkdir %s", errKind(fsys.MkdirAll(dir)))
	f, err := fsys.Create(a)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	_, err = fsys.Create(a)
	note("create again %s", errKind(err))
	_, err = fsys.Open(filepath.Join(dir, "missing"))
	note("open missing %s", errKind(err))

	n, err := f.WriteAt([]byte("header"), 0)
	note("write %d %s", n, errKind(err))
	n, err = f.WriteAt([]byte("tail"), 10) // past the end: a zero-filled gap
	note("write past end %d %s", n, errKind(err))
	size, err := f.Size()
	note("size %d %s", size, errKind(err))
	read := func(what string, len int, off int64) {
		p := make([]byte, len)
		n, err := f.ReadAt(p, off)
		note("read %s %d %q %s", what, n, p[:n], errKind(err))
	}
	read("whole", 14, 0)
	read("across EOF", 8, 8)
	read("at EOF", 4, 14)
	read("past EOF", 4, 20)

	note("truncate down %s", errKind(f.Truncate(3)))
	size, _ = f.Size()
	note("size %d", size)
	note("truncate up %s", errKind(f.Truncate(7)))
	size, _ = f.Size()
	note("size %d", size)
	read("after truncates", 16, 0)

	g, err := fsys.Create(b)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer g.Close()
	names, err := fsys.ReadDir(dir)
	note("readdir %v %s", names, errKind(err))
	note("remove %s", errKind(fsys.Remove(a)))
	note("remove again %s", errKind(fsys.Remove(a)))
	_, err = fsys.Open(a)
	note("open removed %s", errKind(err))
	read("through a removed file's handle", 4, 0)
	note("close %s", errKind(f.Close()))
	names, err = fsys.ReadDir(dir)
	note("readdir %v %s", names, errKind(err))
	return log.String()
}

// TestMemMatchesOS pins Mem to the real file system: one script, run on a
// temporary directory, on a Mem, and on a Mem behind a disarmed injector,
// must give one transcript.
func TestMemMatchesOS(t *testing.T) {
	want := fsScript(t, OS{}, t.TempDir())
	if !strings.Contains(want, `read across EOF 6 "\x00\x00tail" EOF`) {
		t.Fatalf("the script no longer reads across EOF:\n%s", want)
	}
	inj := Wrap(&Mem{}, 1, Rates{ReadErr: 1, WriteErr: 1, SyncErr: 1, WriteBudget: 1})
	inj.Arm(false)
	for name, fsys := range map[string]FS{"mem": &Mem{}, "disarmed injector over mem": inj} {
		if got := fsScript(t, fsys, "/cold"); got != want {
			t.Errorf("%s:\n%s\nthe real file system:\n%s", name, got, want)
		}
	}
}
