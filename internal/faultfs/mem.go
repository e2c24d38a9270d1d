package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"
)

// Mem is an FS held in memory: a map from cleaned path to file bytes.
// Positional reads and writes behave as *os.File's do — a write past the end
// zero-fills the gap, a read that reaches the end returns what it got with
// io.EOF — and errors carry the same fs.ErrExist / fs.ErrNotExist kinds.
// Directories are implicit: MkdirAll does nothing and ReadDir lists the
// files directly under dir. Sync is a no-op, since nothing outlives the
// process. The zero value is an empty file system; safe for concurrent use.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile is one file's bytes. Every handle to it shares them, and a handle
// keeps working after the file is removed, as an unlinked file does.
type memFile struct {
	mu   sync.Mutex
	data []byte
}

var errNegative = errors.New("faultfs: negative offset")

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

// MkdirAll implements FS.
func (m *Mem) MkdirAll(string) error { return nil }

// ReadDir implements FS: the names of dir's files, sorted, as os.ReadDir
// returns them.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for p := range m.files {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	slices.Sort(names)
	return names, nil
}

// Open implements FS.
func (m *Mem) Open(path string) (File, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.files[path]; f != nil {
		return f, nil
	}
	return nil, notExist("open", path)
}

// Create implements FS.
func (m *Mem) Create(path string) (File, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrExist}
	}
	if m.files == nil {
		m.files = map[string]*memFile{}
	}
	f := new(memFile)
	m.files[path] = f
	return f, nil
}

// Remove implements FS.
func (m *Mem) Remove(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] == nil {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegative
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	if off < int64(len(f.data)) {
		n = copy(p, f.data[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegative
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resize(max(off+int64(len(p)), int64(len(f.data))))
	return copy(f.data[off:], p), nil
}

func (f *memFile) Truncate(size int64) error {
	if size < 0 {
		return errNegative
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resize(size)
	return nil
}

// resize cuts the file to size bytes or zero-fills it out to them. Caller
// holds f.mu.
func (f *memFile) resize(size int64) {
	if n := size - int64(len(f.data)); n > 0 {
		f.data = append(f.data, make([]byte, n)...)
	}
	f.data = f.data[:size]
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}
