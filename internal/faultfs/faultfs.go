// Package faultfs is the storage plane's file abstraction plus a
// deterministic fault injector over it. The cold tier (internal/coldstore)
// does all its I/O through the File/FS interfaces here, so a chaos run can
// make the "disk" return EIO mid-spill, run out of space, tear a write,
// fail an fsync, or stall — without test-only forks in the store and
// without touching a real device.
//
// Injection is reproducible by construction: an Injector draws one
// SplitMix64 value per fault decision from a single seeded stream, so the
// same seed and the same logical sequence of file operations produce the
// same faults on every run. (The cold tier serializes its file operations
// under one store mutex, which makes the operation sequence itself
// deterministic for a deterministic workload — the property linkstore's
// TestColdChaosChurnExact and softrated's TestCrashRestartUnderFaults
// depend on.)
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"softrate/internal/bitutil"
)

// File is the slice of *os.File the cold tier uses: positional reads and
// writes, truncation, sync, close, and size. No cursor, no append mode —
// every offset is explicit, which is also what makes the injector's
// short-write semantics well defined.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// FS is the directory-level surface: everything the cold tier does to the
// filesystem besides per-file I/O.
type FS interface {
	// MkdirAll creates dir (and parents) if absent.
	MkdirAll(dir string) error
	// ReadDir lists the names of dir's entries.
	ReadDir(dir string) ([]string, error)
	// Open opens an existing file read-write.
	Open(path string) (File, error)
	// Create creates a new file read-write, failing if it exists.
	Create(path string) (File, error)
	// Remove deletes a file.
	Remove(path string) error
}

// Injected fault errors. Both wrap the matching errno, so errors.Is works
// against either the sentinel or syscall.EIO / syscall.ENOSPC.
var (
	ErrIO      = fmt.Errorf("faultfs: injected I/O fault: %w", syscall.EIO)
	ErrNoSpace = fmt.Errorf("faultfs: injected disk full: %w", syscall.ENOSPC)
)

// OS is the passthrough FS over the real filesystem.
type OS struct{}

type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

// Open implements FS.
func (OS) Open(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Create implements FS.
func (OS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// Rates is a fault schedule: per-operation probabilities in [0, 1] plus
// the stall duration and the ENOSPC byte budget. The zero value injects
// nothing.
type Rates struct {
	// ReadErr fails a ReadAt with ErrIO. NOTE: the cold tier answers a
	// failed restore with a fresh controller, so read faults change
	// decisions by design — leave this zero in chaos runs whose decisions
	// are checked exactly, and use it only in tests that assert the
	// fallthrough itself.
	ReadErr float64
	// WriteErr fails a WriteAt with ErrIO before any byte lands.
	WriteErr float64
	// ShortWrite persists a strict prefix of a WriteAt, then fails with
	// ErrIO — the torn-write shape recovery must truncate away.
	ShortWrite float64
	// SyncErr fails a Sync with ErrIO.
	SyncErr float64
	// Stall sleeps StallDur before a read, write or sync proceeds.
	Stall    float64
	StallDur time.Duration
	// WriteBudget, when > 0, bounds the total bytes writable through the
	// injector; writes past it persist what fits and fail with
	// ErrNoSpace (disk-full semantics).
	WriteBudget int64
}

// ChaosRates is the standard end-to-end chaos mix for a given fault rate:
// write errors, torn writes, failed syncs and small stalls — everything
// that can hit the spill/compaction path — with the read path left clean
// so answered decisions stay byte-identical (a failed spill keeps state
// in RAM; a failed restore would not). softrated -chaos-cold builds its
// schedule through this, as do the in-process chaos tests, so both inject
// the same way.
func ChaosRates(rate float64) Rates {
	if rate <= 0 {
		return Rates{}
	}
	return Rates{
		WriteErr:   rate,
		ShortWrite: rate / 2,
		SyncErr:    rate,
		Stall:      rate,
		StallDur:   2 * time.Millisecond,
	}
}

// Stats counts the faults an Injector has delivered, by kind.
type Stats struct {
	ReadFaults  uint64 `json:"read_faults"`
	WriteFaults uint64 `json:"write_faults"`
	ShortWrites uint64 `json:"short_writes"`
	SyncFaults  uint64 `json:"sync_faults"`
	Stalls      uint64 `json:"stalls"`
	NoSpace     uint64 `json:"no_space"`
}

// Injector is an FS that wraps another FS and injects faults from a
// seeded schedule. Safe for concurrent use; concurrent callers serialize
// on the PRNG, so determinism additionally requires the caller to
// serialize the operations themselves (the cold tier does).
type Injector struct {
	base  FS
	rates Rates
	armed atomic.Bool

	mu      sync.Mutex
	prng    uint64
	written int64 // bytes consumed from WriteBudget

	readFaults  atomic.Uint64
	writeFaults atomic.Uint64
	shortWrites atomic.Uint64
	syncFaults  atomic.Uint64
	stalls      atomic.Uint64
	noSpace     atomic.Uint64
}

// Wrap builds an Injector over base with the given seed and schedule.
// The injector starts armed; see Arm.
func Wrap(base FS, seed uint64, r Rates) *Injector {
	in := &Injector{base: base, rates: r, prng: seed}
	in.armed.Store(true)
	return in
}

// Arm enables or disables injection. While disarmed the injector is a
// pure passthrough and draws nothing from the schedule stream, so a
// harness can open and recover a store cleanly, arm, and still get the
// same armed fault sequence for a given seed — the "healthy at startup,
// faulty under load" chaos shape.
func (in *Injector) Arm(on bool) { in.armed.Store(on) }

// Stats snapshots the delivered-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		ReadFaults:  in.readFaults.Load(),
		WriteFaults: in.writeFaults.Load(),
		ShortWrites: in.shortWrites.Load(),
		SyncFaults:  in.syncFaults.Load(),
		Stalls:      in.stalls.Load(),
		NoSpace:     in.noSpace.Load(),
	}
}

// roll draws the next schedule value and reports whether an event with
// probability p fires. One draw per call: the stream position depends
// only on how many decisions have been made, never on their outcomes.
func (in *Injector) roll(p float64) bool {
	if p <= 0 || !in.armed.Load() {
		return false
	}
	in.mu.Lock()
	in.prng += 0x9e3779b97f4a7c15 // SplitMix64 increment; Mix64 finalizes
	v := bitutil.Mix64(in.prng)
	in.mu.Unlock()
	return float64(v>>11)/(1<<53) < p
}

// maybeStall sleeps the schedule's stall duration when the stall event
// fires for this operation.
func (in *Injector) maybeStall() {
	if in.roll(in.rates.Stall) {
		in.stalls.Add(1)
		if in.rates.StallDur > 0 {
			time.Sleep(in.rates.StallDur)
		}
	}
}

// chargeWrite consumes n bytes of the write budget, returning how many
// fit. With no budget configured everything fits.
func (in *Injector) chargeWrite(n int) int {
	if in.rates.WriteBudget <= 0 || !in.armed.Load() {
		return n
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rem := in.rates.WriteBudget - in.written
	if rem < 0 {
		rem = 0
	}
	if int64(n) <= rem {
		in.written += int64(n)
		return n
	}
	in.written = in.rates.WriteBudget
	return int(rem)
}

// MkdirAll implements FS (never faulted: directory metadata is not the
// failure surface under study).
func (in *Injector) MkdirAll(dir string) error { return in.base.MkdirAll(dir) }

// ReadDir implements FS (never faulted).
func (in *Injector) ReadDir(dir string) ([]string, error) { return in.base.ReadDir(dir) }

// Open implements FS.
func (in *Injector) Open(path string) (File, error) {
	f, err := in.base.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f}, nil
}

// Create implements FS.
func (in *Injector) Create(path string) (File, error) {
	f, err := in.base.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f}, nil
}

// Remove implements FS (never faulted).
func (in *Injector) Remove(path string) error { return in.base.Remove(path) }

// faultFile wraps one File with its Injector's schedule.
type faultFile struct {
	in *Injector
	f  File
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	in := ff.in
	in.maybeStall()
	if in.roll(in.rates.ReadErr) {
		in.readFaults.Add(1)
		return 0, ErrIO
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	in := ff.in
	in.maybeStall()
	if in.roll(in.rates.WriteErr) {
		in.writeFaults.Add(1)
		return 0, ErrIO
	}
	if len(p) > 1 && in.roll(in.rates.ShortWrite) {
		// Tear the write: persist a strict prefix, then fail. The prefix
		// length comes from the same schedule stream, so it reproduces.
		in.shortWrites.Add(1)
		in.mu.Lock()
		in.prng += 0x9e3779b97f4a7c15
		cut := 1 + int(bitutil.Mix64(in.prng)%uint64(len(p)-1))
		in.mu.Unlock()
		cut = in.chargeWrite(cut)
		n, err := ff.f.WriteAt(p[:cut], off)
		if err != nil {
			return n, err
		}
		return n, ErrIO
	}
	fit := in.chargeWrite(len(p))
	if fit < len(p) {
		in.noSpace.Add(1)
		n, err := ff.f.WriteAt(p[:fit], off)
		if err != nil {
			return n, err
		}
		return n, ErrNoSpace
	}
	return ff.f.WriteAt(p, off)
}

func (ff *faultFile) Truncate(size int64) error { return ff.f.Truncate(size) }

func (ff *faultFile) Sync() error {
	in := ff.in
	in.maybeStall()
	if in.roll(in.rates.SyncErr) {
		in.syncFaults.Add(1)
		return ErrIO
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error         { return ff.f.Close() }
func (ff *faultFile) Size() (int64, error) { return ff.f.Size() }

// IsInjected reports whether err is (or wraps) an injected faultfs error.
func IsInjected(err error) bool {
	return errors.Is(err, ErrIO) || errors.Is(err, ErrNoSpace)
}
