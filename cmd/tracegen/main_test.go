package main

import (
	"os"
	"path/filepath"
	"testing"

	"softrate/internal/trace"
)

// TestRejectsDurationUnderOneSlot: a duration under one slot, and the
// other bad inputs, exit 2 before any trace is generated or written.
func TestRejectsDurationUnderOneSlot(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "static", "-duration", "0.0005"},
		{"-kind", "static", "-duration", "0"},
		{"-kind", "static", "-duration", "-1"},
		{"-kind", "static", "-duration", "NaN"},
		{"-kind", "static", "-snr", "NaN"},
		{"-kind", "fading", "-snr", "-Inf"},
		{"-kind", "fading", "-doppler", "NaN"},
		{"-kind", "static", "-payload", "-5"},
		{"-kind", "static", "-payload", "0"},
	} {
		path := filepath.Join(t.TempDir(), "z.gz")
		if code := run(append(args, "-o", path)); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: wrote %s", args, path)
		}
	}
}

func TestWritesLoadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gz")
	if code := run([]string{"-kind", "static", "-duration", "0.001", "-o", path}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lt, err := trace.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lt.Snapshots[0]); n != 1 {
		t.Fatalf("%d slots, want 1", n)
	}
	lt.At(0, 0.5) // wraps onto the one slot
}

func TestWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if code := run([]string{"-kind", "static", "-duration", "0.01", "-o", "/dev/full"}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
