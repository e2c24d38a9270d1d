package main

import (
	"os"
	"path/filepath"
	"testing"

	"softrate/internal/trace"
)

func TestRejectsDurationUnderOneSlot(t *testing.T) {
	for _, d := range []string{"0.0005", "0", "-1", "NaN"} {
		path := filepath.Join(t.TempDir(), "z.gz")
		if code := run([]string{"-kind", "static", "-duration", d, "-o", path}); code != 2 {
			t.Errorf("-duration %s: exit %d, want 2", d, code)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("-duration %s: wrote %s", d, path)
		}
	}
}

func TestWritesLoadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gz")
	if code := run([]string{"-kind", "static", "-duration", "0.001", "-o", path}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lt, err := trace.LoadFile(path)
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
