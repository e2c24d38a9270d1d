package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"softrate/bench/report"
)

// spinScore counts iterations of a fixed arithmetic loop in 0.5 s on one
// goroutine. It measures nothing about the repository — only how much of
// a core this process is getting right now.
func spinScore() float64 {
	const slice = 1 << 14
	var x uint64 = 88172645463325252
	n := 0
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; n++ {
		for i := 0; i < slice; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	spinSink = x
	return float64(n) * slice
}

var spinSink uint64

// envStamp describes the build and the host. root is the repository (or
// checkout) root; scratch is where cold-tier and ring files go.
func envStamp(root, scratch string) report.Env {
	e := report.Env{
		GitSHA:     "none",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		ColdDirFS:  fsType(scratch),
		Network:    "loopback interface (127.0.0.1) and files under " + scratch + "; no link rate or disk hardware is measured",
		TreeDigest: treeDigest(root),
	}
	// The driver's checkout is not a git repository; there the tree
	// digest alone identifies the source that was built.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		e.GitDirty = err != nil || len(strings.TrimSpace(string(st))) > 0
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("magic-%#x", uint32(st.Type))
}

// treeDigest hashes every Go, assembly and module file under root except
// build output, in path order: the identity of the source actually built,
// available with or without git.
func treeDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go", ".s", ".mod":
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
