package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMatchesProcCPUInfo checks the probe against the flags Linux reports,
// which it clears for extensions whose register state the OS does not save.
func TestMatchesProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		if AVX2 || FMA || AVX512 {
			t.Fatalf("%s reports AVX2 %v FMA %v AVX512 %v, want none", runtime.GOARCH, AVX2, FMA, AVX512)
		}
		t.Skip("/proc/cpuinfo flags are checked on linux/amd64")
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	want512 := flags["avx512f"] && flags["avx512dq"] && flags["avx512vl"]
	if AVX2 != flags["avx2"] || FMA != flags["fma"] || AVX512 != want512 {
		t.Fatalf("probe AVX2 %v FMA %v AVX512 %v, /proc/cpuinfo %v %v %v",
			AVX2, FMA, AVX512, flags["avx2"], flags["fma"], want512)
	}
}
