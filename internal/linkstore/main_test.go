package linkstore

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"softrate/internal/bitutil"
)

// TestMain pins the key every store in this suite hashes its tables with,
// so a failure reproduces. LINKSTORE_HASH_SEED overrides it: CI runs the
// suite under a second key, since the key may change scan and spill order
// but never a decision.
func TestMain(m *testing.M) {
	seed := uint64(0x5eed)
	if s := os.Getenv("LINKSTORE_HASH_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "LINKSTORE_HASH_SEED:", err)
			os.Exit(2)
		}
		seed = v
	}
	bitutil.HashSeed = func() uint64 { return seed }
	os.Exit(m.Run())
}
