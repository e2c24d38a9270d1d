package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/cpufeat"
)

// walkingTraceDigest is the SHA-256 of traceDigest over a 2 s Table 4
// walking trace (channel seed 1, generation seed 501, as mkWalkingTrace
// in internal/experiments draws them).
const walkingTraceDigest = "0409a197cb733313c2c015008578a5aad5b7e9115fd6ab6c28170c5094aef469"

// TestWalkingTraceDigest pins every bit of one Table 4 walking trace.
func TestWalkingTraceDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" || !cpufeat.AVX2 || !cpufeat.FMA {
		t.Skip("digests are pinned on amd64 with AVX2 and FMA: without FMA math.Exp takes another code path, and other architectures may fuse multiply-adds")
	}
	model := channel.NewTable4Walking(rand.New(rand.NewSource(1)))
	lt := Generate(GenConfig{Model: model, Duration: 2, Seed: 501})
	if d := traceDigest(lt); d != walkingTraceDigest {
		t.Fatalf("walking trace digest %s, pinned %s", d, walkingTraceDigest)
	}
}

// traceDigest hashes a trace's header and every snapshot field, floats
// by their bits, in grid order.
func traceDigest(lt *LinkTrace) string {
	h := sha256.New()
	putFloat(h, lt.Interval)
	putUint(h, uint64(lt.FrameBits))
	for _, snaps := range lt.Snapshots {
		putUint(h, uint64(len(snaps)))
		for _, s := range snaps {
			var flags uint64
			if s.Detected {
				flags |= 1
			}
			if s.Delivered {
				flags |= 2
			}
			putUint(h, flags)
			putFloat(h, s.DeliverProb)
			putFloat(h, s.BER)
			putFloat(h, s.SNRdB)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putFloat(h hash.Hash, v float64) { putUint(h, math.Float64bits(v)) }

func putUint(h hash.Hash, v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
