package phy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"softrate/internal/cpufeat"
)

// berModelDigest is the SHA-256 of DefaultBERModel's rows, its
// interpolation tables and its BER and λ at every 1/8 dB from -4 to 34 dB.
const berModelDigest = "78ba19ae7c05ccfb72edacecfe920201febb8194a9769a58617c94916ef31e11"

// TestDefaultBERModelDigest pins every bit of the embedded calibration
// and of what trace generation reads from it.
func TestDefaultBERModelDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" || !cpufeat.AVX2 || !cpufeat.FMA {
		t.Skip("digests are pinned on amd64 with AVX2 and FMA: without FMA math.Exp takes another code path, and other architectures may fuse multiply-adds")
	}
	m := DefaultBERModel
	var buf []byte
	put := func(vs ...float64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	put(m.SNRdB...)
	for ri := range m.BER {
		put(m.BER[ri]...)
		put(m.Lambda[ri]...)
	}
	tab := m.tables()
	for _, ts := range [][]logTable{tab.ber, tab.lam} {
		for _, lt := range ts {
			put(lt.ceil, lt.floor, lt.extB, lt.extSlope)
			put(lt.a...)
			put(lt.d...)
		}
	}
	for ri := range m.BER {
		for snr := -4.0; snr <= 34; snr += 0.125 {
			put(m.BERAt(ri, snr), m.LambdaAt(ri, snr))
		}
	}
	sum := sha256.Sum256(buf)
	if d := hex.EncodeToString(sum[:]); d != berModelDigest {
		t.Fatalf("DefaultBERModel digest %s, pinned %s", d, berModelDigest)
	}
}
