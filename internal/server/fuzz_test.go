package server

import (
	"math"
	"testing"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

// FuzzDecodeBatch throws arbitrary payloads at the request decoder.
// Properties checked on every input:
//
//   - no panic, ever (every transport feeds DecodeRequest peer-controlled
//     bytes after only a length check);
//   - exactly the payloads of the request shape — version byte 0x03 and
//     5+28·n bytes — can be accepted: anything shaped like the retired v1
//     (18·n bytes) or v2 (0x02 + 28·n bytes) framings is an error, never
//     ops;
//   - an accepted payload yields (len-5)/28 records holding only validated
//     field values (known kinds and algorithms, sane BER/airtime/SNR), and
//     a rejected one yields no ops and no tag;
//   - accepted batches survive a re-encode → decode round trip unchanged,
//     and re-encode to the very bytes that were decoded — decode is a
//     bijection onto the validated op space.
func FuzzDecodeBatch(f *testing.F) {
	// Seed corpus: valid requests, empty variants, the malformed shapes
	// the unit tests cover (truncation, bad kind, bad BER, bad algo, bad
	// flags, length confusions) and the retired framings.
	f.Add([]byte{})
	f.Add([]byte{VersionV3})
	v3 := AppendOpsV3(nil, 0x01020304, []linkstore.Op{
		{LinkID: 2, Algo: ctl.AlgoRRAA, Kind: core.KindBER, RateIndex: 1, BER: 1e-4, SNRdB: 11, Airtime: 1e-3, Delivered: true},
		{LinkID: math.MaxUint64, Algo: ctl.AlgoSampleRate, Kind: core.KindPostamble, RateIndex: 255, SNRdB: float32(math.NaN())},
	})
	f.Add(v3)
	f.Add(v3[:headerSizeV3])      // empty batch
	f.Add(v3[:len(v3)-1])         // truncated record
	f.Add(append(v3, 0, 0, 0, 0)) // length outside the request class
	mutate := func(off int, b ...byte) []byte {
		m := append([]byte(nil), v3...)
		copy(m[off:], b)
		return m
	}
	f.Add(mutate(headerSizeV3+9, byte(core.NumKinds)))                             // invalid kind
	f.Add(mutate(headerSizeV3+8, 250))                                             // unregistered algorithm
	f.Add(mutate(headerSizeV3+11, 0xfe))                                           // undefined flag bits
	f.Add(mutate(headerSizeV3+12, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)) // NaN BER bits
	f.Add(mutate(0, VersionV2))                                                    // request-sized, wrong version
	v2 := AppendOpsV2(nil, []linkstore.Op{{LinkID: 3, Algo: ctl.AlgoSampleRate, Kind: core.KindSilentLoss, SNRdB: float32(math.NaN())}})
	f.Add(v2)                                             // retired v2 framing
	f.Add(v2[:1])                                         // empty v2
	f.Add(make([]byte, 36))                               // retired v1 framing: two 18-byte records
	f.Add(append([]byte{VersionV3}, make([]byte, 17)...)) // v1-sized, request-led

	f.Fuzz(func(t *testing.T, payload []byte) {
		ops, reqID, tagged, err := DecodeRequest(payload, nil)
		isRequest := len(payload) >= headerSizeV3 && payload[0] == VersionV3 &&
			(len(payload)-headerSizeV3)%RecordSizeV2 == 0
		if err != nil {
			if tagged || len(ops) != 0 {
				t.Fatalf("rejected payload left %d ops, tagged=%v", len(ops), tagged)
			}
			return
		}
		if !isRequest || !tagged {
			t.Fatalf("accepted a %d-byte payload led by %#x (request shape: %v, tagged %v)", len(payload), payload[0], isRequest, tagged)
		}
		if want := (len(payload) - headerSizeV3) / RecordSizeV2; len(ops) != want {
			t.Fatalf("decoded %d ops from a %d-byte payload, framing says %d", len(ops), len(payload), want)
		}
		for i, op := range ops {
			if op.Kind >= core.NumKinds {
				t.Fatalf("op %d: invalid kind %d accepted", i, op.Kind)
			}
			if op.Algo != ctl.AlgoDefault {
				if _, ok := ctl.Lookup(op.Algo); !ok {
					t.Fatalf("op %d: unregistered algorithm %d accepted", i, op.Algo)
				}
			}
			if math.IsNaN(op.BER) || math.IsInf(op.BER, 0) || op.BER < 0 {
				t.Fatalf("op %d: invalid BER %v accepted", i, op.BER)
			}
			if op.Airtime != op.Airtime || math.IsInf(float64(op.Airtime), 0) || op.Airtime < 0 {
				t.Fatalf("op %d: invalid airtime %v accepted", i, op.Airtime)
			}
			if math.IsInf(float64(op.SNRdB), 0) {
				t.Fatalf("op %d: infinite SNR accepted", i)
			}
		}
		again := AppendOpsV3(nil, reqID, ops)
		if string(again) != string(payload) {
			t.Fatalf("re-encode of an accepted payload changed its bytes:\n got %x\nwant %x", again, payload)
		}
		re, id2, tag2, err := DecodeRequest(again, nil)
		if err != nil || !tag2 || id2 != reqID || len(re) != len(ops) {
			t.Fatalf("round trip broke: id %d→%d tagged=%v err=%v", reqID, id2, tag2, err)
		}
		for i := range ops {
			if !opsEqual(re[i], ops[i]) {
				t.Fatalf("op %d changed across round trip: %+v != %+v", i, re[i], ops[i])
			}
		}
	})
}
