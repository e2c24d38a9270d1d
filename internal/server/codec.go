package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

// Wire format. A request batch is either a v1 or a v2 payload; a response
// is one byte (the chosen rate index) per record, in request order.
// Fixed-size records keep decode branch-free and let a receiver validate
// a batch by length alone.
//
//	v1 request record (18 bytes, little-endian; the whole payload is a
//	bare sequence of records — no header):
//	  [0:8)   linkID  uint64
//	  [8]     kind    uint8  (core.FeedbackKind)
//	  [9]     rate    uint8  (index the frame was sent at)
//	  [10:18) ber     float64 bits
//
//	v2 request payload: one version byte (0x02) followed by 28-byte
//	records carrying the fields the frame-level §6.1 algorithms need
//	(little-endian):
//	  [0:8)   linkID  uint64
//	  [8]     algo    uint8  (ctl.Algo; 0 = server default, selected at
//	                          the link's first touch)
//	  [9]     kind    uint8  (core.FeedbackKind)
//	  [10]    rate    uint8  (index the frame was sent at)
//	  [11]    flags   uint8  (bit 0: delivered; other bits must be zero)
//	  [12:20) ber     float64 bits
//	  [20:24) airtime float32 bits (seconds; 0 = unknown)
//	  [24:28) snr     float32 bits (dB; NaN = unknown)
//
//	v3 ("pipelined") request payload: one version byte (0x03), a uint32
//	little-endian request ID chosen by the client, then v2-format 28-byte
//	records. v3 is the pipelined framing mode: because responses carry the
//	request ID back, a client may keep many batches in flight on one
//	connection instead of running stop-and-wait (bounded by its response-
//	byte budget — see maxPipelineBytes in tcp.go), and the server
//	coalesces response flushes while more requests are already buffered
//	(see tcp.go). The server answers requests of one connection strictly
//	in arrival order — per-link decision order is the order the client
//	submitted, exactly as with one batch in flight.
//
//	response, to a v1/v2 request: a uint32 record count followed by one
//	rate-index byte per record, in request order.
//	response, to a v3 request: the uint32 request ID being answered, then
//	the count and rate bytes as above.
//
// The three framings are self-distinguishing by length alone: a v1
// payload is a multiple of 18 bytes (even), a v2 payload is 1+28·n bytes
// (always odd, ≡1 mod 28), and a v3 payload is 5+28·n bytes (also odd,
// ≡5 mod 28, and 10n+5 ≡ 0 mod 18 has no solution) — so v1 and v2 peers
// keep working byte-for-byte against a v3-capable server. Over TCP each
// payload is prefixed with a uint32 payload length (see tcp.go); the
// in-process API skips framing entirely.

// RecordSize is the encoded size of one v1 feedback record.
const RecordSize = 18

// RecordSizeV2 is the encoded size of one v2 feedback record.
const RecordSizeV2 = 28

// VersionV2 is the v2 payload's leading version byte.
const VersionV2 = 0x02

// VersionV3 is the pipelined request payload's leading version byte.
const VersionV3 = 0x03

// headerSizeV3 is the v3 payload header: version byte + uint32 request ID.
const headerSizeV3 = 5

// flagDelivered is the v2 flags bit reporting an intact frame body.
const flagDelivered = 1 << 0

// MaxBatch bounds the records per batch (and with it the frame size a TCP
// peer can make the server buffer).
const MaxBatch = 65536

// AppendOp appends one encoded v1 feedback record to buf. The wire format
// carries the rate index in one byte; callers must keep Op.RateIndex in
// [0, 255] (Client.Decide enforces this) or the index silently truncates.
// v1 records carry no algorithm, airtime, SNR or delivered flag — encode
// with AppendOpsV2 when those matter.
func AppendOp(buf []byte, op linkstore.Op) []byte {
	var rec [RecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], op.LinkID)
	rec[8] = uint8(op.Kind)
	rec[9] = uint8(op.RateIndex)
	binary.LittleEndian.PutUint64(rec[10:18], math.Float64bits(op.BER))
	return append(buf, rec[:]...)
}

// AppendOps appends a whole batch in the v1 format.
func AppendOps(buf []byte, ops []linkstore.Op) []byte {
	for _, op := range ops {
		buf = AppendOp(buf, op)
	}
	return buf
}

// AppendOpsV2 appends a whole batch in the v2 format: the version byte
// followed by one 28-byte record per op.
func AppendOpsV2(buf []byte, ops []linkstore.Op) []byte {
	return appendRecordsV2(append(buf, VersionV2), ops)
}

// AppendOpsV3 appends a whole batch in the pipelined v3 format: the
// version byte, the request ID, then one 28-byte record per op.
func AppendOpsV3(buf []byte, reqID uint32, ops []linkstore.Op) []byte {
	buf = append(buf, VersionV3)
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], reqID)
	return appendRecordsV2(append(buf, id[:]...), ops)
}

func appendRecordsV2(buf []byte, ops []linkstore.Op) []byte {
	for i := range ops {
		op := &ops[i]
		var rec [RecordSizeV2]byte
		binary.LittleEndian.PutUint64(rec[0:8], op.LinkID)
		rec[8] = uint8(op.Algo)
		rec[9] = uint8(op.Kind)
		rec[10] = uint8(op.RateIndex)
		if op.Delivered {
			rec[11] = flagDelivered
		}
		binary.LittleEndian.PutUint64(rec[12:20], math.Float64bits(op.BER))
		binary.LittleEndian.PutUint32(rec[20:24], math.Float32bits(op.Airtime))
		binary.LittleEndian.PutUint32(rec[24:28], math.Float32bits(op.SNRdB))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// DecodeBatch parses a batch payload — v1 or v2, distinguished by length
// parity as documented above — into dst (reused if it has capacity).
// Kinds and algorithms are validated, BERs and airtimes must be finite
// and non-negative, SNRs must not be infinite. v1 records decode with
// Algo = ctl.AlgoDefault, SNRdB = NaN, Airtime = 0 and Delivered = false.
func DecodeBatch(payload []byte, dst []linkstore.Op) ([]linkstore.Op, error) {
	if len(payload)%RecordSize == 0 {
		return decodeV1(payload, dst[:0])
	}
	if payload[0] == VersionV2 && (len(payload)-1)%RecordSizeV2 == 0 {
		return decodeV2(payload[1:], dst[:0])
	}
	return nil, fmt.Errorf("server: payload length %d is neither v1 (multiple of %d) nor v2 (1+multiple of %d with version byte)",
		len(payload), RecordSize, RecordSizeV2)
}

// DecodeOps is the historical name of DecodeBatch; it accepts both
// versions too.
func DecodeOps(payload []byte, dst []linkstore.Op) ([]linkstore.Op, error) {
	return DecodeBatch(payload, dst)
}

// DecodeRequest parses any request payload the server accepts: v1, v2, or
// pipelined v3. For v3 it additionally returns the request ID and
// tagged=true, telling the responder to tag its response frame. The
// length classes of the three framings are disjoint (see the package
// comment), so the dispatch is unambiguous.
func DecodeRequest(payload []byte, dst []linkstore.Op) (ops []linkstore.Op, reqID uint32, tagged bool, err error) {
	if len(payload) >= headerSizeV3 && payload[0] == VersionV3 && (len(payload)-headerSizeV3)%RecordSizeV2 == 0 {
		ops, err = decodeV2(payload[headerSizeV3:], dst[:0])
		return ops, binary.LittleEndian.Uint32(payload[1:5]), true, err
	}
	ops, err = DecodeBatch(payload, dst)
	return ops, 0, false, err
}

// appendDecodeRequest is DecodeRequest in append form: decoded records
// land after dst's existing contents instead of replacing them. The burst
// transports (udp.go, shm.go) use it to gather a whole burst of
// independent datagrams into one ops slice for a single ApplyBatch; the
// MaxBatch bound still applies per payload, not to the accumulated slice.
func appendDecodeRequest(payload []byte, dst []linkstore.Op) (ops []linkstore.Op, reqID uint32, tagged bool, err error) {
	if len(payload) >= headerSizeV3 && payload[0] == VersionV3 && (len(payload)-headerSizeV3)%RecordSizeV2 == 0 {
		ops, err = decodeV2(payload[headerSizeV3:], dst)
		return ops, binary.LittleEndian.Uint32(payload[1:5]), true, err
	}
	if len(payload)%RecordSize == 0 {
		ops, err = decodeV1(payload, dst)
		return ops, 0, false, err
	}
	if payload[0] == VersionV2 && (len(payload)-1)%RecordSizeV2 == 0 {
		ops, err = decodeV2(payload[1:], dst)
		return ops, 0, false, err
	}
	return dst, 0, false, fmt.Errorf("server: payload length %d matches no framing version", len(payload))
}

// decodeV1 and decodeV2 append decoded records to dst; whole-payload
// entry points pass dst[:0].
func decodeV1(payload []byte, dst []linkstore.Op) ([]linkstore.Op, error) {
	n := len(payload) / RecordSize
	if n > MaxBatch {
		return dst, fmt.Errorf("server: batch of %d records exceeds the maximum %d", n, MaxBatch)
	}
	for i := 0; i < n; i++ {
		rec := payload[i*RecordSize : (i+1)*RecordSize]
		kind := core.FeedbackKind(rec[8])
		if kind >= core.NumKinds {
			return dst, fmt.Errorf("server: record %d: unknown feedback kind %d", i, rec[8])
		}
		ber := math.Float64frombits(binary.LittleEndian.Uint64(rec[10:18]))
		if math.IsNaN(ber) || math.IsInf(ber, 0) || ber < 0 {
			return dst, fmt.Errorf("server: record %d: invalid BER %v", i, ber)
		}
		dst = append(dst, linkstore.Op{
			LinkID:    binary.LittleEndian.Uint64(rec[0:8]),
			Kind:      kind,
			RateIndex: int32(rec[9]),
			BER:       ber,
			SNRdB:     float32(math.NaN()),
		})
	}
	return dst, nil
}

func decodeV2(payload []byte, dst []linkstore.Op) ([]linkstore.Op, error) {
	n := len(payload) / RecordSizeV2
	if n > MaxBatch {
		return dst, fmt.Errorf("server: batch of %d records exceeds the maximum %d", n, MaxBatch)
	}
	for i := 0; i < n; i++ {
		rec := payload[i*RecordSizeV2 : (i+1)*RecordSizeV2]
		algo := ctl.Algo(rec[8])
		if algo != ctl.AlgoDefault && !ctl.Registered(algo) {
			return dst, fmt.Errorf("server: record %d: unknown algorithm %d", i, rec[8])
		}
		kind := core.FeedbackKind(rec[9])
		if kind >= core.NumKinds {
			return dst, fmt.Errorf("server: record %d: unknown feedback kind %d", i, rec[9])
		}
		if rec[11]&^flagDelivered != 0 {
			return dst, fmt.Errorf("server: record %d: unknown flags %#x", i, rec[11])
		}
		ber := math.Float64frombits(binary.LittleEndian.Uint64(rec[12:20]))
		if math.IsNaN(ber) || math.IsInf(ber, 0) || ber < 0 {
			return dst, fmt.Errorf("server: record %d: invalid BER %v", i, ber)
		}
		airtime := math.Float32frombits(binary.LittleEndian.Uint32(rec[20:24]))
		if airtime != airtime || math.IsInf(float64(airtime), 0) || airtime < 0 {
			return dst, fmt.Errorf("server: record %d: invalid airtime %v", i, airtime)
		}
		snr := math.Float32frombits(binary.LittleEndian.Uint32(rec[24:28]))
		if math.IsInf(float64(snr), 0) {
			return dst, fmt.Errorf("server: record %d: invalid SNR %v", i, snr)
		}
		dst = append(dst, linkstore.Op{
			LinkID:    binary.LittleEndian.Uint64(rec[0:8]),
			Algo:      algo,
			Kind:      kind,
			RateIndex: int32(rec[10]),
			BER:       ber,
			SNRdB:     snr,
			Airtime:   airtime,
			Delivered: rec[11]&flagDelivered != 0,
		})
	}
	return dst, nil
}
