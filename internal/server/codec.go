package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"softrate/internal/core"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

// Wire format. Every transport carries the same two self-contained
// payloads; fixed-size records keep decode branch-free and let a receiver
// validate a batch by length alone.
//
//	request payload (little-endian): one version byte (0x03), a uint32
//	request ID chosen by the client, then one 28-byte record per frame of
//	feedback:
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
//	response payload: the uint32 request ID being answered, a uint32
//	record count, then one rate-index byte per record, in request order.
//
// Because the response carries the request ID back, a client may keep
// many requests in flight on one connection (bounded over TCP by its
// response-byte budget — see maxPipelineBytes in client.go). The server
// answers the requests of one connection, socket or ring strictly in
// arrival order, so per-link decision order is the order the client
// submitted. A datagram or ring message is exactly one payload; over TCP
// each request payload is prefixed with its uint32 length (responses are
// self-delimiting through their count); the in-process API skips framing
// entirely. Anything that is not a well-formed request payload — a wrong
// version byte, a length that is not 5+28·n, an invalid field — is
// rejected by the one decoder below and never reaches the store.

// RecordSizeV2 is the encoded size of one feedback record.
const RecordSizeV2 = 28

// VersionV2 leads the bare record block AppendOpsV2 emits.
const VersionV2 = 0x02

// VersionV3 is the request payload's leading version byte.
const VersionV3 = 0x03

// headerSizeV3 is the request header: version byte + uint32 request ID.
const headerSizeV3 = 5

// flagDelivered is the flags bit reporting an intact frame body.
const flagDelivered = 1 << 0

// MaxBatch bounds the records per batch (and with it the frame size a TCP
// peer can make the server buffer).
const MaxBatch = 65536

// maxPayload is the largest request payload: a header plus MaxBatch
// records.
const maxPayload = headerSizeV3 + MaxBatch*RecordSizeV2

// AppendOpsV2 appends ops as a bare record block: the 0x02 byte followed
// by one 28-byte record per op. It is the record encoder requests are
// built on (and a stable byte form of a batch for digests); the server
// does not accept it as a request — it carries no request ID.
func AppendOpsV2(buf []byte, ops []linkstore.Op) []byte {
	return appendRecords(append(buf, VersionV2), ops)
}

// AppendOpsV3 appends one request payload: the version byte, the request
// ID, then one 28-byte record per op. The record carries the rate index
// in one byte; callers must keep Op.RateIndex in [0, 255] (the clients
// enforce this) or the index silently truncates.
func AppendOpsV3(buf []byte, reqID uint32, ops []linkstore.Op) []byte {
	buf = append(buf, VersionV3)
	buf = binary.LittleEndian.AppendUint32(buf, reqID)
	return appendRecords(buf, ops)
}

func appendRecords(buf []byte, ops []linkstore.Op) []byte {
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

// DecodeRequest parses one request payload into dst (reused if it has
// capacity) and returns the ops and the request ID; tagged is true for
// every accepted payload (responses always echo the ID).
func DecodeRequest(payload []byte, dst []linkstore.Op) (ops []linkstore.Op, reqID uint32, tagged bool, err error) {
	ops, reqID, err = appendDecodeRequest(payload, dst[:0])
	return ops, reqID, err == nil, err
}

// appendDecodeRequest is the request decoder: records land after dst's
// existing contents, so the burst engine gathers a whole burst of
// independent payloads into one ops slice for a single Decide. Kinds and
// algorithms are validated, BERs and airtimes must be finite and
// non-negative, SNRs must not be infinite, and the MaxBatch bound applies
// per payload. On error dst is returned unextended in length (capacity it
// grew is kept).
func appendDecodeRequest(payload []byte, dst []linkstore.Op) ([]linkstore.Op, uint32, error) {
	if len(payload) < headerSizeV3 || payload[0] != VersionV3 || (len(payload)-headerSizeV3)%RecordSizeV2 != 0 {
		return dst, 0, fmt.Errorf("server: %d-byte payload is not a request (want version %#x and %d+%d·n bytes)",
			len(payload), VersionV3, headerSizeV3, RecordSizeV2)
	}
	start := len(dst)
	n := (len(payload) - headerSizeV3) / RecordSizeV2
	if n > MaxBatch {
		return dst, 0, fmt.Errorf("server: batch of %d records exceeds the maximum %d", n, MaxBatch)
	}
	if need := start + n; need > cap(dst) {
		// Grow to exactly what this burst needs: the scratch settles at the
		// largest burst its connection sends instead of append's next
		// power of two (per-connection memory is what a pipelined window
		// can hold, not double it).
		grown := make([]linkstore.Op, start, need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		rec := payload[headerSizeV3+i*RecordSizeV2:][:RecordSizeV2]
		algo := ctl.Algo(rec[8])
		if algo != ctl.AlgoDefault && !ctl.Registered(algo) {
			return dst[:start], 0, fmt.Errorf("server: record %d: unknown algorithm %d", i, rec[8])
		}
		kind := core.FeedbackKind(rec[9])
		if kind >= core.NumKinds {
			return dst[:start], 0, fmt.Errorf("server: record %d: unknown feedback kind %d", i, rec[9])
		}
		if rec[11]&^flagDelivered != 0 {
			return dst[:start], 0, fmt.Errorf("server: record %d: unknown flags %#x", i, rec[11])
		}
		ber := math.Float64frombits(binary.LittleEndian.Uint64(rec[12:20]))
		if math.IsNaN(ber) || math.IsInf(ber, 0) || ber < 0 {
			return dst[:start], 0, fmt.Errorf("server: record %d: invalid BER %v", i, ber)
		}
		airtime := math.Float32frombits(binary.LittleEndian.Uint32(rec[20:24]))
		if airtime != airtime || math.IsInf(float64(airtime), 0) || airtime < 0 {
			return dst[:start], 0, fmt.Errorf("server: record %d: invalid airtime %v", i, airtime)
		}
		snr := math.Float32frombits(binary.LittleEndian.Uint32(rec[24:28]))
		if math.IsInf(float64(snr), 0) {
			return dst[:start], 0, fmt.Errorf("server: record %d: invalid SNR %v", i, snr)
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
	return dst, binary.LittleEndian.Uint32(payload[1:5]), nil
}
