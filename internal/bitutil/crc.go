package bitutil

import "hash/crc32"

// CRC16CCITT computes the CRC-16/CCITT-FALSE checksum (polynomial 0x1021,
// initial value 0xFFFF) over data. SoftRate protects the link-layer header
// with this separate CRC so that the sender and receiver identities can be
// recovered even when the frame body has bit errors (§3 of the paper).
func CRC16CCITT(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// CRC32 computes the IEEE 802.3 CRC-32 over data, as used by the 802.11 FCS
// that decides whether a received frame is error-free and by the cold
// tier's record framing. It is the repo's single CRC-32 entry point; the
// arithmetic is hash/crc32's (slicing-by-8, or carry-less multiply where
// the CPU has it), which the tests pin to the bytewise reflected table
// this function used to walk, so frames and segments checksummed before
// the switch still verify.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// AppendCRC32 returns data with its CRC-32 appended big-endian, forming the
// over-the-air frame body the PHY encodes.
func AppendCRC32(data []byte) []byte {
	return AppendCRC32To(make([]byte, 0, len(data)+4), data)
}

// AppendCRC32To appends data followed by its big-endian CRC-32 to dst and
// returns the extended slice, allocating nothing when dst has sufficient
// capacity. It is the single source of the frame-body wire format that
// CheckCRC32 verifies.
func AppendCRC32To(dst []byte, data []byte) []byte {
	crc := CRC32(data)
	dst = append(dst, data...)
	return append(dst, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
}

// CheckCRC32 verifies a frame produced by AppendCRC32 and returns the
// payload with the checksum stripped along with the verdict.
func CheckCRC32(frame []byte) (payload []byte, ok bool) {
	if len(frame) < 4 {
		return nil, false
	}
	payload = frame[:len(frame)-4]
	want := uint32(frame[len(frame)-4])<<24 |
		uint32(frame[len(frame)-3])<<16 |
		uint32(frame[len(frame)-2])<<8 |
		uint32(frame[len(frame)-1])
	return payload, CRC32(payload) == want
}
