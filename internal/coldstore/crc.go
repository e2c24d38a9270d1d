package coldstore

import "softrate/internal/bitutil"

// crc32IEEE frames every record with the repo's one IEEE CRC-32 (the
// checksum the PHY uses for the 802.11 FCS).
func crc32IEEE(b []byte) uint32 { return bitutil.CRC32(b) }
