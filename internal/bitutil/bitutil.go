// Package bitutil provides bit-level utilities shared by the PHY and link
// layers: bit/byte packing, CRC computation for frame and header integrity,
// and a small deterministic PRNG wrapper used to make every experiment
// reproducible from a seed.
package bitutil

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// HashSeed draws the key of a hash table whose keys arrive off the wire —
// the link store's hot tables, the cold tier's index. Mix64 is invertible:
// unkeyed, a client could pick link IDs that all hash alike and make
// every probe walk the pile. It is the one source of that randomness so
// that a test can pin it.
var HashSeed = randv2.Uint64

// Mix64 applies the SplitMix64 finalizer (Steele, Lea & Flood: "Fast
// splittable pseudorandom number generators", OOPSLA 2014): an invertible
// avalanche mix in which every input bit affects every output bit. It is
// the shared bit-mixing primitive behind SampleRate's SplitMix PRNG and the
// link store's shard hashing — one source of truth for the constants.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BytesToBits unpacks a byte slice into one bit per byte (values 0 or 1),
// most-significant bit first, matching the transmission order used by the
// PHY encoder.
func BytesToBits(data []byte) []byte {
	return AppendBytesToBits(make([]byte, 0, len(data)*8), data)
}

// BitsToBytes packs a bit slice (one bit per byte, MSB first) back into
// bytes. If len(bits) is not a multiple of 8 the final byte is zero-padded
// in its least-significant positions.
func BitsToBytes(bits []byte) []byte {
	return AppendBitsToBytes(make([]byte, 0, (len(bits)+7)/8), bits)
}

// AppendBitsToBytes appends the packed form of bits (MSB first, final byte
// zero-padded) to dst and returns the extended slice, allocating nothing
// when dst has sufficient capacity.
func AppendBitsToBytes(dst []byte, bits []byte) []byte {
	for base := 0; base < len(bits); base += 8 {
		var b byte
		end := base + 8
		if end > len(bits) {
			end = len(bits)
		}
		for i := base; i < end; i++ {
			if bits[i] != 0 {
				b |= 1 << uint(7-i%8)
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// AppendBytesToBits appends the unpacked bits of data (one bit per byte,
// MSB first) to dst and returns the extended slice, allocating nothing
// when dst has sufficient capacity.
func AppendBytesToBits(dst []byte, data []byte) []byte {
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			dst = append(dst, (b>>uint(i))&1)
		}
	}
	return dst
}

// CountBitErrors returns the number of positions at which a and b differ.
// The comparison runs over the shorter of the two slices; a length mismatch
// beyond that is counted as one error per missing bit so that truncated
// frames register as heavily errored rather than silently clean.
func CountBitErrors(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			errs++
		}
	}
	if len(a) > n {
		errs += len(a) - n
	}
	if len(b) > n {
		errs += len(b) - n
	}
	return errs
}

// XORBits returns the element-wise XOR of two equal-length bit slices.
// It panics if the lengths differ; callers are expected to align inputs.
func XORBits(a, b []byte) []byte {
	if len(a) != len(b) {
		panic("bitutil: XORBits length mismatch")
	}
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// RandomBits fills a new slice of n bits using rng, for payload generation
// in tests and experiments.
func RandomBits(rng *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

// RandomBytes returns n random bytes drawn from rng.
func RandomBytes(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}
