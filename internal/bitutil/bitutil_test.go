package bitutil

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBytesToBitsKnown(t *testing.T) {
	bits := AppendBytesToBits(nil, []byte{0xA5})
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	if !bytes.Equal(bits, want) {
		t.Fatalf("AppendBytesToBits(0xA5) = %v, want %v", bits, want)
	}
}

func TestBitsToBytesPadding(t *testing.T) {
	// 10 bits: the last byte must be zero-padded on the LSB side.
	bits := []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	got := AppendBitsToBytes(nil, bits)
	want := []byte{0xFF, 0xC0}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendBitsToBytes = %x, want %x", got, want)
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(AppendBitsToBytes(nil, AppendBytesToBits(nil, data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomBytes returns n random bytes drawn from rng: the CRC tests' inputs.
func randomBytes(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}

func TestCountBitErrors(t *testing.T) {
	a := []byte{0, 1, 0, 1}
	b := []byte{0, 0, 0, 1}
	if got := CountBitErrors(a, b); got != 1 {
		t.Fatalf("CountBitErrors = %d, want 1", got)
	}
	if got := CountBitErrors(a, a); got != 0 {
		t.Fatalf("CountBitErrors(a,a) = %d, want 0", got)
	}
	// Length mismatch counts the tail as errors.
	if got := CountBitErrors(a, b[:2]); got != 2+1 {
		t.Fatalf("CountBitErrors with truncation = %d, want 3", got)
	}
}

func TestXORBitsSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomBits(rng, 64)
	b := RandomBits(rng, 64)
	if !bytes.Equal(XORBits(XORBits(a, b), b), a) {
		t.Fatal("XORBits is not self-inverse")
	}
}

func TestXORBitsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	XORBits([]byte{1}, []byte{1, 0})
}

// crc32Bytewise is the reflected IEEE 802.3 table walk CRC32 used before
// it moved onto hash/crc32: the reference every frame and cold-tier
// segment written by earlier builds was checksummed with.
func crc32Bytewise(data []byte) uint32 {
	var table [256]uint32
	for i := range table {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
		table[i] = crc
	}
	crc := ^uint32(0)
	for _, b := range data {
		crc = table[byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

func TestCRC32MatchesBytewiseTable(t *testing.T) {
	if got := CRC32([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("CRC32(\"123456789\") = %#x, want the IEEE check value 0xCBF43926", got)
	}
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 15, 16, 63, 64, 65, 4096} // hash/crc32's kernel boundaries
	for len(lengths) < 2000 {
		lengths = append(lengths, rng.Intn(4097))
	}
	for _, n := range lengths {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := CRC32(data), crc32Bytewise(data); got != want {
			t.Fatalf("len %d: CRC32 = %#x, bytewise table = %#x", n, got, want)
		}
	}
}

func TestCRC32Linearity(t *testing.T) {
	// CRC of equal-length messages: crc(a) ^ crc(b) == crc(a^b) ^ crc(0).
	// This linearity property is what makes CRCs detect burst errors; it is
	// a strong structural check on the table construction.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		a := randomBytes(rng, n)
		b := randomBytes(rng, n)
		ab := make([]byte, n)
		for i := range a {
			ab[i] = a[i] ^ b[i]
		}
		zero := make([]byte, n)
		return CRC32(a)^CRC32(b) == CRC32(ab)^CRC32(zero)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendCheckCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	payload := randomBytes(rng, 100)
	frame := AppendCRC32To(nil, payload)
	got, ok := CheckCRC32(frame)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("CRC32 round trip failed")
	}
	// Flip one bit anywhere: the check must fail.
	for i := 0; i < len(frame); i += 13 {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x10
		if _, ok := CheckCRC32(bad); ok {
			t.Fatalf("CRC32 missed a bit flip at byte %d", i)
		}
	}
}

func TestCheckCRC32Short(t *testing.T) {
	if _, ok := CheckCRC32([]byte{1, 2, 3}); ok {
		t.Fatal("short frame must fail CRC check")
	}
}

func TestCRC16Known(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1 (standard check value).
	if got := CRC16CCITT([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16CCITT check value = %#04x, want 0x29B1", got)
	}
}

func TestCRC16DetectsFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randomBytes(rng, 16)
	orig := CRC16CCITT(data)
	for i := range data {
		data[i] ^= 1
		if CRC16CCITT(data) == orig {
			t.Fatalf("CRC16 missed flip at byte %d", i)
		}
		data[i] ^= 1
	}
}

func TestRandomBitsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bits := RandomBits(rng, 1000)
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("RandomBits produced %d", b)
		}
		ones += int(b)
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("RandomBits balance suspicious: %d ones of 1000", ones)
	}
}

func TestMix64AvalancheAndStability(t *testing.T) {
	// Golden values pin the constants: both the experiment engine's trial
	// seeding and the link store's shard hashing depend on this exact
	// mapping staying stable across refactors.
	golden := map[uint64]uint64{
		0:          0,
		1:          0x5692161d100b05e5,
		0xdeadbeef: 0x4e062702ec929eea,
	}
	for in, want := range golden {
		if got := Mix64(in); got != want {
			t.Fatalf("Mix64(%#x) = %#x, want %#x", in, got, want)
		}
	}
	// Avalanche: flipping one input bit must flip roughly half the output
	// bits on average.
	totalFlips := 0
	const trials = 64
	for bit := 0; bit < trials; bit++ {
		d := Mix64(0x123456789abcdef) ^ Mix64(0x123456789abcdef^(1<<bit))
		for ; d != 0; d &= d - 1 {
			totalFlips++
		}
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("avalanche average %.1f bits flipped, want ~32", avg)
	}
}
