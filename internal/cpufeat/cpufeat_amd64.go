//go:build amd64

package cpufeat

func detect() (avx2, fma, avx512 bool) {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false, false, false
	}
	const (
		cpuidFMA      = 1 << 12 // leaf 1 ECX
		cpuidOSXSAVE  = 1 << 27
		cpuidAVX      = 1 << 28
		cpuidAVX2     = 1 << 5 // leaf 7 EBX
		cpuidAVX512F  = 1 << 16
		cpuidAVX512DQ = 1 << 17
		cpuidAVX512VL = 1 << 31
	)
	_, _, c1, _ := cpuidx(1, 0)
	if c1&cpuidOSXSAVE == 0 || c1&cpuidAVX == 0 {
		return false, false, false
	}
	// XCR0: the OS saves XMM and YMM state (bits 1-2), and for AVX-512
	// also opmask, ZMM-high and high-ZMM state (bits 5-7).
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false, false, false
	}
	_, b7, _, _ := cpuidx(7, 0)
	avx2 = b7&cpuidAVX2 != 0
	fma = c1&cpuidFMA != 0
	avx512 = xcr0&0xE6 == 0xE6 && b7&cpuidAVX512F != 0 && b7&cpuidAVX512DQ != 0 && b7&cpuidAVX512VL != 0
	return avx2, fma, avx512
}

// cpuidx executes CPUID with the given leaf/subleaf.
func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS AVX state support).
func xgetbv0() (eax, edx uint32)
