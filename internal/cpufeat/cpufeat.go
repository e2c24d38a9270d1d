// Package cpufeat reports the x86 vector extensions the vector kernels in
// internal/coding and internal/vmath need: AVX2 and FMA for both, AVX-512
// for coding's eight-lane log-MAP kernels only. A feature counts only when
// the CPU has it and the OS saves the register state it uses, so a true
// flag means the kernel may run. Other architectures report no features.
package cpufeat

var (
	// AVX2 reports AVX and AVX2 with OS-saved YMM state.
	AVX2 bool
	// FMA reports FMA3 with OS-saved YMM state.
	FMA bool
	// AVX512 reports AVX-512 F, DQ and VL with OS-saved ZMM and opmask
	// state.
	AVX512 bool
)

func init() { AVX2, FMA, AVX512 = detect() }
