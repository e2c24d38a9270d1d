//go:build !amd64

package coding

// Non-amd64 builds run the scalar row-combine loops, which are trivially
// bit-identical to the single-frame decoder.
const hasFastJacobian = false
const hasAVX512Jacobian = false

func stepCombineDualAVX2(dstA, srcA, bmA, dstB, srcB, bmB *float64, tableA, tableB *uint8, fixA, fixB *uint64, n, stride int) uint64 {
	panic("coding: stepCombineDualAVX2 without amd64 vector support")
}

func stepNarrowFwdAVX2(dst, src, bm *float64, perm *uint32) uint64 {
	panic("coding: stepNarrowFwdAVX2 without amd64 vector support")
}

func stepNarrowBwdAVX2(dst, src, bm *float64, perm *uint32) uint64 {
	panic("coding: stepNarrowBwdAVX2 without amd64 vector support")
}

func stepAPPBlockAVX2(num, den, alpha, beta, bm *float64, table *uint8, acc *uint64, n, stride, k int) {
	panic("coding: stepAPPBlockAVX2 without amd64 vector support")
}

func normalizeLanesAVX2(plane *float64, n, stride int) {
	panic("coding: normalizeLanesAVX2 without amd64 vector support")
}

func stepCombineDualAVX512(dstA, srcA, bmA, dstB, srcB, bmB *float64, tableA, tableB *uint8, fixA, fixB *uint64, n, stride int) uint64 {
	panic("coding: stepCombineDualAVX512 without amd64 vector support")
}

func stepAPPBlockAVX512(num, den, alpha, beta, bm *float64, table *uint8, acc *uint64, n, stride, k int) {
	panic("coding: stepAPPBlockAVX512 without amd64 vector support")
}

func normalizeLanesAVX512(plane *float64, n, stride int) {
	panic("coding: normalizeLanesAVX512 without amd64 vector support")
}
