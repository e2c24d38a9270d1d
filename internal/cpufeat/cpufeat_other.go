//go:build !amd64

package cpufeat

func detect() (avx2, fma, avx512 bool) { return false, false, false }
