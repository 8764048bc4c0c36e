package tensor

// useAVX2 selects the vector kernels of axpy_amd64.s, once, from what the CPU
// and the operating system support.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches (CPUID leaf 1 OSXSAVE and
// AVX, XCR0 bits 1 and 2, CPUID leaf 7 AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// axpy1 is dst[j] += src[j]·a: the vector kernel over the longest multiple of
// four elements, the portable loop over the rest.
func axpy1(dst, src []float64, a float64) {
	src = src[:len(dst)]
	n := 0
	if useAVX2 && len(dst) >= 4 {
		n = len(dst) &^ 3
		axpy1AVX2(&dst[0], &src[0], n, a)
	}
	if n < len(dst) {
		axpy1Go(dst[n:], src[n:], a)
	}
}

// axpy4 adds four scaled sources into dst one after the other per element,
// split between the vector kernel and the portable loop as in axpy1.
func axpy4(dst, s0, s1, s2, s3 []float64, a0, a1, a2, a3 float64) {
	s0, s1, s2, s3 = s0[:len(dst)], s1[:len(dst)], s2[:len(dst)], s3[:len(dst)]
	n := 0
	if useAVX2 && len(dst) >= 4 {
		n = len(dst) &^ 3
		axpy4AVX2(&dst[0], &s0[0], &s1[0], &s2[0], &s3[0], n, a0, a1, a2, a3)
	}
	if n < len(dst) {
		axpy4Go(dst[n:], s0[n:], s1[n:], s2[n:], s3[n:], a0, a1, a2, a3)
	}
}

// The kernels below are in axpy_amd64.s. The vector ones update the n
// elements from dst, n a positive multiple of four, reading n from each
// source.

//go:noescape
func axpy1AVX2(dst, src *float64, n int, a float64)

//go:noescape
func axpy4AVX2(dst, s0, s1, s2, s3 *float64, n int, a0, a1, a2, a3 float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
