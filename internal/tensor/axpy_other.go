//go:build !amd64

package tensor

// useAVX2 is false: there are no vector kernels on this architecture.
const useAVX2 = false

// axpy1 is dst[j] += src[j]·a; on this architecture it is the portable loop.
func axpy1(dst, src []float64, a float64) { axpy1Go(dst, src, a) }

// axpy4 adds four scaled sources into dst one after the other per element; on
// this architecture it is the portable loop.
func axpy4(dst, s0, s1, s2, s3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(dst, s0, s1, s2, s3, a0, a1, a2, a3)
}
