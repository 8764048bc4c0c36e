package tensor

// This file holds the reduction kernel beneath the element-wise sum the
// collectives run on every hop. Every element-wise kernel has one
// implementation and runs on the caller's goroutine: Vector.Add runs the
// unrolled sum below, Vector.Axpy the AVX2 axpy core of axpy_amd64.go (with
// its portable tail axpy1Go), and kernels_into.go the three-address variants.
//
// Every kernel is element-wise (dst[i] op= src[i]), so unrolling never
// reassociates floating-point operations: each kernel produces results
// bit-for-bit identical to the naive scalar loop, which the property tests in
// kernels_test.go assert.

func checkKernelLen(name string, nd, ns int) {
	if nd != ns {
		panic("tensor: " + name + " length mismatch")
	}
}

// addKernel is the 8-way unrolled element-wise sum. The full-slice
// expressions re-slice dst and src to a common 8-element block, letting the
// compiler prove the inner accesses in bounds once per block.
func addKernel(dst, src []float64) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}
