package tensor

// Three-address variants of the element-wise kernels: the result lands in a
// destination distinct from both operands. The shared-ring transport's
// fill-send path (comm.SendFrom) is built on these — a collective computes a
// forwarded partial sum straight into the reserved outgoing frame instead of
// accumulating in place and paying a staging copy afterwards.
//
// Like their two-address siblings, the kernels are element-wise and run on
// the caller's goroutine, producing results bit-for-bit identical to the
// scalar loop.

// AddInto computes dst[i] = a[i] + b[i]. It panics if the lengths differ.
// dst may alias a or b (the kernels only read an element before writing it).
func AddInto(dst, a, b Vector) {
	checkKernelLen("AddInto", len(dst), len(a))
	checkKernelLen("AddInto", len(dst), len(b))
	addIntoKernel(dst, a, b)
}

// Copy2 copies src into both dst and dup, for the allgather hop that must
// place an incoming chunk into the result buffer and the outgoing frame at
// once. It is two bulk copies: a fused single-read scalar loop looks cheaper
// on paper (one read, two writes) but measures ~2.5x slower on cold
// destinations, since per-element stores pay a read-for-ownership on every
// missing cache line, while the runtime's bulk memmove takes the no-RFO
// fast-string path.
func Copy2(dst, dup, src Vector) {
	checkKernelLen("Copy2", len(dst), len(dup))
	checkKernelLen("Copy2", len(dst), len(src))
	copy(dst, src)
	copy(dup, src)
}

// addIntoKernel is the 8-way unrolled dst = a + b.
func addIntoKernel(dst, a, b []float64) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		x := a[i : i+8 : i+8]
		y := b[i : i+8 : i+8]
		d[0] = x[0] + y[0]
		d[1] = x[1] + y[1]
		d[2] = x[2] + y[2]
		d[3] = x[3] + y[3]
		d[4] = x[4] + y[4]
		d[5] = x[5] + y[5]
		d[6] = x[6] + y[6]
		d[7] = x[7] + y[7]
	}
	for ; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}
