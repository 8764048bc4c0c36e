package tensor

import "fmt"

// This file holds the matrix kernels the model compute runs on. They are
// register-blocked — four rows (against two samples at once in MulMat), or
// four source vectors, per pass over memory — but never reassociate a sum:
// every output element receives exactly the additions of the naive one-row,
// one-sample loop, in the same order, so the results are bit-for-bit those of
// that loop (matmul_test.go holds the naive loops and checks it). Blocking
// only changes how often a weight or output element travels between memory
// and registers. There are no multi-accumulator dot products and no explicit
// FMA: either would change the rounding.
//
// The same rule holds on SIMD lanes. The axpy core (axpy4, axpy1) runs on
// AVX2 where the CPU has it (axpy_amd64.s): a lane is one output element,
// its multiplications and additions keep the per-element order of the
// portable loop, there is no FMA, and no sum is ever split across lanes.
// axpy_test.go checks the vector path against the portable one.

// MulVec computes out = m * x for a column vector x of length Cols, writing
// the result into out of length Rows. Each out[i] is row i's dot product with
// x, accumulated in column order.
func (m *Matrix) MulVec(x, out Vector) {
	m.MulMat([]Vector{x}, []Vector{out})
}

// MulMat computes outs[s] = m * xs[s] for every sample s of a batch with one
// pass over m: each block of four rows is applied to the whole batch, two
// samples at a time, while it is in cache. Every element equals the one MulVec
// computes.
func (m *Matrix) MulMat(xs, outs []Vector) {
	if len(xs) != len(outs) {
		panic(fmt.Sprintf("tensor: MulMat batch mismatch %d inputs vs %d outputs", len(xs), len(outs)))
	}
	for s, x := range xs {
		if len(x) != m.Cols || len(outs[s]) != m.Rows {
			panic(fmt.Sprintf("tensor: MulMat shape mismatch (%dx%d) * %d -> %d", m.Rows, m.Cols, len(x), len(outs[s])))
		}
	}
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		s := 0
		for ; s+2 <= len(xs); s += 2 {
			o, p := outs[s], outs[s+1]
			o[i], o[i+1], o[i+2], o[i+3], p[i], p[i+1], p[i+2], p[i+3] = dot4x2(r0, r1, r2, r3, xs[s], xs[s+1])
		}
		for ; s < len(xs); s++ {
			out := outs[s]
			out[i], out[i+1], out[i+2], out[i+3] = dot4(r0, r1, r2, r3, xs[s])
		}
	}
	for ; i < m.Rows; i++ {
		r := m.Row(i)
		for s, x := range xs {
			outs[s][i] = r.Dot(x)
		}
	}
}

// MulVecT computes out = m^T * x for a vector x of length Rows, writing the
// result into out of length Cols. Each out[j] sums row i's element j times
// x[i] in row order, skipping rows whose x[i] is exactly 0.
func (m *Matrix) MulVecT(x, out Vector) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecT shape mismatch (%dx%d)^T * %d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	out.Zero()
	acc := axpyBatch{dst: out}
	for i, xi := range x {
		if xi != 0 && acc.add(xi, m.Row(i)) {
			acc.apply4()
		}
	}
	acc.flush()
}

// MulVecTDense computes out = mᵀ·x as column axpys: out = +0, then out +=
// x[i]·(row i of m) for every row in order, zero coefficients included. For m
// the transpose of a matrix W it equals W.MulVec(x, out) bit for bit: each
// out[j] receives the products of W's row j in column order, the additions of
// dot4 (where two NaNs meet, the surviving payload may differ). It is not
// MulVecT, which skips zero coefficients and so differs from W.MulVec where a
// weight is infinite or NaN.
func (m *Matrix) MulVecTDense(x, out Vector) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecTDense shape mismatch (%dx%d)^T * %d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	out.Zero()
	acc := axpyBatch{dst: out}
	for i, xi := range x {
		if acc.add(xi, m.Row(i)) {
			acc.apply4()
		}
	}
	acc.flush()
}

// TransposeInto writes mᵀ into t, which must be Cols x Rows.
func (m *Matrix) TransposeInto(t *Matrix) {
	if t.Rows != m.Cols || t.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch (%dx%d)^T -> %dx%d", m.Rows, m.Cols, t.Rows, t.Cols))
	}
	for j := 0; j < t.Rows; j++ {
		row := t.Row(j)
		for i := range row {
			row[i] = m.Data[i*m.Cols+j]
		}
	}
}

// AddOuters accumulates the outer products Σ_s as[s]·bs[s]ᵀ into m, where
// every as[s] has length Rows and every bs[s] length Cols, with one pass over
// m. Element (i, j) receives as[s][i]*bs[s][j] for s in order, and a sample
// whose coefficient as[s][i] is exactly 0 adds nothing to row i — the additions
// of one outer-product update per sample.
func (m *Matrix) AddOuters(as, bs []Vector) {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("tensor: AddOuters batch mismatch %d vs %d", len(as), len(bs)))
	}
	for s, a := range as {
		if len(a) != m.Rows || len(bs[s]) != m.Cols {
			panic(fmt.Sprintf("tensor: AddOuters shape mismatch (%dx%d) vs %d,%d", m.Rows, m.Cols, len(a), len(bs[s])))
		}
	}
	for i := 0; i < m.Rows; i++ {
		acc := axpyBatch{dst: m.Row(i)}
		for s, a := range as {
			if a[i] != 0 && acc.add(a[i], bs[s]) {
				acc.apply4()
			}
		}
		acc.flush()
	}
}

// dot4 returns the dot products of four rows with x, each accumulated in
// index order: four independent sums sharing every load of x.
func dot4(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for j, xj := range x {
		s0 += r0[j] * xj
		s1 += r1[j] * xj
		s2 += r2[j] * xj
		s3 += r3[j] * xj
	}
	return s0, s1, s2, s3
}

// dot4x2 is dot4 against two vectors at once: eight independent sums sharing
// every load of a row element and of x[j] and y[j].
func dot4x2(r0, r1, r2, r3, x, y []float64) (s0, s1, s2, s3, t0, t1, t2, t3 float64) {
	r0, r1, r2, r3, y = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)], y[:len(x)]
	for j, xj := range x {
		yj := y[j]
		w0, w1, w2, w3 := r0[j], r1[j], r2[j], r3[j]
		s0 += w0 * xj
		s1 += w1 * xj
		s2 += w2 * xj
		s3 += w3 * xj
		t0 += w0 * yj
		t1 += w1 * yj
		t2 += w2 * yj
		t3 += w3 * yj
	}
	return
}

// axpyBatch adds a sequence of scaled sources a·src into dst in the order they
// are added, four sources per pass over dst, so each element of dst is loaded
// and stored once per four sources instead of once per source. Callers skip a
// source whose coefficient is exactly 0, and call flush after the last add.
type axpyBatch struct {
	dst  Vector
	n    int
	pend [4]axpyTerm
}

type axpyTerm struct {
	a   float64
	src Vector
}

// add queues a·src, reporting whether the batch is full and must be applied
// with apply4 before the next add.
func (b *axpyBatch) add(a float64, src Vector) (full bool) {
	b.pend[b.n] = axpyTerm{a, src}
	b.n++
	return b.n == 4
}

// flush adds the one to three sources still pending into dst, one pass over
// dst per source, and empties the batch.
func (b *axpyBatch) flush() {
	for _, t := range b.pend[:b.n] {
		axpy1(b.dst, t.src, t.a)
	}
	b.n = 0
}

// apply4 adds the four pending sources into dst, one after the other for
// every element, and empties the batch.
func (b *axpyBatch) apply4() {
	b.n = 0
	p := &b.pend
	axpy4(b.dst, p[0].src, p[1].src, p[2].src, p[3].src, p[0].a, p[1].a, p[2].a, p[3].a)
}

// axpy1Go is the portable dst[j] += src[j]·a: the reference the vector
// kernels reproduce, their tail handler, and the whole of axpy1 where they
// are not available. src is at least as long as dst. It is never inlined, so
// every caller runs the one compiled body whose NaN propagation the vector
// kernels copy (axpy_amd64.s).
//
//go:noinline
func axpy1Go(dst, src []float64, a float64) {
	src = src[:len(dst)]
	for j, x := range src {
		dst[j] += x * a
	}
}

// axpy4Go is the portable dst[j] = (((dst[j] + s0[j]·a0) + s1[j]·a1) +
// s2[j]·a2) + s3[j]·a3, in the role axpy1Go plays for axpy1, and like it
// never inlined. Every source is at least as long as dst.
//
//go:noinline
func axpy4Go(dst, s0, s1, s2, s3 []float64, a0, a1, a2, a3 float64) {
	s0, s1, s2, s3 = s0[:len(dst)], s1[:len(dst)], s2[:len(dst)], s3[:len(dst)]
	for j, d := range dst {
		d += s0[j] * a0
		d += s1[j] * a1
		d += s2[j] * a2
		d += s3[j] * a3
		dst[j] = d
	}
}
