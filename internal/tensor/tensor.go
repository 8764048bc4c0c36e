// Package tensor provides the dense numerical containers used throughout the
// eager-SGD reproduction: flat float64 vectors, row-major matrices, and the
// small set of BLAS-like kernels (axpy, scal, dot, reductions) the neural
// network and collective layers are built on.
//
// Everything is plain Go on float64 slices.  Collectives operate on Vector
// values directly (gradients are exchanged as flat vectors), and the nn
// package views slices of one flat parameter vector as layer weights, so no
// copies are needed between "model", "send buffer" and "wire" representations.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense one-dimensional array of float64 values.
type Vector []float64

// NewVector returns a zero-initialized vector of length n.
func NewVector(n int) Vector {
	if n < 0 {
		panic("tensor: negative vector length")
	}
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Len returns the number of elements in v.
func (v Vector) Len() int { return len(v) }

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// CopyFrom copies src into v. It panics if the lengths differ.
func (v Vector) CopyFrom(src Vector) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Add adds w element-wise into v (v += w). It routes through the tuned
// kernel layer (see kernels.go): unrolled on one goroutine for small vectors,
// chunked across the persistent worker pool for large ones.
func (v Vector) Add(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d != %d", len(v), len(w)))
	}
	applyKernel(kernelAdd, v, w, nil, 0)
}

// Sub subtracts w element-wise from v (v -= w).
func (v Vector) Sub(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Sub length mismatch %d != %d", len(v), len(w)))
	}
	for i, x := range w {
		v[i] -= x
	}
}

// Scale multiplies every element of v by alpha.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Axpy computes v += alpha*w through the tuned kernel layer.
func (v Vector) Axpy(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d != %d", len(v), len(w)))
	}
	applyKernel(kernelAxpy, v, w, nil, alpha)
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i, x := range w {
		s += v[i] * x
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum element of v and its index. It panics on an empty
// vector.
func (v Vector) Max() (float64, int) {
	if len(v) == 0 {
		panic("tensor: Max of empty vector")
	}
	best, idx := v[0], 0
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// ArgMax returns the index of the maximum element.
func (v Vector) ArgMax() int {
	_, idx := v.Max()
	return idx
}

// Equal reports whether v and w have the same length and identical elements.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range w {
		if v[i] != x {
			return false
		}
	}
	return true
}

// AllClose reports whether v and w have the same length and every pair of
// elements differs by at most tol in absolute value.
func (v Vector) AllClose(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range w {
		if math.Abs(v[i]-x) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Randomize fills v with uniform values in [-scale, scale) drawn from rng.
func (v Vector) Randomize(rng *rand.Rand, scale float64) {
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
}

// Chunk splits v into n contiguous chunks whose sizes differ by at most one
// element; the first (len(v) mod n) chunks receive one extra element. The
// returned slices alias v. Chunk panics if n <= 0.
func (v Vector) Chunk(n int) []Vector {
	if n <= 0 {
		panic("tensor: Chunk with non-positive chunk count")
	}
	out := make([]Vector, n)
	base := len(v) / n
	rem := len(v) % n
	off := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out[i] = v[off : off+sz]
		off += sz
	}
	return out
}

// ChunkBounds returns the [start,end) bounds of chunk i when v of length n is
// split into p chunks with the same policy as Chunk.
func ChunkBounds(n, p, i int) (int, int) {
	if p <= 0 || i < 0 || i >= p {
		panic("tensor: ChunkBounds index out of range")
	}
	base := n / p
	rem := n % p
	start := i*base + min(i, rem)
	sz := base
	if i < rem {
		sz++
	}
	return start, start + sz
}

// ErrShape is returned by matrix constructors when dimensions are invalid.
var ErrShape = errors.New("tensor: invalid shape")

// Matrix is a dense row-major matrix backed by a flat Vector.
type Matrix struct {
	Rows, Cols int
	Data       Vector
}

// NewMatrix allocates a Rows x Cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(ErrShape)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// MatrixFromData wraps an existing flat slice as a Rows x Cols matrix without
// copying. It returns an error if the slice length does not match.
func MatrixFromData(rows, cols int, data Vector) (*Matrix, error) {
	if rows*cols != len(data) {
		return nil, fmt.Errorf("%w: %dx%d requires %d elements, got %d", ErrShape, rows, cols, rows*cols, len(data))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a vector aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() { m.Data.Zero() }

// Randomize fills m with uniform values in [-scale, scale).
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) { m.Data.Randomize(rng, scale) }

// XavierInit fills m with the Glorot/Xavier uniform initialization commonly
// used for dense layers: U(-sqrt(6/(fanIn+fanOut)), +sqrt(6/(fanIn+fanOut))).
func (m *Matrix) XavierInit(rng *rand.Rand) {
	scale := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	m.Data.Randomize(rng, scale)
}
