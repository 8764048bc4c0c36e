package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewVectorZeroed(t *testing.T) {
	v := NewVector(16)
	if v.Len() != 16 {
		t.Fatalf("Len = %d, want 16", v.Len())
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("element %d = %v, want 0", i, x)
		}
	}
}

func TestNewVectorNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for negative length")
		}
	}()
	NewVector(-1)
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone shares storage with original")
	}
}

func TestZeroAndFill(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Fill(7)
	for _, x := range v {
		if x != 7 {
			t.Fatalf("Fill failed: %v", v)
		}
	}
	v.Zero()
	for _, x := range v {
		if x != 0 {
			t.Fatalf("Zero failed: %v", v)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	v := NewVector(3)
	v.CopyFrom(Vector{4, 5, 6})
	if !v.Equal(Vector{4, 5, 6}) {
		t.Fatalf("CopyFrom failed: %v", v)
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewVector(2).CopyFrom(Vector{1, 2, 3})
}

func TestAddSubScale(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Add(Vector{10, 20, 30})
	if !v.Equal(Vector{11, 22, 33}) {
		t.Fatalf("Add failed: %v", v)
	}
	v.Sub(Vector{1, 2, 3})
	if !v.Equal(Vector{10, 20, 30}) {
		t.Fatalf("Sub failed: %v", v)
	}
	v.Scale(0.5)
	if !v.Equal(Vector{5, 10, 15}) {
		t.Fatalf("Scale failed: %v", v)
	}
}

func TestAxpy(t *testing.T) {
	v := Vector{1, 1, 1}
	v.Axpy(2, Vector{1, 2, 3})
	if !v.Equal(Vector{3, 5, 7}) {
		t.Fatalf("Axpy failed: %v", v)
	}
}

func TestDotAndNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Dot(Vector{1, 1}); got != 7 {
		t.Fatalf("Dot = %v, want 7", got)
	}
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestSumMaxArgMax(t *testing.T) {
	v := Vector{1, 5, 3, 5}
	if got := v.Sum(); got != 14 {
		t.Fatalf("Sum = %v", got)
	}
	best, idx := v.Max()
	if best != 5 || idx != 1 {
		t.Fatalf("Max = %v,%d want 5,1 (first occurrence)", best, idx)
	}
	if v.ArgMax() != 1 {
		t.Fatalf("ArgMax = %d", v.ArgMax())
	}
}

func TestMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Vector{}.Max()
}

func TestEqualAndAllClose(t *testing.T) {
	a := Vector{1, 2, 3}
	if !a.Equal(Vector{1, 2, 3}) {
		t.Fatalf("Equal false negative")
	}
	if a.Equal(Vector{1, 2}) {
		t.Fatalf("Equal ignores length")
	}
	if !a.AllClose(Vector{1.0001, 2, 3}, 1e-3) {
		t.Fatalf("AllClose false negative")
	}
	if a.AllClose(Vector{1.1, 2, 3}, 1e-3) {
		t.Fatalf("AllClose false positive")
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2, 3}).IsFinite() {
		t.Fatalf("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Fatalf("NaN not detected")
	}
	if (Vector{math.Inf(1)}).IsFinite() {
		t.Fatalf("Inf not detected")
	}
}

func TestRandomizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVector(1000)
	v.Randomize(rng, 0.5)
	for _, x := range v {
		if x < -0.5 || x >= 0.5 {
			t.Fatalf("Randomize out of bounds: %v", x)
		}
	}
}

func TestChunkCoversAndBalances(t *testing.T) {
	v := NewVector(10)
	for i := range v {
		v[i] = float64(i)
	}
	chunks := v.Chunk(3)
	if len(chunks) != 3 {
		t.Fatalf("chunk count %d", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
		if len(c) < 3 || len(c) > 4 {
			t.Fatalf("unbalanced chunk size %d", len(c))
		}
	}
	if total != 10 {
		t.Fatalf("chunks cover %d elements, want 10", total)
	}
	// Chunks must alias v.
	chunks[0][0] = 42
	if v[0] != 42 {
		t.Fatalf("Chunk does not alias the vector")
	}
}

func TestChunkMoreChunksThanElements(t *testing.T) {
	v := NewVector(2)
	chunks := v.Chunk(5)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 2 {
		t.Fatalf("chunks cover %d, want 2", total)
	}
}

func TestChunkBoundsMatchesChunk(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 100} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			v := NewVector(n)
			chunks := v.Chunk(p)
			off := 0
			for i := 0; i < p; i++ {
				s, e := ChunkBounds(n, p, i)
				if s != off || e-s != len(chunks[i]) {
					t.Fatalf("ChunkBounds(%d,%d,%d)=(%d,%d) disagrees with Chunk (off=%d len=%d)", n, p, i, s, e, off, len(chunks[i]))
				}
				off = e
			}
			if off != n {
				t.Fatalf("bounds do not cover the vector: %d != %d", off, n)
			}
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("Set/At failed")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 7 {
		t.Fatalf("Row view incorrect")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatalf("Clone shares storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatalf("Zero failed")
	}
}

func TestMatrixFromData(t *testing.T) {
	m, err := MatrixFromData(2, 2, Vector{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("row-major layout broken")
	}
	if _, err := MatrixFromData(2, 3, Vector{1}); err == nil {
		t.Fatalf("expected shape error")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := MatrixFromData(2, 3, Vector{1, 2, 3, 4, 5, 6})
	out := NewVector(2)
	m.MulVec(Vector{1, 1, 1}, out)
	if !out.Equal(Vector{6, 15}) {
		t.Fatalf("MulVec = %v", out)
	}
}

func TestMulVecT(t *testing.T) {
	m, _ := MatrixFromData(2, 3, Vector{1, 2, 3, 4, 5, 6})
	out := NewVector(3)
	m.MulVecT(Vector{1, 1}, out)
	if !out.Equal(Vector{5, 7, 9}) {
		t.Fatalf("MulVecT = %v", out)
	}
}

func TestAddOuters(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuters([]Vector{{1, 2}, {1, 0}}, []Vector{{3, 4}, {1, 1}})
	want := Vector{4, 5, 6, 8}
	if !m.Data.Equal(want) {
		t.Fatalf("AddOuters = %v, want %v", m.Data, want)
	}
}

func TestXavierInitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(100, 100)
	m.XavierInit(rng)
	limit := math.Sqrt(6.0 / 200.0)
	for _, x := range m.Data {
		if x < -limit || x >= limit {
			t.Fatalf("Xavier value %v out of [-%v, %v)", x, limit, limit)
		}
	}
}

// --- property-based tests ---

func boundedVec(xs []float64) Vector {
	v := make(Vector, len(xs))
	for i, x := range xs {
		// Keep values in a sane range so float error bounds stay meaningful.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		v[i] = math.Mod(x, 1e6)
	}
	return v
}

func TestPropAddCommutative(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		a := boundedVec(xs[:n])
		b := boundedVec(ys[:n])
		ab := a.Clone()
		ab.Add(b)
		ba := b.Clone()
		ba.Add(a)
		return ab.AllClose(ba, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddSubRoundTrip(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		a := boundedVec(xs[:n])
		b := boundedVec(ys[:n])
		c := a.Clone()
		c.Add(b)
		c.Sub(b)
		return c.AllClose(a, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropScaleLinearity(t *testing.T) {
	f := func(xs []float64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			alpha = 1
		}
		alpha = math.Mod(alpha, 100)
		a := boundedVec(xs)
		sum := a.Sum()
		a.Scale(alpha)
		return math.Abs(a.Sum()-alpha*sum) <= 1e-6*(1+math.Abs(alpha*sum))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDotCauchySchwarz(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		a := boundedVec(xs[:n])
		b := boundedVec(ys[:n])
		lhs := math.Abs(a.Dot(b))
		rhs := a.Norm2() * b.Norm2()
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropChunkPreservesSum(t *testing.T) {
	f := func(xs []float64, pRaw uint8) bool {
		p := int(pRaw%16) + 1
		a := boundedVec(xs)
		var total float64
		for _, c := range a.Chunk(p) {
			total += c.Sum()
		}
		return math.Abs(total-a.Sum()) <= 1e-6*(1+math.Abs(a.Sum()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropChunkBoundsPartition(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw % 2048)
		p := int(pRaw%32) + 1
		prevEnd := 0
		for i := 0; i < p; i++ {
			s, e := ChunkBounds(n, p, i)
			if s != prevEnd || e < s {
				return false
			}
			prevEnd = e
		}
		return prevEnd == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
