package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The one-row, one-sample loops the blocked matrix kernels replaced. The
// kernels must reproduce them bit-for-bit: blocking may change how often an
// element is loaded, never which additions it receives or their order.

func naiveMulVec(m *Matrix, x, out Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = s
	}
}

func naiveMulVecT(m *Matrix, x, out Vector) {
	out.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, w := range row {
			out[j] += w * xi
		}
	}
}

func naiveAddOuter(m *Matrix, x, y Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		ax := x[i]
		if ax == 0 {
			continue
		}
		for j, yj := range y {
			row[j] += ax * yj
		}
	}
}

// fillWide draws finite values over sixteen orders of magnitude, so any
// reassociated sum rounds differently, plus signed zeros; zeroRate of them are
// exactly +0 or -0 to exercise the skip of zero coefficients.
func fillWide(rng *rand.Rand, v Vector, zeroRate float64) {
	for i := range v {
		switch {
		case rng.Float64() < zeroRate:
			v[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			v[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(17)-8))
		}
	}
}

func randomBatch(rng *rand.Rand, n, size int, zeroRate float64) []Vector {
	vs := make([]Vector, n)
	for s := range vs {
		vs[s] = NewVector(size)
		fillWide(rng, vs[s], zeroRate)
	}
	return vs
}

func requireBits(t *testing.T, what string, got, want Vector) {
	t.Helper()
	if i, ok := bitsEqual(want, got); !ok {
		t.Fatalf("%s: element %d differs: got %x (%v) want %x (%v)",
			what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
	}
}

// matmulShapes covers row, column and batch counts on both sides of the
// four-wide blocking, including none that is a multiple of 4.
var (
	matmulRows    = []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17}
	matmulCols    = []int{1, 3, 4, 5, 16, 17, 31}
	matmulBatches = []int{1, 2, 3, 4, 5, 7, 8, 9}
)

func TestMulVecMulMatMatchNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, rows := range matmulRows {
		for _, cols := range matmulCols {
			m := NewMatrix(rows, cols)
			fillWide(rng, m.Data, 0.1)
			for _, batch := range matmulBatches {
				xs := randomBatch(rng, batch, cols, 0.2)
				outs := randomBatch(rng, batch, rows, 0) // stale contents must be overwritten
				m.MulMat(xs, outs)
				for s, x := range xs {
					want := NewVector(rows)
					naiveMulVec(m, x, want)
					requireBits(t, fmt.Sprintf("MulMat %dx%d batch %d sample %d", rows, cols, batch, s), outs[s], want)
					got := randomBatch(rng, 1, rows, 0)[0]
					m.MulVec(x, got)
					requireBits(t, fmt.Sprintf("MulVec %dx%d", rows, cols), got, want)
				}
			}
		}
	}
}

func TestMulVecTMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, rows := range matmulRows {
		for _, cols := range matmulCols {
			for _, zeroRate := range []float64{0, 0.3, 1} {
				m := NewMatrix(rows, cols)
				fillWide(rng, m.Data, 0.1)
				x := NewVector(rows)
				fillWide(rng, x, zeroRate)
				want := NewVector(cols)
				naiveMulVecT(m, x, want)
				got := randomBatch(rng, 1, cols, 0)[0]
				m.MulVecT(x, got)
				requireBits(t, fmt.Sprintf("MulVecT %dx%d zeros %.1f", rows, cols, zeroRate), got, want)
			}
		}
	}
}

func TestAddOutersMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, rows := range matmulRows {
		for _, cols := range matmulCols {
			for _, batch := range matmulBatches {
				for _, zeroRate := range []float64{0, 0.4} {
					start := NewMatrix(rows, cols)
					fillWide(rng, start.Data, 0.2) // signed zeros in the accumulator too
					as := randomBatch(rng, batch, rows, zeroRate)
					bs := randomBatch(rng, batch, cols, 0.1)

					want := start.Clone()
					for s := range as {
						naiveAddOuter(want, as[s], bs[s])
					}
					got := start.Clone()
					got.AddOuters(as, bs)
					requireBits(t, fmt.Sprintf("AddOuters %dx%d batch %d zeros %.1f", rows, cols, batch, zeroRate), got.Data, want.Data)
				}
			}
		}
	}
}

// TestAddOutersSkipsZeroCoefficients pins the skip semantics on a case where
// adding 0·b would change bits: -0 + (+0·b) is +0, so a row whose coefficient
// is exactly 0 must be left untouched, not added to.
func TestAddOutersSkipsZeroCoefficients(t *testing.T) {
	negZero := math.Copysign(0, -1)
	m, _ := MatrixFromData(2, 1, Vector{negZero, negZero})
	m.AddOuters([]Vector{{0, 1}}, []Vector{{0}})
	if math.Float64bits(m.Data[0]) != math.Float64bits(negZero) {
		t.Fatalf("zero coefficient row changed: %v", m.Data[0])
	}
	if math.Float64bits(m.Data[1]) != 0 {
		t.Fatalf("non-zero coefficient row: got %v, want +0", m.Data[1])
	}
}

func TestMatmulShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"MulMat batch":     func() { m.MulMat([]Vector{NewVector(3)}, nil) },
		"MulMat shape":     func() { m.MulMat([]Vector{NewVector(2)}, []Vector{NewVector(2)}) },
		"MulVecT shape":    func() { m.MulVecT(NewVector(3), NewVector(3)) },
		"AddOuters batch":  func() { m.AddOuters([]Vector{NewVector(2)}, nil) },
		"AddOuters shape":  func() { m.AddOuters([]Vector{NewVector(2)}, []Vector{NewVector(2)}) },
		"MulVec out shape": func() { m.MulVec(NewVector(3), NewVector(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
