package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fillAdversarial draws the values a vector lane can get wrong: signed zeros,
// NaNs of both signs and distinct payloads, infinities, subnormals, values
// whose products overflow or underflow, and ordinary finites.
func fillAdversarial(rng *rand.Rand, v []float64) {
	for i := range v {
		switch rng.Intn(12) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = math.NaN()
		case 3:
			v[i] = math.Float64frombits(0xfff8_0000_0000_0abc) // negative NaN, other payload
		case 4:
			v[i] = math.Inf(1)
		case 5:
			v[i] = math.Inf(-1)
		case 6:
			v[i] = float64(rng.Intn(2)*2-1) * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		case 7:
			v[i] = float64(rng.Intn(2)*2-1) * math.MaxFloat64 / float64(1+rng.Intn(4))
		default:
			v[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(17)-8))
		}
	}
}

// TestAxpyKernelsMatchPortable is the differential test of the vector axpy
// kernels: an axpyBatch of one to four sources, applied through apply4 or
// flush, must leave dst bit for bit as the portable loops leave it, at every
// length from 0 to 67 (vector blocks and tails) and every start offset from 0
// to 3 (unaligned blocks). On a GOARCH or CPU without the vector kernels it
// compares the portable path with itself.
func TestAxpyKernelsMatchPortable(t *testing.T) {
	if !useAVX2 {
		t.Log("no vector axpy kernel on this CPU or GOARCH: the dispatch is the portable loop")
	}
	rng := rand.New(rand.NewSource(61))
	for _, values := range []struct {
		name string
		fill func(*rand.Rand, []float64)
	}{
		{"wide", func(rng *rand.Rand, v []float64) { fillWide(rng, v, 0.1) }},
		{"adversarial", fillAdversarial},
	} {
		for sources := 1; sources <= 4; sources++ {
			for n := 0; n <= 67; n++ {
				for off := 0; off <= 3; off++ {
					at := func() Vector { return NewVector(off + n)[off:] }
					draw := func() Vector {
						v := at()
						values.fill(rng, v)
						return v
					}
					start := draw()
					var srcs [4]Vector
					var as [4]float64
					for i := 0; i < sources; i++ {
						srcs[i] = draw()
						as[i] = draw1(rng, values.fill)
					}

					want := at()
					copy(want, start)
					if sources == 4 {
						axpy4Go(want, srcs[0], srcs[1], srcs[2], srcs[3], as[0], as[1], as[2], as[3])
					} else {
						for i := 0; i < sources; i++ {
							axpy1Go(want, srcs[i], as[i])
						}
					}

					got := at()
					copy(got, start)
					acc := axpyBatch{dst: got}
					for i := 0; i < sources; i++ {
						if acc.add(as[i], srcs[i]) {
							acc.apply4()
						}
					}
					acc.flush()
					requireBits(t, fmt.Sprintf("%s values, %d sources, n=%d, offset %d", values.name, sources, n, off), got, want)
				}
			}
		}
	}
}

func draw1(rng *rand.Rand, fill func(*rand.Rand, []float64)) float64 {
	var v [1]float64
	fill(rng, v[:])
	return v[0]
}

// TestAddOutersSkipsZeroCoefficientsVector is TestAddOutersSkipsZeroCoefficients
// on rows long enough for the vector kernels: a row whose coefficient is
// exactly 0 keeps its -0s, whether one, two or four samples reach it.
func TestAddOutersSkipsZeroCoefficientsVector(t *testing.T) {
	const cols = 13
	negZero := math.Copysign(0, -1)
	for _, batch := range []int{1, 2, 4} {
		m := NewMatrix(2, cols)
		m.Data.Fill(negZero)
		as, bs := make([]Vector, batch), make([]Vector, batch)
		for s := range as {
			as[s] = Vector{0, 1}
			bs[s] = NewVector(cols) // +0s: 1·(+0) turns a -0 into +0
		}
		m.AddOuters(as, bs)
		for j, x := range m.Row(0) {
			if math.Float64bits(x) != math.Float64bits(negZero) {
				t.Fatalf("batch %d: zero-coefficient row changed at %d: %v", batch, j, x)
			}
		}
		for j, x := range m.Row(1) {
			if math.Float64bits(x) != 0 {
				t.Fatalf("batch %d: non-zero coefficient row at %d: got %v, want +0", batch, j, x)
			}
		}
	}
}

// TestMulVecTDenseMatchesMulVec checks the column-axpy matvec against MulVec
// on the transpose, with zero coefficients and non-finite weights, where
// MulVecT's skip would differ. Bits must match, except that where two NaNs
// meet, which payload survives depends on the operand order the compiler
// picks for a scalar addition, so any NaN matches any NaN.
func TestMulVecTDenseMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, rows := range matmulRows {
		for _, cols := range matmulCols {
			for _, values := range []func(*rand.Rand, []float64){
				func(rng *rand.Rand, v []float64) { fillWide(rng, v, 0.3) },
				fillAdversarial,
			} {
				w := NewMatrix(rows, cols)
				values(rng, w.Data)
				x := NewVector(cols)
				values(rng, x)
				want := NewVector(rows)
				w.MulVec(x, want)

				wt := NewMatrix(cols, rows)
				w.TransposeInto(wt)
				got := randomBatch(rng, 1, rows, 0)[0] // stale contents must be overwritten
				wt.MulVecTDense(x, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
						t.Fatalf("MulVecTDense %dx%d: element %d: got %x (%v) want %x (%v)",
							rows, cols, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MulVecTDense: expected a shape panic")
		}
	}()
	NewMatrix(3, 2).MulVecTDense(NewVector(2), NewVector(2))
}
