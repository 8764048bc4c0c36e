package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refAddInto is the scalar reference loop the unrolled three-address sum
// must match bit for bit.
func refAddInto(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// intoLengths crosses the unroll widths, the remainder tails, and lengths of
// 64 Ki and past it.
var intoLengths = []int{0, 1, 3, 7, 8, 9, 31, 100, 1024, 64 * 1024, 64*1024 + 17}

func randomOperands(rng *rand.Rand, n int) (a, b Vector) {
	a, b = NewVector(n), NewVector(n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		// Sprinkle NaNs and infinities into both operands.
		switch rng.Intn(16) {
		case 0:
			b[i] = math.NaN()
		case 1:
			a[i] = math.NaN()
		case 2:
			a[i], b[i] = math.Inf(1), math.Inf(-1)
		}
	}
	return a, b
}

func TestIntoKernelsMatchReference(t *testing.T) {
	kernels := []struct {
		name string
		into func(dst, a, b Vector)
		ref  func(dst, a, b []float64)
	}{
		{"AddInto", AddInto, refAddInto},
	}
	rng := rand.New(rand.NewSource(7))
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			for _, n := range intoLengths {
				a, b := randomOperands(rng, n)
				got, want := NewVector(n), NewVector(n)
				k.into(got, a, b)
				k.ref(want, a, b)
				for i := range want {
					if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
						t.Fatalf("n=%d: %s[%d] = %v, reference %v (a=%v b=%v)", n, k.name, i, got[i], want[i], a[i], b[i])
					}
				}
			}
		})
	}
}

// TestIntoKernelsAliasDst checks the documented aliasing contract: dst may be
// a or b, since each element is read before it is written.
func TestIntoKernelsAliasDst(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 100, 1024} {
		a, b := randomOperands(rng, n)
		want := NewVector(n)
		refAddInto(want, a, b)

		gotA := append(Vector(nil), a...)
		AddInto(gotA, gotA, b)
		gotB := append(Vector(nil), b...)
		AddInto(gotB, a, gotB)
		for i := range want {
			sameA := gotA[i] == want[i] || (math.IsNaN(gotA[i]) && math.IsNaN(want[i]))
			sameB := gotB[i] == want[i] || (math.IsNaN(gotB[i]) && math.IsNaN(want[i]))
			if !sameA || !sameB {
				t.Fatalf("n=%d: aliased AddInto diverged at %d: dst=a %v, dst=b %v, want %v", n, i, gotA[i], gotB[i], want[i])
			}
		}
	}
}

func TestCopy2WritesBothDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range intoLengths {
		src := NewVector(n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		dst, dup := NewVector(n), NewVector(n)
		dst.Fill(math.NaN())
		dup.Fill(math.NaN())
		Copy2(dst, dup, src)
		for i := range src {
			if dst[i] != src[i] || dup[i] != src[i] {
				t.Fatalf("n=%d: Copy2 at %d: dst=%v dup=%v src=%v", n, i, dst[i], dup[i], src[i])
			}
		}
	}
}

func TestIntoKernelsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddInto with mismatched lengths did not panic")
		}
	}()
	AddInto(NewVector(4), NewVector(4), NewVector(5))
}
