package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// Naive scalar reference loops the kernels must match bit-for-bit. Every
// kernel is element-wise, so neither unrolling nor vector lanes may
// reassociate floating-point operations.

func naiveAdd(dst, src []float64) {
	for i, x := range src {
		dst[i] += x
	}
}

func naiveAxpy(dst []float64, alpha float64, src []float64) {
	for i, x := range src {
		dst[i] += alpha * x
	}
}

// kernelCases enumerates the implementations under test for each op: the
// kernel itself and the public method that runs it.
var kernelCases = []struct {
	name   string
	naive  func(dst []float64, alpha float64, src []float64)
	kernel func(dst []float64, alpha float64, src []float64)
	method func(dst []float64, alpha float64, src []float64)
}{
	{
		name:   "add",
		naive:  func(d []float64, _ float64, s []float64) { naiveAdd(d, s) },
		kernel: func(d []float64, _ float64, s []float64) { addKernel(d, s) },
		method: func(d []float64, _ float64, s []float64) { Vector(d).Add(s) },
	},
	{
		name:   "axpy",
		naive:  naiveAxpy,
		kernel: func(d []float64, a float64, s []float64) { axpy1(d, s, a) },
		method: func(d []float64, a float64, s []float64) { Vector(d).Axpy(a, s) },
	},
}

// fillSpecial draws values that stress the kernels' bit patterns: ordinary
// finites plus signed zeros, infinities, and NaNs.
func fillSpecial(rng *rand.Rand, v []float64) {
	for i := range v {
		switch rng.Intn(12) {
		case 0:
			v[i] = math.NaN()
		case 1:
			v[i] = math.Inf(1)
		case 2:
			v[i] = math.Inf(-1)
		case 3:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestKernelsMatchNaiveBitForBit is the property test of the kernel layer:
// for every op, the kernel and its method must reproduce the naive scalar
// loop bit-for-bit — across odd lengths that exercise the unroll and vector
// tails, and a length past 64 Ki.
func TestKernelsMatchNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 63, 100, 1023, 4096, 64*1024 + 37}
	for _, kc := range kernelCases {
		for _, n := range lengths {
			dst := make([]float64, n)
			src := make([]float64, n)
			fillSpecial(rng, dst)
			fillSpecial(rng, src)
			alpha := rng.NormFloat64()

			want := append([]float64(nil), dst...)
			kc.naive(want, alpha, src)

			check := func(impl string, fn func(d []float64, a float64, s []float64)) {
				got := append([]float64(nil), dst...)
				fn(got, alpha, src)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("%s/%s n=%d: element %d differs: got %x want %x",
						kc.name, impl, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			check("kernel", kc.kernel)
			check("method", kc.method)
		}
	}
}

// TestKernelsStartNoGoroutines pins that every element-wise kernel runs on
// its caller: after Add, Axpy, AddInto and Copy2 at 256 Ki elements, with
// more than one processor available, no goroutine but this test's own has a
// frame in this package.
func TestKernelsStartNoGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 256 * 1024
	a, b, c := NewVector(n), NewVector(n), NewVector(n)
	a.Add(b)
	a.Axpy(0.5, b)
	AddInto(c, a, b)
	Copy2(a, b, c)

	// A stack dump's header is "goroutine N [state]:"; self is "goroutine N ".
	self := make([]byte, 64)
	self = self[:runtime.Stack(self, false)]
	self = self[:bytes.IndexByte(self, '[')]
	buf := make([]byte, 1<<16)
	for {
		m := runtime.Stack(buf, true)
		if m < len(buf) {
			buf = buf[:m]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.HasPrefix(g, string(self)) && strings.Contains(g, "eagersgd/internal/tensor.") {
			t.Errorf("a goroutine runs in the tensor package:\n%s", g)
		}
	}
}

// FuzzKernels cross-checks every kernel against its naive loop on
// fuzzer-generated byte strings reinterpreted as float64 pairs.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1.5)
	f.Add(make([]byte, 8*31), -0.25)
	f.Fuzz(func(t *testing.T, raw []byte, alpha float64) {
		n := len(raw) / 16
		if n == 0 {
			return
		}
		dst := make([]float64, n)
		src := make([]float64, n)
		for i := 0; i < n; i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
		}
		for _, kc := range kernelCases {
			want := append([]float64(nil), dst...)
			kc.naive(want, alpha, src)
			got := append([]float64(nil), dst...)
			kc.kernel(got, alpha, src)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("%s: element %d differs: got %x want %x",
					kc.name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
