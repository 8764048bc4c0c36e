package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Naive scalar reference loops the kernels must match bit-for-bit. Every
// kernel is element-wise, so neither unrolling nor chunking may reassociate
// floating-point operations.

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

// kernelVariants enumerates the implementations under test for each op: the
// unrolled single-thread kernel, the public routing entry point, and the
// chunked parallel dispatcher driven directly (so the parallel path is
// exercised even when GOMAXPROCS is 1 and routing would never pick it).
var kernelCases = []struct {
	name     string
	naive    func(dst []float64, alpha float64, src []float64)
	unrolled func(dst []float64, alpha float64, src []float64)
	routed   func(dst []float64, alpha float64, src []float64)
	op       kernelOp
}{
	{
		name:     "add",
		naive:    func(d []float64, _ float64, s []float64) { naiveAdd(d, s) },
		unrolled: func(d []float64, _ float64, s []float64) { addKernel(d, s) },
		routed:   func(d []float64, _ float64, s []float64) { AddVec(d, s) },
		op:       kernelAdd,
	},
	{
		name:     "axpy",
		naive:    naiveAxpy,
		unrolled: axpyKernel,
		routed:   func(d []float64, a float64, s []float64) { AxpyVec(d, a, s) },
		op:       kernelAxpy,
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
// for every op, every implementation (unrolled, routed, and the parallel
// dispatcher at several chunk counts) must reproduce the naive scalar loop
// bit-for-bit — across odd lengths that exercise the unroll tails and lengths
// past the parallel threshold.
func TestKernelsMatchNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 63, 100, 1023, 4096, ParallelThreshold + 37}
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
			check("unrolled", kc.unrolled)
			check("routed", kc.routed)
			if n >= 2*minParallelChunk {
				startKernelPool()
				if kernelCh != nil {
					for _, parts := range []int{2, 3} {
						p := parts
						check("parallel", func(d []float64, a float64, s []float64) {
							parallelApply(kc.op, d, s, nil, a, p)
						})
					}
				}
			}
		}
	}
}

// TestParallelChunkingDirect drives the chunked dispatcher through worker
// handoff even on a single-processor runtime, by starting a private task
// relay identical to the pool's. It guards the chunk-boundary arithmetic.
func TestParallelChunkingDirect(t *testing.T) {
	n := 3*minParallelChunk + 11
	rng := rand.New(rand.NewSource(7))
	dst := make([]float64, n)
	src := make([]float64, n)
	fillSpecial(rng, dst)
	fillSpecial(rng, src)
	want := append([]float64(nil), dst...)
	naiveAdd(want, src)

	got := append([]float64(nil), dst...)
	parts := 3
	done := make(chan struct{}, parts)
	for i := 0; i < parts; i++ {
		lo, hi := ChunkBounds(n, parts, i)
		go func(lo, hi int) {
			addKernel(got[lo:hi], src[lo:hi])
			done <- struct{}{}
		}(lo, hi)
	}
	for i := 0; i < parts; i++ {
		<-done
	}
	if i, ok := bitsEqual(want, got); !ok {
		t.Fatalf("chunked add differs from naive at %d", i)
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
			kc.unrolled(got, alpha, src)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("%s: element %d differs: got %x want %x",
					kc.name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
