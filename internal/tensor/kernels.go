package tensor

import (
	"runtime"
	"sync"
)

// This file implements the tuned reduction-kernel layer beneath the
// element-wise vector operations the collectives hammer on every hop:
// unrolled single-thread kernels for sum and axpy, plus a chunked
// multi-goroutine parallel dispatcher backed by a persistent worker pool.
//
// Vector.Add, Vector.Axpy, and the collective reductions all route through
// AddVec/AxpyVec. Small vectors stay on the
// single-thread unrolled path (spawning work costs more than it saves below
// tens of kilobytes); vectors of ParallelThreshold elements or more are split
// into contiguous chunks and fanned out across the pool, with the calling
// goroutine reducing the first chunk itself so the pool only ever carries
// workers-1 chunks.
//
// Every kernel is element-wise (dst[i] op= src[i]), so chunking never
// reassociates floating-point operations: the parallel and unrolled paths
// produce results bit-for-bit identical to the naive scalar loop, which the
// property tests in kernels_test.go assert.
//
// The pool is engaged only when GOMAXPROCS > 1 at first use; on a
// single-processor runtime every call takes the unrolled path and no worker
// goroutines are ever started. Workers are started once and live for the
// process lifetime (there is no shutdown: they are parked on an empty channel
// and cost nothing while idle). The dispatch path is allocation-free in
// steady state: tasks are plain structs sent by value, and the completion
// WaitGroups are recycled through a sync.Pool.

// ParallelThreshold is the element count at or above which the element-wise
// kernels fan out across the persistent worker pool (when more than one
// processor is available). 64Ki float64s (512 KiB) is past the point where a
// single core's loop is memory-bound on typical hardware.
const ParallelThreshold = 64 * 1024

// minParallelChunk bounds how finely a parallel call is chunked: no worker
// receives fewer than this many elements, so the per-task handoff cost stays
// negligible against the work itself.
const minParallelChunk = 16 * 1024

// maxKernelWorkers caps the pool size; beyond this the kernels are
// memory-bandwidth-bound and extra goroutines only add handoff latency.
const maxKernelWorkers = 16

type kernelOp uint8

const (
	kernelAdd kernelOp = iota
	kernelAxpy
	kernelAddInto
	kernelCopy2
)

// kernelTask is one chunk of a parallel kernel call. It is sent by value, so
// enqueueing a task performs no allocation. aux carries the second operand of
// the three-address kernels (kernels_into.go) and is nil for the in-place
// two-address ones.
type kernelTask struct {
	op       kernelOp
	dst, src []float64
	aux      []float64
	alpha    float64
	wg       *sync.WaitGroup
}

var (
	kernelOnce    sync.Once
	kernelWorkers int             // 0 until the pool starts; 0 forever on GOMAXPROCS=1
	kernelCh      chan kernelTask // nil when the pool is disabled
	kernelWGPool  = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// startKernelPool starts the persistent workers on first use. On a
// single-processor runtime the pool stays disabled and kernelWorkers stays 0.
func startKernelPool() {
	kernelOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		if workers > maxKernelWorkers {
			workers = maxKernelWorkers
		}
		if workers < 2 {
			return
		}
		kernelWorkers = workers
		kernelCh = make(chan kernelTask, 2*workers)
		for i := 0; i < workers; i++ {
			go func() {
				for t := range kernelCh {
					runKernel(t.op, t.dst, t.src, t.aux, t.alpha)
					t.wg.Done()
				}
			}()
		}
	})
}

// runKernel executes one kernel over a contiguous range on the calling
// goroutine. aux is the second operand of the three-address kernels and nil
// for the in-place ones.
func runKernel(op kernelOp, dst, src, aux []float64, alpha float64) {
	switch op {
	case kernelAdd:
		addKernel(dst, src)
	case kernelAxpy:
		axpyKernel(dst, alpha, src)
	case kernelAddInto:
		addIntoKernel(dst, src, aux)
	case kernelCopy2:
		copy2Kernel(dst, src, aux)
	}
}

// applyKernel is the routing point: small inputs run the unrolled kernel
// inline; large inputs are chunked across the worker pool, with the caller
// taking chunk 0.
func applyKernel(op kernelOp, dst, src, aux []float64, alpha float64) {
	n := len(dst)
	if n >= ParallelThreshold {
		startKernelPool()
		if kernelWorkers >= 2 {
			parallelApply(op, dst, src, aux, alpha, kernelWorkers)
			return
		}
	}
	runKernel(op, dst, src, aux, alpha)
}

// parallelApply splits [0, len(dst)) into parts contiguous chunks, hands
// chunks 1..parts-1 to the pool, reduces chunk 0 on the calling goroutine,
// and waits for the pool chunks to finish.
func parallelApply(op kernelOp, dst, src, aux []float64, alpha float64, parts int) {
	n := len(dst)
	if byChunk := n / minParallelChunk; parts > byChunk {
		parts = byChunk
	}
	if parts < 2 {
		runKernel(op, dst, src, aux, alpha)
		return
	}
	wg := kernelWGPool.Get().(*sync.WaitGroup)
	wg.Add(parts - 1)
	for i := 1; i < parts; i++ {
		lo, hi := ChunkBounds(n, parts, i)
		t := kernelTask{op: op, dst: dst[lo:hi], src: src[lo:hi], alpha: alpha, wg: wg}
		if aux != nil {
			t.aux = aux[lo:hi]
		}
		kernelCh <- t
	}
	_, hi0 := ChunkBounds(n, parts, 0)
	var aux0 []float64
	if aux != nil {
		aux0 = aux[:hi0]
	}
	runKernel(op, dst[:hi0], src[:hi0], aux0, alpha)
	wg.Wait()
	kernelWGPool.Put(wg)
}

// AddVec computes dst[i] += src[i]. It panics if the lengths differ.
func AddVec(dst, src Vector) {
	checkKernelLen("AddVec", len(dst), len(src))
	applyKernel(kernelAdd, dst, src, nil, 0)
}

// AxpyVec computes dst[i] += alpha * src[i]. It panics if the lengths differ.
func AxpyVec(dst Vector, alpha float64, src Vector) {
	checkKernelLen("AxpyVec", len(dst), len(src))
	applyKernel(kernelAxpy, dst, src, nil, alpha)
}

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

// axpyKernel is the 8-way unrolled dst += alpha*src.
func axpyKernel(dst []float64, alpha float64, src []float64) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] += alpha * s[0]
		d[1] += alpha * s[1]
		d[2] += alpha * s[2]
		d[3] += alpha * s[3]
		d[4] += alpha * s[4]
		d[5] += alpha * s[5]
		d[6] += alpha * s[6]
		d[7] += alpha * s[7]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}
