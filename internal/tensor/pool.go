package tensor

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the shared vector pool behind the zero-allocation
// message substrate. Every layer of the message path — the transports, the
// communicator, the collective algorithms, and the partial-allreduce engine —
// obtains its wire and scratch buffers from GetVector and returns them with
// PutVector, so a steady-state collective round recycles a fixed working set
// instead of hitting the allocator on every hop.
//
// Ownership contract (see DESIGN.md, "Buffer ownership & pooling"):
//
//   - A vector obtained from GetVector is exclusively owned by the caller
//     until it is handed off (e.g. to comm.Send, which takes ownership) or
//     released with PutVector.
//   - PutVector must be called at most once per lease, and never while any
//     other reference to the vector (or a sub-slice of it) is still live.
//     Forgetting to release is safe — the buffer is simply garbage collected —
//     but releasing early corrupts whoever still holds the buffer.
//   - GetVector returns a vector with arbitrary contents; use GetVectorZero
//     when the algorithm assumes null gradients.

const (
	// minPoolCap is the capacity of the smallest size class. Requests below it
	// are rounded up; buffers with smaller capacity are not retained.
	minPoolCap = 32
	// poolClasses is the number of power-of-two size classes:
	// 32 << 0 … 32 << (poolClasses-1) elements, i.e. up to 4 Mi float64s
	// (32 MiB), far above the largest gradient exchanged in this repository.
	poolClasses = 18
)

// maxPoolCap is the capacity of the largest size class. Larger vectors are
// allocated directly and never retained, bounding the memory the pool can pin.
const maxPoolCap = minPoolCap << (poolClasses - 1)

var (
	// vecPools holds one sync.Pool per size class. The pooled element is a
	// *[]float64 rather than the slice itself: storing a bare slice in a
	// sync.Pool would box the slice header on every Put, which alone would
	// break the alloc-free guarantee the message substrate is built on.
	vecPools [poolClasses]sync.Pool
	// boxPool recycles the *[]float64 boxes between GetVector (which frees a
	// box when it unwraps a vector) and PutVector (which needs one to wrap a
	// vector), closing the cycle so steady state allocates neither vectors nor
	// boxes.
	boxPool = sync.Pool{New: func() any { return new([]float64) }}

	poolGets     atomic.Uint64
	poolPuts     atomic.Uint64
	poolMisses   atomic.Uint64
	poolDiscards atomic.Uint64
)

// classForLen returns the smallest size class whose capacity holds n elements
// (n >= 1). Classes beyond poolClasses-1 mean "too large to pool".
func classForLen(n int) int {
	return bits.Len64(uint64(n-1) >> 5)
}

// classForCap returns the largest size class a buffer of capacity c (>=
// minPoolCap) can serve.
func classForCap(c int) int {
	return bits.Len64(uint64(c)>>5) - 1
}

// classCap returns the capacity of size class c.
func classCap(c int) int { return minPoolCap << c }

// GetVector leases a vector of length n from the pool. The contents are
// arbitrary (previous lease's data); the caller must overwrite every element
// it reads, or use GetVectorZero. Vectors larger than the largest size class
// are allocated directly.
func GetVector(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("tensor: GetVector length %d must be non-negative", n))
	}
	if n == 0 {
		return Vector{}
	}
	c := classForLen(n)
	if c >= poolClasses {
		// Counted as a Get too: the lease-balance accounting
		// (PoolStats.OutstandingSince) must see every lease, and the
		// oversized buffer's eventual PutVector lands in Discards.
		poolGets.Add(1)
		poolMisses.Add(1)
		v := make(Vector, n)
		leaseTrack(v)
		return v
	}
	poolGets.Add(1)
	if x := vecPools[c].Get(); x != nil {
		bp := x.(*[]float64)
		v := Vector((*bp)[:n])
		*bp = nil
		boxPool.Put(bp)
		leaseTrack(v)
		return v
	}
	poolMisses.Add(1)
	v := make(Vector, n, classCap(c))
	leaseTrack(v)
	return v
}

// NewClassVector allocates a zero vector of length n at the capacity
// GetVector(n) leases it at, so that PutVector files it in the class
// GetVector(n) leases from: for buffers that later trade places with leases.
func NewClassVector(n int) Vector {
	if c := classForLen(n); c < poolClasses { // n ≤ 0 maps past the classes
		return make(Vector, n, classCap(c))
	}
	return NewVector(n)
}

// GetVectorZero leases a zero-initialized vector of length n from the pool.
func GetVectorZero(n int) Vector {
	v := GetVector(n)
	v.Zero()
	return v
}

// GetVectorCopy leases a vector holding a copy of src — the snapshot
// primitive behind SendCopy, send-time buffer snapshots, and result copies.
func GetVectorCopy(src Vector) Vector {
	v := GetVector(len(src))
	v.CopyFrom(src)
	return v
}

// PutVector returns a leased vector to the pool. It accepts any vector
// (including nil and vectors that did not come from the pool); buffers too
// small or too large for the size classes are simply dropped for the garbage
// collector. The caller must not retain any reference to v — or to any slice
// aliasing v's backing array — after the call.
func PutVector(v Vector) {
	c := cap(v)
	if c == 0 {
		// Nil and empty vectors were never leases (GetVector(0) allocates
		// nothing); dropping them is not a discard, so the lease-balance
		// accounting stays exact.
		return
	}
	if b := aliasReleaser.Load(); b != nil && b.r.ReleaseAlias(v) {
		// An aliased span (see alias.go): reclaimed by its owner, never
		// pooled, and invisible to the lease accounting — no GetVector
		// issued it, so counting neither side keeps the balance exact.
		return
	}
	if c < minPoolCap {
		poolDiscards.Add(1)
		return
	}
	leaseUntrack(v)
	cls := classForCap(c)
	if cls >= poolClasses {
		poolDiscards.Add(1)
		return
	}
	poolPuts.Add(1)
	bp := boxPool.Get().(*[]float64)
	*bp = v[:c]
	vecPools[cls].Put(bp)
}

// PoolStats is a snapshot of the vector pool counters. Counters are
// monotonically increasing process-wide totals.
type PoolStats struct {
	// Gets counts every GetVector lease (pool hit, fresh class-sized
	// allocation, or oversized direct allocation).
	Gets uint64
	// Puts counts vectors accepted back into a size class.
	Puts uint64
	// Misses counts GetVector calls that had to allocate (empty class or
	// oversized request).
	Misses uint64
	// Discards counts PutVector calls whose buffer was dropped (capacity
	// outside the size classes).
	Discards uint64
}

// OutstandingSince estimates the number of pool leases taken between the two
// snapshots that have not been returned: Δ(Gets) - Δ(Puts) - Δ(Discards).
// It is exact when, over the interval, every vector released with PutVector
// came from GetVector — which holds for the message substrate's steady
// state. Chaos and shutdown tests assert it is zero across a quiesced
// create/run/close cycle: a positive value means a leaked lease, the bug
// class this counter exists to catch.
func (s PoolStats) OutstandingSince(prev PoolStats) int64 {
	return int64(s.Gets-prev.Gets) - int64(s.Puts-prev.Puts) - int64(s.Discards-prev.Discards)
}

// ReadPoolStats returns a snapshot of the pool counters. Intended for tests
// (alloc-regression and zero-copy assertions) and diagnostics.
func ReadPoolStats() PoolStats {
	return PoolStats{
		Gets:     poolGets.Load(),
		Puts:     poolPuts.Load(),
		Misses:   poolMisses.Load(),
		Discards: poolDiscards.Load(),
	}
}
