package transport

import (
	"sync"
	"unsafe"

	"eagersgd/internal/tensor"
)

// Alias delivery: large complete frames are handed to the receiver as float64
// views of the ring span itself instead of decode copies — the second of the
// two copies a classic copy-in/copy-out shared-memory transport pays, and the
// dominant cost of the shm hot path at gradient sizes. The receiver releases
// the view with tensor.PutVector exactly like a pool lease; a process-wide
// AliasReleaser registry routes that release back to the owning ring, which
// only then advances the shared head and returns the span to its producer.
//
// The consumer therefore keeps two cursors: consPos (private, what has been
// read) and head (shared, what has been freed). While aliased spans are
// outstanding, every consumed record — aliased or not — queues a span entry
// behind them, because head can only advance monotonically: a copied record
// behind an unreleased alias stays pinned until the alias is released.
// Entries released in order collapse into their predecessor, so the queue
// stays proportional to the number of outstanding aliases, which the
// aliasMinBytes floor bounds by capacity/aliasMinBytes.
//
// Aliasing tightens the release contract (an unreleased alias pins ring space
// the way an unread TCP socket buffer pins its sender), so only bulk frames
// are aliased: small control traffic — and everything in a ring too small to
// matter — keeps the copy path and the loose "forgetting to release only
// costs a GC" contract.

const (
	// aliasMinBytes is the payload floor for alias delivery. 16 KiB keeps
	// every alias large enough that the saved memmove dominates the tracking
	// overhead, bounds the span queue, and leaves small-frame traffic (control
	// messages, the chaos suites' toy gradients) on the copy path. A ring can
	// alias only when its record budget reaches the floor, i.e. capacity of
	// at least 4*aliasMinBytes.
	aliasMinBytes = 16 << 10

	// maxAliasSpans caps the span queue; beyond it new frames fall back to
	// copying. With entry collapsing the queue needs at most two entries per
	// outstanding alias, so this is a backstop, not a working limit.
	maxAliasSpans = 512
)

// aliasSpan is one consumed stretch of the ring awaiting its head advance:
// either an aliased frame (released when the receiver puts the vector back)
// or a run of copied/pad/fragment records queued behind one (born released).
type aliasSpan struct {
	end      uint64 // ring position after this span (next record's start)
	payStart uint64 // data-area offset of the aliased payload; 0 for fillers
	payLen   uint64 // payload byte length; 0 for fillers
	released bool
}

// ringAliasTable is the process-wide registry mapping ring data regions to
// their rings, installed as the tensor pool's AliasReleaser by the first ring
// that hands out an alias. PutVector consults it before pooling: one mutex
// and a linear scan over the live aliasing rings (a handful per endpoint).
type ringAliasTable struct {
	mu    sync.Mutex
	rings []*ringBuffer
}

var (
	aliasTable       ringAliasTable
	aliasInstallHook sync.Once
)

// ReleaseAlias implements tensor.AliasReleaser: if v's backing array lies in
// a registered ring's data area, the owning span is released (head advances
// past every span freed by it) and true is returned. Sub-slices of the
// delivered vector match too — release is by address containment.
func (t *ringAliasTable) ReleaseAlias(v tensor.Vector) bool {
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	t.mu.Lock()
	for i, r := range t.rings {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(r.data)))
		if addr < base || addr >= base+uintptr(len(r.data)) {
			continue
		}
		if r.releaseAlias(uint64(addr - base)) {
			t.rings = append(t.rings[:i], t.rings[i+1:]...)
		}
		t.mu.Unlock()
		return true
	}
	t.mu.Unlock()
	return false
}

// ensureAliasRegistered puts the ring in the process alias table (installing
// the table as the pool's releaser on first use). Consumer-owned; called
// before the first alias escapes.
func (r *ringBuffer) ensureAliasRegistered() {
	if r.aliasReg {
		return
	}
	aliasInstallHook.Do(func() { tensor.SetAliasReleaser(&aliasTable) })
	aliasTable.mu.Lock()
	aliasTable.rings = append(aliasTable.rings, r)
	aliasTable.mu.Unlock()
	r.aliasReg = true
}

// consumeRecord publishes that the consumer has fully processed the record at
// pos: consPos always advances; the shared head advances immediately unless
// aliased spans are outstanding, in which case the span queues behind them
// (collapsing into a released predecessor).
func (r *ringBuffer) consumeRecord(pos, n uint64) {
	r.consPos = pos + n
	if !r.aliasActive.Load() {
		r.advance(pos, n)
		return
	}
	r.aliasMu.Lock()
	if len(r.aliasSpans) == 0 {
		// The releaser drained the queue after our fast-path check.
		r.aliasMu.Unlock()
		r.advance(pos, n)
		return
	}
	if last := &r.aliasSpans[len(r.aliasSpans)-1]; last.released {
		last.end = pos + n
	} else {
		r.aliasSpans = append(r.aliasSpans, aliasSpan{end: pos + n, released: true})
	}
	r.aliasMu.Unlock()
}

// consumeAliasRecord records an aliased span: consPos advances past it but
// the head advance is deferred until the receiver releases the view. Returns
// false (and consumes nothing) when the span queue is at its backstop cap —
// the caller copies instead.
func (r *ringBuffer) consumeAliasRecord(pos, n, payStart, payLen uint64) bool {
	r.ensureAliasRegistered()
	r.aliasMu.Lock()
	if len(r.aliasSpans) >= maxAliasSpans {
		r.aliasMu.Unlock()
		return false
	}
	r.aliasSpans = append(r.aliasSpans, aliasSpan{end: pos + n, payStart: payStart, payLen: payLen})
	r.aliasHeld++
	r.aliasActive.Store(true)
	r.aliasMu.Unlock()
	r.consPos = pos + n
	return true
}

// releaseAlias marks the span containing data-area offset off released and
// advances head past the released prefix of the queue. Called by the table
// with its lock held; returns true when the ring was retired (closed and now
// drained) and should leave the table.
func (r *ringBuffer) releaseAlias(off uint64) bool {
	r.aliasMu.Lock()
	defer r.aliasMu.Unlock()
	for i := range r.aliasSpans {
		s := &r.aliasSpans[i]
		if !s.released && off >= s.payStart && off < s.payStart+s.payLen {
			s.released = true
			r.aliasHeld--
			break
		}
	}
	r.drainAliasLocked()
	return r.aliasRetire && r.aliasHeld == 0 && len(r.aliasSpans) == 0
}

// drainAliasLocked pops the released prefix of the span queue, publishing the
// head advance and waking a parked producer. Caller holds aliasMu.
func (r *ringBuffer) drainAliasLocked() {
	i := 0
	for i < len(r.aliasSpans) && r.aliasSpans[i].released {
		i++
	}
	if i == 0 {
		return
	}
	end := r.aliasSpans[i-1].end
	r.aliasSpans = append(r.aliasSpans[:0], r.aliasSpans[i:]...)
	if len(r.aliasSpans) == 0 {
		r.aliasActive.Store(false)
	}
	r.head.Store(end)
	if r.prodParked.Swap(0) != 0 {
		r.prodWake.signal()
	}
}

// retireAliases detaches the ring from alias delivery at consumer close:
// immediately when no aliases are outstanding; otherwise the ring stays
// registered until the receiver releases the last aliased vector, so a late
// tensor.PutVector still finds the ring and never reaches the pool with
// transport-owned memory. Only the closing endpoint may call it, after the
// poller has been joined.
func (r *ringBuffer) retireAliases() {
	aliasTable.mu.Lock()
	defer aliasTable.mu.Unlock()
	r.aliasMu.Lock()
	defer r.aliasMu.Unlock()
	if r.aliasHeld > 0 {
		r.aliasRetire = true
		return
	}
	if r.aliasReg {
		for i, reg := range aliasTable.rings {
			if reg == r {
				aliasTable.rings = append(aliasTable.rings[:i], aliasTable.rings[i+1:]...)
				break
			}
		}
		r.aliasReg = false
	}
}
