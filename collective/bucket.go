package collective

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"eagersgd/internal/collectives"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
)

// This file implements the bucketed, overlapped gradient exchange: instead of
// one blocking Reduce over the whole flat gradient after the backward pass, a
// training loop opens a step (BeginStep), submits layer-aligned buckets as
// backprop produces them (SubmitBucket — communication starts while the
// remaining layers are still backpropagating), applies each bucket's reduced
// sum as it lands (BucketHandle.Wait), and closes the step (WaitStep). The
// classic one-shot Reduce remains the single-bucket special case.
//
// Concurrency and wire safety: the Sync reducer reduces a step's buckets one
// at a time, in submit order, on one worker goroutine in the default tag
// block, as Horovod's background thread and PyTorch DDP's reducer do: one
// reduction is in flight, and every rank runs the same bucket's collective at
// the same position of its message stream. The eager reducers commit a
// step's buckets in one fold and reduce them as one partial round behind a
// single activation: one solo/majority/quorum participation decision per
// step, shared by every bucket (see internal/partial).

// ErrReducerClosed is returned by the bucketed step API after Close.
var ErrReducerClosed = errors.New("collective: reducer closed")

// BucketReducer is the asynchronous bucket extension of Reducer, implemented
// by every built-in mode. One step's protocol is
//
//	br.BeginStep(ctx, lens)                   // once per step
//	h, _ := br.SubmitBucket(ctx, off, data)   // per bucket, during backprop
//	sum, _ := h.Wait(ctx)                     // per bucket, as results land
//	res, _ := br.WaitStep(ctx)                // once per step
//
// SPMD contract: every rank must open steps with the same bucket lengths and
// submit the buckets in the same order (the reverse layer order of the
// backward pass satisfies this), interleaved identically with any plain
// Reduce calls. Eager reducers additionally fix the layout at construction
// (WithBucketLayout): their engine hands out every round's result by the one
// layout it was built with.
type BucketReducer interface {
	Reducer
	// BeginStep opens a bucketed step whose buckets have the given lengths,
	// in ascending offset order, summing to the reducer dimension. For the
	// negotiated Sync style this also runs the step's readiness consensus.
	BeginStep(ctx context.Context, lens []int) error
	// SubmitBucket contributes the bucket starting at offset to the step and
	// returns a handle that resolves when the bucket's reduced sum is
	// available. data is borrowed: it is snapshotted and may be reused
	// immediately. (offset, len(data)) must name one of the step's buckets.
	SubmitBucket(ctx context.Context, offset int, data tensor.Vector) (*BucketHandle, error)
	// WaitStep completes the step: it waits for every submitted bucket,
	// releases any unclaimed bucket results, and returns the step's
	// accounting (Result.Sum is nil — the sums were delivered per bucket).
	// Canceling ctx abandons the wait; for Sync reducers the collective is
	// then mid-protocol and the only safe follow-up is closing the world.
	WaitStep(ctx context.Context) (Result, error)
}

// BucketHandle is one in-flight bucket reduction of a bucketed step.
type BucketHandle struct {
	offset int
	length int

	// lazy, when non-nil, fetches the result on demand (the eager engine
	// publishes bucket results itself; the handle only needs to know where to
	// look). Worker-resolved handles use done/sum/err instead.
	lazy func(ctx context.Context) (tensor.Vector, error)

	done      chan struct{}
	mu        sync.Mutex
	sum       tensor.Vector
	err       error
	claimed   bool
	abandoned bool
}

// Offset returns the bucket's start offset within the gradient vector.
func (h *BucketHandle) Offset() int { return h.offset }

// Len returns the bucket's element count.
func (h *BucketHandle) Len() int { return h.length }

// Wait blocks until the bucket's reduction completes and returns the
// pool-leased reduced sum for the bucket's element range; the caller owns it
// (release with tensor.PutVector once applied). Wait claims the result and
// may be called at most once per handle; results never claimed are released
// by WaitStep.
func (h *BucketHandle) Wait(ctx context.Context) (tensor.Vector, error) {
	if h.lazy != nil {
		return h.lazy(ctx)
	}
	select {
	case <-h.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return nil, h.err
	}
	if h.claimed || h.sum == nil {
		return nil, errors.New("collective: bucket result already claimed")
	}
	h.claimed = true
	sum := h.sum
	h.sum = nil
	return sum, nil
}

// resolve delivers the worker's result. If the handle was abandoned (its step
// gave up waiting), the lease is released immediately so nothing leaks.
func (h *BucketHandle) resolve(sum tensor.Vector, err error) {
	h.mu.Lock()
	if h.abandoned && sum != nil {
		tensor.PutVector(sum)
		sum = nil
	}
	h.sum, h.err = sum, err
	h.mu.Unlock()
	close(h.done)
}

// abandon marks the handle as no longer awaited and releases an unclaimed
// result if one already arrived; a result arriving later is released by
// resolve.
func (h *BucketHandle) abandon() {
	h.mu.Lock()
	if h.sum != nil && !h.claimed {
		tensor.PutVector(h.sum)
		h.sum = nil
	}
	h.abandoned = true
	h.mu.Unlock()
}

// finalize waits for the handle's resolution, releases an unclaimed result,
// and returns the handle's error. On ctx cancellation the handle is
// abandoned (a late result is released by resolve) and ctx's error returned.
func (h *BucketHandle) finalize(ctx context.Context) error {
	if h.lazy != nil {
		return nil // the eager engine owns the buffers; nothing to release
	}
	select {
	case <-h.done:
	case <-ctx.Done():
		h.abandon()
		return ctx.Err()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sum != nil && !h.claimed {
		tensor.PutVector(h.sum)
		h.sum = nil
	}
	return h.err
}

// overlapper is implemented by the reducers Node.Reducer mints.
type overlapper interface {
	overlapSettings() (enabled bool, bucketElems int)
}

// OverlapSettings reports whether the reducer was built with WithOverlap and
// the WithBucketElems coalescing target it carries. It returns false for
// reducer implementations from outside this package.
func OverlapSettings(r Reducer) (enabled bool, bucketElems int) {
	if o, ok := r.(overlapper); ok {
		return o.overlapSettings()
	}
	return false, 0
}

// validateLayout checks that lens partitions [0, dim) and returns the bucket
// start offsets.
func validateLayout(dim int, lens []int) ([]int, error) {
	if len(lens) == 0 {
		return nil, errors.New("collective: bucketed step needs at least one bucket")
	}
	offs := make([]int, len(lens))
	total := 0
	for b, l := range lens {
		if l <= 0 {
			return nil, fmt.Errorf("collective: bucket %d length %d must be positive", b, l)
		}
		offs[b] = total
		total += l
	}
	if total != dim {
		return nil, fmt.Errorf("collective: bucket lengths sum to %d, want reducer dimension %d", total, dim)
	}
	return offs, nil
}

// bucketIndex locates the bucket with the given (offset, length) in the
// layout described by lens/offs.
func bucketIndex(lens, offs []int, offset, length int) (int, error) {
	for b, o := range offs {
		if o == offset {
			if lens[b] != length {
				return 0, fmt.Errorf("collective: bucket at offset %d has %d elements, submission has %d", offset, lens[b], length)
			}
			return b, nil
		}
	}
	return 0, fmt.Errorf("collective: no bucket starts at offset %d", offset)
}

// --- Sync reducer implementation ---------------------------------------

// bucketTask is one submitted bucket on its way through the bucket worker.
type bucketTask struct {
	h   *BucketHandle
	sum tensor.Vector
	ctx context.Context
}

// bucketWorker is the Sync reducer's bucket worker: one goroutine draining
// one FIFO queue and running each bucket's allreduce in submit order. The
// queue is a mutex+cond list rather than a channel so that Close (which may
// race with a submitter still in its backward pass) never has to close a
// channel someone might be sending on: after close, the worker drains
// whatever is queued — resolving it with ErrReducerClosed and releasing the
// leases — and exits.
type bucketWorker struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []bucketTask
	closed bool
	done   chan struct{} // closed when the worker goroutine exits
}

// enqueue appends the task to the queue, or resolves it with
// ErrReducerClosed when the worker is already shut down.
func (bw *bucketWorker) enqueue(task bucketTask) {
	bw.mu.Lock()
	if bw.closed {
		bw.mu.Unlock()
		tensor.PutVector(task.sum)
		task.h.resolve(nil, ErrReducerClosed)
		return
	}
	bw.q = append(bw.q, task)
	bw.cond.Signal()
	bw.mu.Unlock()
}

// close wakes the worker for its final drain. Idempotent.
func (bw *bucketWorker) close() {
	bw.mu.Lock()
	bw.closed = true
	bw.cond.Signal()
	bw.mu.Unlock()
}

// joinEngine implements engine: it blocks until the bucket worker has
// drained and exited, returning its queued leases to the pool (a worker
// blocked inside a collective exits once the communicator is closed).
func (s *syncReducer) joinEngine() {
	s.mu.Lock()
	bw := s.worker
	s.mu.Unlock()
	if bw != nil {
		<-bw.done
	}
}

func (s *syncReducer) ensureWorker() *bucketWorker {
	if s.worker != nil {
		return s.worker
	}
	bw := &bucketWorker{done: make(chan struct{})}
	bw.cond = sync.NewCond(&bw.mu)
	go func() {
		defer close(bw.done)
		cfg := collectives.Config{PeerDeadline: s.peerDeadline}
		var failed error // first failed collective; later buckets fail with it
		for {
			bw.mu.Lock()
			for len(bw.q) == 0 && !bw.closed {
				bw.cond.Wait()
			}
			if len(bw.q) == 0 { // closed and drained
				bw.mu.Unlock()
				return
			}
			task := bw.q[0]
			bw.q = bw.q[1:]
			closed := bw.closed
			bw.mu.Unlock()
			switch {
			case closed:
				// The reducer was closed with this bucket still queued:
				// resolve it without touching the wire.
				tensor.PutVector(task.sum)
				task.h.resolve(nil, ErrReducerClosed)
			case failed != nil:
				// A collective that failed (canceled, or a peer down) left
				// the default tag block mid-protocol: its unmatched messages
				// would pair with the next bucket's, whose length differs.
				// Fail every later bucket without touching the wire.
				tensor.PutVector(task.sum)
				task.h.resolve(nil, ctxError(task.ctx, failed))
			default:
				if err := collectives.AllreduceWith(s.comm, task.sum, collectives.OpSum, collectives.AlgoAuto, cfg, task.ctx.Done()); err != nil {
					failed = err
					tensor.PutVector(task.sum)
					task.h.resolve(nil, ctxError(task.ctx, err))
					continue
				}
				task.h.resolve(task.sum, nil)
			}
		}
	}()
	s.worker = bw
	return bw
}

// syncStep is the Sync reducer's in-flight bucketed step.
type syncStep struct {
	lens    []int
	offs    []int
	handles []*BucketHandle
	call    int
}

// BeginStep opens a bucketed step (see BucketReducer). For the negotiated
// style the step's single readiness consensus runs here — one negotiation per
// step, not per bucket.
func (s *syncReducer) BeginStep(ctx context.Context, lens []int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrReducerClosed
	}
	if s.step != nil {
		s.mu.Unlock()
		return errors.New("collective: BeginStep with a step already in flight")
	}
	s.mu.Unlock()
	offs, err := validateLayout(s.dim, lens)
	if err != nil {
		return err
	}
	call := s.calls
	s.calls++
	if s.negotiate {
		ready := tensor.GetVector(1)
		ready[0] = 1
		err := collectives.AllreduceWith(s.comm, ready, collectives.OpSum, collectives.AlgoRecursiveDoubling, collectives.Config{PeerDeadline: s.peerDeadline}, ctx.Done())
		tensor.PutVector(ready)
		if err != nil {
			return ctxError(ctx, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrReducerClosed
	}
	s.step = &syncStep{lens: lens, offs: offs, handles: make([]*BucketHandle, len(lens)), call: call}
	return nil
}

// SubmitBucket snapshots the bucket and queues it on the bucket worker; its
// allreduce begins as soon as the buckets submitted before it are reduced,
// overlapping whatever the caller does next.
func (s *syncReducer) SubmitBucket(ctx context.Context, offset int, data tensor.Vector) (*BucketHandle, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrReducerClosed
	}
	st := s.step
	if st == nil {
		s.mu.Unlock()
		return nil, errors.New("collective: SubmitBucket without BeginStep")
	}
	b, err := bucketIndex(st.lens, st.offs, offset, len(data))
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if st.handles[b] != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("collective: bucket at offset %d submitted twice", offset)
	}
	h := &BucketHandle{offset: offset, length: len(data), done: make(chan struct{})}
	st.handles[b] = h
	bw := s.ensureWorker()
	s.mu.Unlock()
	bw.enqueue(bucketTask{h: h, sum: tensor.GetVectorCopy(data), ctx: ctx})
	return h, nil
}

// WaitStep completes the step (see BucketReducer). Canceling ctx abandons
// the remaining buckets — their late results are released, stray queued
// payloads in the bucket worker's tag block are purged — and leaves the collective
// mid-protocol: close the world afterwards.
func (s *syncReducer) WaitStep(ctx context.Context) (Result, error) {
	s.mu.Lock()
	st := s.step
	s.step = nil
	s.mu.Unlock()
	if st == nil {
		return Result{}, errors.New("collective: WaitStep without BeginStep")
	}
	var firstErr error
	submitted := 0
	for i, h := range st.handles {
		if h == nil {
			continue
		}
		submitted++
		if err := h.finalize(ctx); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if ctx.Err() != nil {
				// Abandon the rest and purge stray bucket payloads so their
				// pooled vectors return to the pool instead of sitting in the
				// unexpected queue forever.
				for _, rest := range st.handles[i+1:] {
					if rest != nil {
						rest.abandon()
					}
				}
				lo, hi := collectives.TagRange()
				s.comm.DiscardTagRange(lo, hi)
				return Result{}, ctxError(ctx, firstErr)
			}
		}
	}
	if firstErr != nil {
		return Result{}, ctxError(ctx, firstErr)
	}
	if submitted != len(st.handles) {
		// An SPMD peer that submitted everything is now blocked inside the
		// missing buckets' collectives; surface the protocol violation here
		// instead of reporting full participation.
		return Result{}, fmt.Errorf("collective: step ended with %d of %d buckets submitted", submitted, len(st.handles))
	}
	size := s.comm.Size()
	return Result{Ranks: size, ActiveRanks: size, Included: true, Round: st.call}, nil
}

// Close marks the reducer closed and stops its bucket worker; queued buckets
// resolve with ErrReducerClosed and their leases return to the pool. Close
// does not close the transport, so a worker blocked inside a collective is
// unblocked by closing the world, not by Close. It is idempotent and safe to
// call concurrently with an in-flight bucketed step (World.Close during an
// overlapped step, or a trainer and World.Close both shutting down).
func (s *syncReducer) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		bw, st := s.worker, s.step
		s.step = nil
		s.mu.Unlock()
		if bw != nil {
			bw.close()
		}
		if st != nil {
			for _, h := range st.handles {
				if h != nil {
					h.abandon()
				}
			}
		}
	})
	return nil
}

// --- Eager reducer implementation ---------------------------------------

// eagerStep is the eager reducer's in-flight bucketed step.
type eagerStep struct {
	round     int           // engine round
	seq       uint64        // contribution sequence, set at commit
	stage     tensor.Vector // where the step's buckets are staged until its last one commits them
	submitted int
	handles   []*BucketHandle
}

// BeginStep opens a bucketed step (see BucketReducer). The lens must match
// the layout the reducer was constructed with (WithBucketLayout, or the
// single whole-vector bucket): the partial engine hands out every round's
// result by that layout, which is fixed for the reducer's lifetime.
func (e *eagerReducer) BeginStep(ctx context.Context, lens []int) error {
	if e.estep != nil {
		return errors.New("collective: BeginStep with a step already in flight")
	}
	if _, err := validateLayout(e.dim, lens); err != nil {
		return err
	}
	if len(lens) != e.ar.NumBuckets() {
		return fmt.Errorf("collective: step has %d buckets, reducer layout has %d (fix it with WithBucketLayout)", len(lens), e.ar.NumBuckets())
	}
	for b, l := range lens {
		if lo, hi := e.ar.BucketRange(b); hi-lo != l {
			return fmt.Errorf("collective: bucket %d has %d elements, reducer layout has %d", b, l, hi-lo)
		}
	}
	round, stage, err := e.ar.BeginStep()
	if err != nil {
		return e.stepErr(err)
	}
	e.estep = &eagerStep{round: round, stage: stage, handles: make([]*BucketHandle, len(lens))}
	return nil
}

func (e *eagerReducer) stepErr(err error) error {
	if errors.Is(err, partial.ErrClosed) {
		return ErrReducerClosed
	}
	return err
}

// SubmitBucket stages the bucket; when the step's final bucket arrives the
// whole contribution is committed to the engine in one atomic fold, so every
// bucket of the step shares one participation decision. Bucket handles
// resolve when the engine publishes the step's round.
func (e *eagerReducer) SubmitBucket(ctx context.Context, offset int, data tensor.Vector) (*BucketHandle, error) {
	st := e.estep
	if st == nil {
		return nil, errors.New("collective: SubmitBucket without BeginStep")
	}
	b, err := bucketIndex(e.lens, e.offs, offset, len(data))
	if err != nil {
		return nil, err
	}
	if st.handles[b] != nil {
		return nil, fmt.Errorf("collective: bucket at offset %d submitted twice", offset)
	}
	st.stage[offset : offset+len(data)].CopyFrom(data)
	round := st.round
	h := &BucketHandle{offset: offset, length: len(data), lazy: func(ctx context.Context) (tensor.Vector, error) {
		sum, err := e.ar.WaitBucket(ctx, round, b)
		return sum, e.stepErr(err)
	}}
	st.handles[b] = h
	st.submitted++
	if st.submitted == len(st.handles) {
		seq, err := e.ar.Contribute(st.round)
		st.seq = seq
		if err != nil {
			return h, e.stepErr(err)
		}
	}
	return h, nil
}

// layoutOf computes the reducer's bucket lengths and offsets from the
// engine's fixed layout; the constructor caches the result on e.lens/e.offs.
func (e *eagerReducer) layoutOf() (lens, offs []int) {
	n := e.ar.NumBuckets()
	lens = make([]int, n)
	offs = make([]int, n)
	for b := 0; b < n; b++ {
		lo, hi := e.ar.BucketRange(b)
		offs[b], lens[b] = lo, hi-lo
	}
	return lens, offs
}

// WaitStep completes the step (see BucketReducer): it waits for the engine
// round to finish and returns the step's accounting — one participation
// decision, so ActiveRanks and Included are identical for every bucket of
// the step.
func (e *eagerReducer) WaitStep(ctx context.Context) (Result, error) {
	st := e.estep
	if st == nil {
		return Result{}, errors.New("collective: WaitStep without BeginStep")
	}
	e.estep = nil
	if st.submitted != len(st.handles) {
		return Result{}, fmt.Errorf("collective: step ended with %d of %d buckets submitted", st.submitted, len(st.handles))
	}
	info, err := e.ar.WaitStep(ctx, st.round, st.seq)
	if err != nil {
		return Result{}, e.stepErr(err)
	}
	return Result{
		Ranks:       e.comm.Size(),
		ActiveRanks: info.ActiveProcesses,
		Included:    info.Included,
		Round:       info.Round,
	}, nil
}
