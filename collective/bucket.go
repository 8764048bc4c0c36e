package collective

import (
	"context"
	"errors"
	"fmt"

	"eagersgd/internal/collectives"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
)

// This file implements the bucketed, overlapped gradient exchange: instead of
// one blocking Reduce over the whole flat gradient after the backward pass, a
// training loop opens a step (BeginStep), submits layer-aligned buckets as
// backprop produces them (SubmitBucket — communication starts while the
// remaining layers are still backpropagating), applies each bucket's reduced
// sum as it lands (BucketHandle.Wait), and closes the step (WaitStep). It is
// the only exchange path: Reduce is a step over the engine's one-shot layout
// (elasticReducer.Reduce).
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
// Reduce calls. Any partition of the vector may open any step, in every
// mode: a Sync reducer runs one allreduce per bucket, and an eager reducer
// reduces the whole vector in one round whose result the buckets read.
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

// BucketHandle is one in-flight bucket reduction of a bucketed step. The
// reducer owns it and reuses it for the next step: a handle is valid until
// the next BeginStep.
type BucketHandle struct {
	owner     bucketOwner
	index     int // the bucket's position in the step's layout
	offset    int
	length    int
	submitted bool

	// The bucket worker's verdict on a Sync bucket, guarded by the
	// syncReducer's mu: done once resolved, then sum (until claimed) or err.
	done bool
	sum  tensor.Vector
	err  error
}

// bucketOwner is the reducer whose step a handle belongs to; it resolves the
// handle's bucket.
type bucketOwner interface {
	waitBucket(ctx context.Context, h *BucketHandle) (tensor.Vector, error)
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
	return h.owner.waitBucket(ctx, h)
}

// stepRecord is a reducer's one step record, rewritten in place by every
// BeginStep so that a step allocates nothing once the reducer is warm.
type stepRecord struct {
	open      bool
	handles   []BucketHandle // one per bucket, in layout order
	submitted int
}

// begin opens a step over lens, which must partition [0, dim).
func (st *stepRecord) begin(owner bucketOwner, dim int, lens []int) error {
	if st.open {
		return errors.New("collective: BeginStep with a step already in flight")
	}
	if err := checkLayout(dim, lens); err != nil {
		return err
	}
	st.handles = st.handles[:0]
	off := 0
	for b, l := range lens {
		st.handles = append(st.handles, BucketHandle{owner: owner, index: b, offset: off, length: l})
		off += l
	}
	st.open, st.submitted = true, 0
	return nil
}

// submit marks the bucket (offset, length) submitted and returns its handle.
func (st *stepRecord) submit(offset, length int) (*BucketHandle, error) {
	if !st.open {
		return nil, errors.New("collective: SubmitBucket without BeginStep")
	}
	for i := range st.handles {
		h := &st.handles[i]
		if h.offset != offset {
			continue
		}
		if h.length != length {
			return nil, fmt.Errorf("collective: bucket at offset %d has %d elements, submission has %d", offset, h.length, length)
		}
		if h.submitted {
			return nil, fmt.Errorf("collective: bucket at offset %d submitted twice", offset)
		}
		h.submitted = true
		st.submitted++
		return h, nil
	}
	return nil, fmt.Errorf("collective: no bucket starts at offset %d", offset)
}

// end closes the step. An SPMD peer that submitted every bucket is blocked
// in the missing ones, so a step that ended short of its buckets is an error,
// not full participation.
func (st *stepRecord) end() error {
	st.open = false
	if st.submitted != len(st.handles) {
		return fmt.Errorf("collective: step ended with %d of %d buckets submitted", st.submitted, len(st.handles))
	}
	return nil
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

// checkLayout checks that lens partitions [0, dim).
func checkLayout(dim int, lens []int) error {
	if len(lens) == 0 {
		return errors.New("collective: bucketed step needs at least one bucket")
	}
	total := 0
	for b, l := range lens {
		if l <= 0 {
			return fmt.Errorf("collective: bucket %d length %d must be positive", b, l)
		}
		total += l
	}
	if total != dim {
		return fmt.Errorf("collective: bucket lengths sum to %d, want reducer dimension %d", total, dim)
	}
	return nil
}

// --- Sync reducer implementation ---------------------------------------

// bucketTask is one submitted bucket on its way through the bucket worker.
type bucketTask struct {
	index int    // the bucket's handle in the step record
	gen   uint64 // the step generation it was submitted in
	sum   tensor.Vector
	ctx   context.Context
}

// runWorker is the Sync reducer's bucket worker, started with the reducer:
// one goroutine draining one FIFO queue and running each bucket's allreduce
// in submit order. The queue lives under s.mu rather than in a channel so
// that Close (which may race with a submitter still in its backward pass)
// never has to close a channel someone might be sending on: after Close,
// which resolves the step's handles itself, the worker drains whatever is
// queued without touching the wire, releases the leases, and exits.
func (s *syncReducer) runWorker() {
	defer close(s.workerDone)
	cfg := collectives.Config{PeerDeadline: s.peerDeadline}
	var failed error // first failed collective; later buckets fail with it
	s.mu.Lock()
	for {
		for s.head == len(s.queue) && !s.closed {
			s.cond.Wait()
		}
		if s.head == len(s.queue) { // closed and drained
			s.mu.Unlock()
			return
		}
		task := s.queue[s.head]
		s.queue[s.head] = bucketTask{}
		s.head++
		if s.head == len(s.queue) {
			s.queue, s.head = s.queue[:0], 0
		}
		closed := s.closed
		s.mu.Unlock()
		var err error
		switch {
		case closed:
			// The reducer was closed with this bucket still queued.
			err = ErrReducerClosed
		case failed != nil:
			// A collective that failed (canceled, or a peer down) left the
			// default tag block mid-protocol: its unmatched messages would
			// pair with the next bucket's, whose length differs. Fail every
			// later bucket without touching the wire.
			err = ctxError(task.ctx, failed)
		default:
			if err = collectives.AllreduceWith(s.comm, task.sum, collectives.OpSum, collectives.AlgoAuto, cfg, task.ctx.Done()); err != nil {
				failed = err
				err = ctxError(task.ctx, err)
			}
		}
		if err != nil {
			tensor.PutVector(task.sum)
			task.sum = nil
		}
		s.mu.Lock()
		if task.gen != s.gen {
			// The bucket's step was abandoned, and its record may already
			// serve the next step: the verdict reaches no handle.
			if task.sum != nil {
				tensor.PutVector(task.sum)
			}
			continue
		}
		h := &s.step.handles[task.index]
		h.done, h.sum, h.err = true, task.sum, err
		s.notifyLocked()
	}
}

// notifyLocked wakes the step's waiter, if any; a token nobody takes stays
// for the next wait, which then re-checks its handle once more.
func (s *syncReducer) notifyLocked() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// awaitLocked blocks until the worker has resolved h or ctx is done. It is
// called, and returns, with s.mu held.
func (s *syncReducer) awaitLocked(ctx context.Context, h *BucketHandle) error {
	for !h.done {
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-ctx.Done():
			s.mu.Lock()
			return ctx.Err()
		}
		s.mu.Lock()
	}
	return nil
}

// abandonLocked ends the open step's buckets with err: unresolved handles
// resolve with it, unclaimed results are released, and the generation moves
// on so that a bucket still inside its collective is released when it lands.
// Caller holds s.mu.
func (s *syncReducer) abandonLocked(err error) {
	s.gen++
	for i := range s.step.handles {
		switch h := &s.step.handles[i]; {
		case !h.submitted: // nothing in flight
		case !h.done:
			h.done, h.err = true, err
		case h.sum != nil:
			tensor.PutVector(h.sum)
			h.sum, h.err = nil, err
		}
	}
	s.notifyLocked()
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
	if err := s.step.begin(s, s.dim, lens); err != nil {
		s.mu.Unlock()
		return err
	}
	s.calls++
	s.mu.Unlock()
	if !s.negotiate {
		return nil
	}
	ready := tensor.GetVector(1)
	ready[0] = 1
	err := collectives.AllreduceWith(s.comm, ready, collectives.OpSum, collectives.AlgoRecursiveDoubling, collectives.Config{PeerDeadline: s.peerDeadline}, ctx.Done())
	tensor.PutVector(ready)
	if err != nil {
		s.mu.Lock()
		s.step.open = false
		s.mu.Unlock()
		return ctxError(ctx, err)
	}
	return nil
}

// SubmitBucket snapshots the bucket and queues it on the bucket worker; its
// allreduce begins as soon as the buckets submitted before it are reduced,
// overlapping whatever the caller does next.
func (s *syncReducer) SubmitBucket(ctx context.Context, offset int, data tensor.Vector) (*BucketHandle, error) {
	sum := tensor.GetVectorCopy(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		tensor.PutVector(sum)
		return nil, ErrReducerClosed
	}
	h, err := s.step.submit(offset, len(data))
	if err != nil {
		tensor.PutVector(sum)
		return nil, err
	}
	s.queue = append(s.queue, bucketTask{index: h.index, gen: s.gen, sum: sum, ctx: ctx})
	s.cond.Signal()
	return h, nil
}

// waitBucket implements bucketOwner: it waits for the worker's verdict and
// claims the bucket's result.
func (s *syncReducer) waitBucket(ctx context.Context, h *BucketHandle) (tensor.Vector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.awaitLocked(ctx, h); err != nil {
		return nil, err
	}
	if h.err != nil {
		return nil, h.err
	}
	if h.sum == nil {
		return nil, errors.New("collective: bucket result already claimed")
	}
	sum := h.sum
	h.sum = nil
	return sum, nil
}

// WaitStep completes the step (see BucketReducer). Canceling ctx abandons
// the remaining buckets — their late results are released, stray queued
// payloads in the bucket worker's tag block are purged — and leaves the
// collective mid-protocol: close the world afterwards.
func (s *syncReducer) WaitStep(ctx context.Context) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.step.open {
		return Result{}, errors.New("collective: WaitStep without BeginStep")
	}
	if s.closed {
		s.step.open = false // Close resolved the handles and released their sums
		return Result{}, ErrReducerClosed
	}
	var firstErr error
	for i := range s.step.handles {
		h := &s.step.handles[i]
		if !h.submitted {
			continue
		}
		if err := s.awaitLocked(ctx, h); err != nil {
			// Abandon the rest and purge stray bucket payloads so their
			// pooled vectors return to the pool instead of sitting in the
			// unexpected queue forever.
			s.abandonLocked(err)
			s.step.open = false
			lo, hi := collectives.TagRange()
			s.comm.DiscardTagRange(lo, hi)
			return Result{}, ctxError(ctx, err)
		}
		if h.sum != nil {
			tensor.PutVector(h.sum)
			h.sum = nil
		}
		if h.err != nil && firstErr == nil {
			firstErr = h.err
		}
	}
	err := s.step.end()
	if firstErr != nil {
		return Result{}, ctxError(ctx, firstErr)
	}
	if err != nil {
		return Result{}, err
	}
	size := s.comm.Size()
	return Result{Ranks: size, ActiveRanks: size, Included: true, Round: s.calls - 1}, nil
}

// Close marks the reducer closed and stops its bucket worker; queued buckets
// resolve with ErrReducerClosed and their leases return to the pool, and a
// step in flight resolves every pending handle with ErrReducerClosed. Close
// does not close the transport, so a worker blocked inside a collective is
// unblocked by closing the world, not by Close. It is idempotent and safe to
// call concurrently with an in-flight bucketed step (World.Close during an
// overlapped step, or a trainer and World.Close both shutting down).
func (s *syncReducer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.abandonLocked(ErrReducerClosed)
		s.cond.Signal()
	}
	return nil
}

// joinEngine implements engine: it blocks until the bucket worker has
// drained and exited, returning its queued leases to the pool (a worker
// blocked inside a collective exits once the communicator is closed).
func (s *syncReducer) joinEngine() { <-s.workerDone }

// --- Eager reducer implementation ---------------------------------------

// BeginStep opens a bucketed step (see BucketReducer) over any partition of
// the vector: the round reduces the whole vector, and the buckets only say
// which ranges of its result the handles read.
func (e *eagerReducer) BeginStep(ctx context.Context, lens []int) error {
	if err := e.step.begin(e, e.dim, lens); err != nil {
		return err
	}
	var err error
	e.round, e.stage, err = e.ar.BeginStep()
	if err != nil {
		e.step.open = false
	}
	return e.stepErr(err)
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
	h, err := e.step.submit(offset, len(data))
	if err != nil {
		return nil, err
	}
	e.stage[offset : offset+len(data)].CopyFrom(data)
	if e.step.submitted == len(e.step.handles) {
		seq, err := e.ar.Contribute(e.round)
		e.seq = seq
		if err != nil {
			return h, e.stepErr(err)
		}
	}
	return h, nil
}

// waitBucket implements bucketOwner: the engine keeps the round's result, and
// the handle reads its bucket's range of it.
func (e *eagerReducer) waitBucket(ctx context.Context, h *BucketHandle) (tensor.Vector, error) {
	sum, err := e.ar.WaitBucket(ctx, e.round, h.offset, h.offset+h.length)
	return sum, e.stepErr(err)
}

// WaitStep completes the step (see BucketReducer): it waits for the engine
// round to finish and returns the step's accounting — one participation
// decision, so ActiveRanks and Included are identical for every bucket of
// the step.
func (e *eagerReducer) WaitStep(ctx context.Context) (Result, error) {
	if !e.step.open {
		return Result{}, errors.New("collective: WaitStep without BeginStep")
	}
	if err := e.step.end(); err != nil {
		return Result{}, err
	}
	info, err := e.ar.WaitStep(ctx, e.round, e.seq)
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
