package collective

import (
	"context"
	"fmt"
	"sync"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// ParamSyncer is implemented by the epoch-aware reducers Node.Reducer mints:
// it averages the model replicas across the current epoch's members.
// Trainers that synchronize replicas periodically (eager-SGD's bounded
// divergence, the final model average) must do it through these methods on
// elastic worlds — a sync passes the same drain barrier as the gradient
// exchange, so an epoch transition can never split or orphan the collective
// it issues, and it runs over the current epoch's communicator. Its sum runs
// on the reducer's sum worker, so a sync can run behind a training step.
type ParamSyncer interface {
	// SyncParams, StartSyncParams then FinishSyncParams, averages params in
	// place across the members and returns how many replicas it averaged.
	// An eager reducer with a WithPeerDeadline (given to the world or to
	// Node.Reducer) averages the members still alive; any other fails on a
	// silent member with an error wrapping ErrRankUnreachable, or without a
	// deadline blocks on it.
	SyncParams(params tensor.Vector) (int, error)
	// StartSyncParams snapshots params and queues the members' average;
	// until Finish, the drain gate stays open as in a TrainStepper bracket.
	StartSyncParams(params tensor.Vector) error
	// FinishSyncParams sets params, as given to StartSyncParams, to
	// avg + (params − snapshot) and returns the replica count.
	FinishSyncParams(params tensor.Vector) (int, error)
}

// elasticReducer is the Reducer every Node.Reducer call returns: a thin
// epoch-aware wrapper around the current epoch's engine, driving its drain
// barrier (drainBarrier) under mu and cond. Once a transition has drained
// every wrapper, the old engines retire and fresh ones are minted over the
// new epoch's communicators; training loops keep the same Reducer value.
type elasticReducer struct {
	dim     int
	cfg     config // merged option set at mint time
	oneShot []int  // the bucket layout Reduce runs as one step (oneShotLayout)

	mu    sync.Mutex
	cond  *sync.Cond
	inner engine
	b     drainBarrier

	handles []*BucketHandle // Reduce's handles, reused: Reduce is driven by one goroutine
}

// TrainStepper is implemented by the epoch-aware reducers Node.Reducer mints:
// it brackets one whole training step — gradient compute, exchange, optimizer
// update, periodic synchronization — as a single operation at the world's
// drain barrier. With the bracket in place an epoch transition only ever
// observes step boundaries, so state providers snapshot parameters and step
// counters that are never mid-update, and every survivor hands off at the
// same step in synchronous modes. The reducer operations issued between
// BeginTrainStep and EndTrainStep (same goroutine) bypass the gate — they are
// part of the bracketed operation, not new ones.
type TrainStepper interface {
	// BeginTrainStep passes the drain gate and opens the bracket; it returns
	// ErrReducerClosed once the reducer (or its world) has closed.
	BeginTrainStep() error
	// EndTrainStep closes the bracket opened by the matching BeginTrainStep.
	EndTrainStep()
}

// BeginTrainStep implements TrainStepper.
func (r *elasticReducer) BeginTrainStep() error {
	_, err := r.beginOp(true)
	return err
}

// EndTrainStep implements TrainStepper.
func (r *elasticReducer) EndTrainStep() { r.endOp(true) }

func newElasticReducer(dim int, cfg config, c *comm.Communicator) (*elasticReducer, error) {
	oneShot, err := oneShotLayout(dim, cfg)
	if err != nil {
		return nil, err
	}
	r := &elasticReducer{dim: dim, cfg: cfg, oneShot: oneShot, inner: newEngine(c, dim, cfg)}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// oneShotLayout validates the reducer dimension and resolves the bucket
// layout Reduce runs as one step, in every mode: WithChunks' non-empty
// chunks, which by default are the whole vector. A WithBucketLayout layout
// is still checked against dim but runs nothing. dim and cfg are fixed at
// mint time, so every epoch's engine shares the layout.
func oneShotLayout(dim int, cfg config) ([]int, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("collective: reducer dimension %d must be positive", dim)
	}
	if len(cfg.layout) > 0 {
		if err := checkLayout(dim, cfg.layout); err != nil {
			return nil, err
		}
	}
	var lens []int
	for i, n := 0, cfg.chunks; i < n; i++ {
		if lo, hi := tensor.ChunkBounds(dim, n, i); hi > lo {
			lens = append(lens, hi-lo)
		}
	}
	return lens, nil
}

// beginOp passes the drain barrier (drainBarrier.admit), parking until a
// wake while the gate holds it out. An admitted operation pins the current
// engine until endOp.
func (r *elasticReducer) beginOp(bracket bool) (engine, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		park, err := r.b.admit(bracket)
		if err != nil {
			return nil, err
		}
		if !park {
			return r.inner, nil
		}
		r.cond.Wait()
	}
}

func (r *elasticReducer) endOp(bracket bool) {
	r.mu.Lock()
	r.b.finish(bracket)
	r.cond.Broadcast() // wake a drain waiting for idle, or an op parked under the allowance
	r.mu.Unlock()
}

// event runs one barrier event under the mutex and wakes every waiter when
// it says to.
func (r *elasticReducer) event(ev func(b *drainBarrier) (wake bool)) {
	r.mu.Lock()
	if ev(&r.b) {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// awaitIdle blocks until the reducer has no operation in flight. One wedged
// on a dead peer fails once WithPeerDeadline fires or the epoch's transport
// closes, so elastic worlds should set a peer deadline.
func (r *elasticReducer) awaitIdle() {
	r.mu.Lock()
	for !r.b.idle() {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// quiesceReducers completes a drain: if every reducer is idle at one
// instant, it revokes their allowances in the same critical section and
// reports true; otherwise it changes nothing and the caller re-waits.
func quiesceReducers(rs []*elasticReducer) bool {
	for i, r := range rs {
		r.mu.Lock()
		if !r.b.idle() {
			for j := 0; j <= i; j++ {
				rs[j].mu.Unlock()
			}
			return false
		}
	}
	for _, r := range rs {
		r.b.revoke()
		r.mu.Unlock()
	}
	return true
}

// remint builds the new epoch's inner reducer over the given communicator and
// returns the retired one for the transition to close and join with the old
// generation. Only called with the reducer quiesced.
func (r *elasticReducer) remint(c *comm.Communicator) engine {
	inner := newEngine(c, r.dim, r.cfg)
	r.mu.Lock()
	old := r.inner
	r.inner = inner
	closed := r.b.remint()
	r.mu.Unlock()
	if closed {
		_ = inner.Close()
	}
	return old
}

// markClosed closes the barrier permanently and closes the current inner
// reducer, waking every parked operation with ErrReducerClosed. Idempotent.
func (r *elasticReducer) markClosed() error {
	r.mu.Lock()
	if !r.b.close() {
		r.mu.Unlock()
		return nil
	}
	inner := r.inner
	r.cond.Broadcast()
	r.mu.Unlock()
	return inner.Close()
}

// Reduce runs one reduction on the current epoch's reducer, waiting out any
// in-flight membership transition first. It is one bucketed step over the
// one-shot layout (oneShotLayout), whose bucket sums make up Result.Sum.
func (r *elasticReducer) Reduce(ctx context.Context, grad tensor.Vector) (Result, error) {
	if len(grad) != r.dim {
		return Result{}, fmt.Errorf("collective: gradient length %d, want %d", len(grad), r.dim)
	}
	inner, err := r.beginOp(false)
	if err != nil {
		return Result{}, err
	}
	defer r.endOp(false)
	if err := inner.BeginStep(ctx, r.oneShot); err != nil {
		return Result{}, err
	}
	sum, err := r.reduceBuckets(ctx, inner, grad, r.oneShot)
	res, stepErr := inner.WaitStep(ctx) // always: the step's cleanup point
	if err == nil {
		err = stepErr
	}
	if err != nil {
		tensor.PutVector(sum) // nil when the buckets failed
		return Result{}, err
	}
	res.Sum = sum
	return res, nil
}

// reduceBuckets submits grad's buckets to the step inner has open and
// gathers their sums into one pool-leased vector.
func (r *elasticReducer) reduceBuckets(ctx context.Context, inner engine, grad tensor.Vector, lens []int) (tensor.Vector, error) {
	r.handles = r.handles[:0]
	off := 0
	for _, l := range lens {
		h, err := inner.SubmitBucket(ctx, off, grad[off:off+l])
		if err != nil {
			return nil, err
		}
		r.handles = append(r.handles, h)
		off += l
	}
	if len(r.handles) == 1 {
		return r.handles[0].Wait(ctx)
	}
	sum := tensor.GetVector(r.dim)
	for _, h := range r.handles {
		part, err := h.Wait(ctx)
		if err != nil {
			tensor.PutVector(sum)
			return nil, err
		}
		sum[h.offset : h.offset+h.length].CopyFrom(part)
		tensor.PutVector(part)
	}
	return sum, nil
}

// Close closes the reducer. The world's transition machinery stops touching
// it once closed; inner engines are joined by World.Close.
func (r *elasticReducer) Close() error { return r.markClosed() }

// Name identifies the reducer in reports.
func (r *elasticReducer) Name() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner.Name()
}

// overlapSettings reports the mint-time overlap configuration
// (OverlapSettings). An eager round reduces the whole vector behind one
// activation, so per-layer buckets would only split its result into copies:
// every eager mode reports the whole vector as its coalescing target, and the
// trainer plans one bucket, whose wait takes the result by handover.
func (r *elasticReducer) overlapSettings() (bool, int) {
	if r.cfg.mode.kind != kindSync {
		return r.cfg.overlap, r.dim
	}
	return r.cfg.overlap, r.cfg.bucketElems
}

// BeginStep opens a bucketed step. The whole step counts as one operation at
// the drain barrier — a transition arriving mid-step waits for WaitStep, so an
// epoch boundary never splits a step's buckets across two epochs' reducers.
func (r *elasticReducer) BeginStep(ctx context.Context, lens []int) error {
	inner, err := r.beginOp(false)
	if err != nil {
		return err
	}
	if err := inner.BeginStep(ctx, lens); err != nil {
		r.endOp(false)
		return err
	}
	r.mu.Lock()
	r.b.openStep()
	r.mu.Unlock()
	return nil
}

// SubmitBucket forwards to the step's reducer. The open step holds the drain
// barrier, so inner cannot be reminted under it.
func (r *elasticReducer) SubmitBucket(ctx context.Context, offset int, data tensor.Vector) (*BucketHandle, error) {
	r.mu.Lock()
	err, inner := r.b.inStep(errSubmitWithoutStep), r.inner
	r.mu.Unlock()
	if err != nil {
		return nil, err // data is borrowed, so nothing to release
	}
	return inner.SubmitBucket(ctx, offset, data)
}

// WaitStep completes the step and releases the reducer's slot at the drain
// barrier.
func (r *elasticReducer) WaitStep(ctx context.Context) (Result, error) {
	r.mu.Lock()
	err, inner := r.b.endStep(), r.inner
	r.mu.Unlock()
	if err != nil {
		return Result{}, err
	}
	defer r.endOp(false)
	return inner.WaitStep(ctx)
}

// SyncParams implements ParamSyncer.
func (r *elasticReducer) SyncParams(params tensor.Vector) (int, error) {
	if err := r.StartSyncParams(params); err != nil {
		return 0, err
	}
	return r.FinishSyncParams(params)
}

// StartSyncParams implements ParamSyncer: one collective over the current
// epoch's members, on the sum worker of the engine the drain barrier pinned,
// gated like a reduction (every member issues the same SPMD sequence of
// reductions and syncs) but admitted as a bracket, which Finish closes.
func (r *elasticReducer) StartSyncParams(params tensor.Vector) error {
	inner, err := r.beginOp(true)
	if err == nil {
		if err = inner.startSync(params); err != nil {
			r.endOp(true)
		}
	}
	return err
}

// FinishSyncParams implements ParamSyncer; a started sync pins the engine.
func (r *elasticReducer) FinishSyncParams(params tensor.Vector) (int, error) {
	r.mu.Lock()
	inner := r.inner
	r.mu.Unlock()
	n, err := inner.finishSync(params)
	if err != errNoSync {
		r.endOp(true)
	}
	return n, err
}

// joinEngine joins the current inner engine's goroutines; retired epochs'
// engines are joined when their generation is retired.
func (r *elasticReducer) joinEngine() {
	r.mu.Lock()
	inner := r.inner
	r.mu.Unlock()
	inner.joinEngine()
}
