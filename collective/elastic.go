package collective

import (
	"context"
	"fmt"
	"sync"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// ParamSyncer is implemented by the epoch-aware reducers Node.Reducer mints:
// SyncParams averages the model replicas across the current epoch's members.
// Trainers that synchronize replicas periodically (eager-SGD's bounded
// divergence, the final model average) must do it through this method on
// elastic worlds — it runs inside the same drain barrier as the gradient
// exchange, so an epoch transition can never split or orphan the synchronous
// collective it issues, and it runs over the current epoch's communicator.
type ParamSyncer interface {
	// SyncParams sums params across all members in place, scales by the member
	// count, and returns that count. It detects a silent peer with the
	// reducer's WithPeerDeadline (given to the world or to Node.Reducer) and
	// then fails with an error wrapping ErrRankUnreachable; without one it
	// blocks on that peer.
	SyncParams(params tensor.Vector) (int, error)
}

// elasticReducer is the Reducer every Node.Reducer call returns: a thin
// epoch-aware wrapper around the real (sync or eager) reducer of the current
// epoch. It is the world's drain barrier — an epoch transition flips the
// wrapper into draining, new steps park at the gate while in-flight ones run
// to completion, and once every wrapper in the world is idle the old epoch's
// inner reducers are retired and fresh ones minted over the new epoch's
// communicators. Training loops never observe the swap: the same Reducer
// value keeps working across epochs, with Result.Ranks and the participant
// set following the membership.
type elasticReducer struct {
	node    *Node
	dim     int
	cfg     config // merged option set at mint time
	oneShot []int  // the bucket layout Reduce runs as one step (oneShotLayout)

	mu          sync.Mutex
	cond        *sync.Cond
	inner       engine
	active      int    // in-flight operations on inner (Reduce calls and whole bucketed steps)
	rounds      uint64 // operations completed since mint — the drain allowance is measured in these
	guarded     int    // open TrainStepper brackets; nested operations bypass the gate
	stepOpen    bool   // a bucketed step is open: BeginStep passed the gate, WaitStep not yet called
	draining    bool
	drainTarget uint64 // while draining: admit ops until rounds reaches this
	closed      bool

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
	if _, err := r.beginOp(); err != nil {
		return err
	}
	r.mu.Lock()
	r.guarded++
	r.mu.Unlock()
	return nil
}

// EndTrainStep implements TrainStepper.
func (r *elasticReducer) EndTrainStep() {
	r.mu.Lock()
	r.guarded--
	r.mu.Unlock()
	r.endOp()
}

func newElasticReducer(n *Node, dim int, cfg config, c *comm.Communicator) (*elasticReducer, error) {
	oneShot, err := oneShotLayout(dim, cfg)
	if err != nil {
		return nil, err
	}
	inner, err := newEngine(c, dim, cfg)
	if err != nil {
		return nil, err
	}
	r := &elasticReducer{node: n, dim: dim, cfg: cfg, oneShot: oneShot, inner: inner}
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

// beginOp gates one operation through the drain barrier: while a transition
// is draining, new operations are admitted only up to the drain allowance
// (see beginDrain), then park. Admitted operations pin the current inner
// reducer until endOp.
func (r *elasticReducer) beginOp() (engine, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.draining && r.rounds >= r.drainTarget && r.guarded == 0 && !r.closed {
		r.cond.Wait()
	}
	if r.closed {
		return nil, ErrReducerClosed
	}
	r.active++
	return r.inner, nil
}

func (r *elasticReducer) endOp() {
	r.mu.Lock()
	r.active--
	r.rounds++
	r.cond.Broadcast() // wake a drain waiting for idle, or an op parked under the allowance
	r.mu.Unlock()
}

// beginDrain flips the barrier: no further operations are admitted (the
// allowance starts at the rounds already completed) but in-flight ones keep
// running. It returns the number of operations started so far — completed
// plus in-flight — which the transition folds into the matched group's
// allowance (allowRounds): synchronous collectives are lockstep, so a member
// mid-collective needs its peers' matching round, and a hard gate here would
// deadlock the drain against the very steps it waits for.
func (r *elasticReducer) beginDrain() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.draining = true
	r.drainTarget = r.rounds
	return r.rounds + uint64(r.active)
}

// allowRounds raises the drain allowance so members behind the group's
// furthest round catch up instead of starving a lockstep peer.
func (r *elasticReducer) allowRounds(target uint64) {
	r.mu.Lock()
	if target > r.drainTarget {
		r.drainTarget = target
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// awaitIdle blocks until the reducer has no in-flight operation. Operations
// wedged on a dead peer complete with an error once the failure detector
// (WithPeerDeadline) fires or the epoch's transport closes; elastic worlds
// should configure a peer deadline so a drain never outwaits a silent rank.
// The gate may still admit catch-up rounds afterwards — quiesceReducers is
// the atomic completion check.
func (r *elasticReducer) awaitIdle() {
	r.mu.Lock()
	for r.active > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// quiesceReducers completes a drain: if every reducer is idle at one instant,
// it revokes their remaining catch-up allowances under the same critical
// section — no operation can slip in afterwards — and reports true. If any
// reducer is still active it changes nothing and reports false; the caller
// re-waits. Allowances are revoked rather than run dry because a member whose
// operations errored (dead peer) stops pumping below the group target, and
// the outgoing epoch's wire state is discarded wholesale anyway.
func quiesceReducers(rs []*elasticReducer) bool {
	for i, r := range rs {
		r.mu.Lock()
		if r.active > 0 {
			for j := 0; j <= i; j++ {
				rs[j].mu.Unlock()
			}
			return false
		}
	}
	for _, r := range rs {
		r.drainTarget = r.rounds
		r.mu.Unlock()
	}
	return true
}

// undrain lifts the barrier and wakes parked operations, either onto the
// freshly minted epoch (after remint) or back onto the old one (transition
// aborted).
func (r *elasticReducer) undrain() {
	r.mu.Lock()
	r.draining = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// remint builds the new epoch's inner reducer over the given communicator and
// returns the retired one for the transition to close and join with the old
// generation. Only called with the barrier down and the reducer idle.
func (r *elasticReducer) remint(c *comm.Communicator) (engine, error) {
	inner, err := newEngine(c, r.dim, r.cfg)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	old := r.inner
	r.inner = inner
	// Round counters restart with the epoch. Drain allowances compare these
	// counters ACROSS members (the group target is a max over the matched
	// reducers), which is only meaningful while everyone counts from the
	// same origin: a joiner's fresh reducer starts at zero, so a survivor
	// carrying its lifetime count would hand the next transition a target
	// the joiner's gate check reads as "run freely" — it would keep starting
	// steps its gated peers can never serve, wedging the drain.
	r.rounds = 0
	r.drainTarget = 0
	r.mu.Unlock()
	return old, nil
}

// markClosed closes the barrier permanently and closes the current inner
// reducer, waking every parked operation with ErrReducerClosed. Idempotent.
func (r *elasticReducer) markClosed() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
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
	inner, err := r.beginOp()
	if err != nil {
		return Result{}, err
	}
	defer r.endOp()
	if err := inner.BeginStep(ctx, r.oneShot); err != nil {
		return Result{}, err
	}
	sum, err := r.reduceBuckets(ctx, inner, grad, r.oneShot)
	res, stepErr := inner.WaitStep(ctx) // always: the step's cleanup point
	if err == nil {
		err = stepErr
	}
	if err != nil {
		if sum != nil {
			tensor.PutVector(sum)
		}
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

// overlapSettings forwards the mint-time overlap configuration (OverlapSettings).
func (r *elasticReducer) overlapSettings() (bool, int) { return r.cfg.overlap, r.cfg.bucketElems }

// BeginStep opens a bucketed step. The whole step counts as one operation at
// the drain barrier — a transition arriving mid-step waits for WaitStep, so an
// epoch boundary never splits a step's buckets across two epochs' reducers.
func (r *elasticReducer) BeginStep(ctx context.Context, lens []int) error {
	inner, err := r.beginOp()
	if err != nil {
		return err
	}
	if err := inner.BeginStep(ctx, lens); err != nil {
		r.endOp()
		return err
	}
	r.mu.Lock()
	r.stepOpen = true
	r.mu.Unlock()
	return nil
}

// SubmitBucket forwards to the step's reducer. The open step holds the drain
// barrier, so inner cannot be reminted under it.
func (r *elasticReducer) SubmitBucket(ctx context.Context, offset int, data tensor.Vector) (*BucketHandle, error) {
	r.mu.Lock()
	open, inner := r.stepOpen, r.inner
	r.mu.Unlock()
	if !open {
		return nil, ErrReducerClosed // data is borrowed, so nothing to release
	}
	return inner.SubmitBucket(ctx, offset, data)
}

// WaitStep completes the step and releases the reducer's slot at the drain
// barrier.
func (r *elasticReducer) WaitStep(ctx context.Context) (Result, error) {
	r.mu.Lock()
	open, inner := r.stepOpen, r.inner
	r.stepOpen = false
	r.mu.Unlock()
	if !open {
		return Result{}, ErrReducerClosed
	}
	defer r.endOp()
	return inner.WaitStep(ctx)
}

// SyncParams implements ParamSyncer: one synchronous allreduce over the
// current epoch's members, gated by the drain barrier exactly like a
// reduction — every member issues the same SPMD sequence of reductions and
// syncs, so the barrier's catch-up allowance keeps the collectives matched
// across an epoch boundary.
func (r *elasticReducer) SyncParams(params tensor.Vector) (int, error) {
	if _, err := r.beginOp(); err != nil {
		return 0, err
	}
	defer r.endOp()
	// The node's communicator is swapped while the barrier holds every
	// operation out, so it is the current epoch's for the whole call.
	c := r.node.Communicator()
	if err := collectives.AllreduceWith(c, params, collectives.OpSum, collectives.AlgoAuto,
		collectives.Config{PeerDeadline: r.cfg.peerDeadline}, nil); err != nil {
		return 0, err
	}
	size := c.Size()
	params.Scale(1 / float64(size))
	return size, nil
}

// joinEngine joins the current inner engine's goroutines; retired epochs'
// engines are joined when their generation is retired.
func (r *elasticReducer) joinEngine() {
	r.mu.Lock()
	inner := r.inner
	r.mu.Unlock()
	inner.joinEngine()
}
