package collective

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
)

// engine is the sync or eager reducer an elasticReducer runs its current
// epoch on. Node.Reducer is the only way to obtain one, wrapped: the wrapper
// runs Reduce as one step over its one-shot layout (oneShotLayout).
type engine interface {
	BeginStep(ctx context.Context, lens []int) error
	SubmitBucket(ctx context.Context, offset int, data tensor.Vector) (*BucketHandle, error)
	WaitStep(ctx context.Context) (Result, error)
	Close() error
	Name() string
	// The engine's model sync (ParamSyncer), on its sum worker.
	startSync(params tensor.Vector) error
	finishSync(params tensor.Vector) (int, error)
	// joinEngine blocks until the engine's background goroutines have exited
	// and returned their buffers to the pool. Only valid after the
	// communicator is closed; World.Close and generation retirement call it
	// so shutdown leaks no pool leases.
	joinEngine()
}

// newEngine builds the engine of cfg's mode over one epoch's communicator.
// dim is the fixed gradient length, already validated by oneShotLayout;
// every rank must build its engine with the same dim, mode and seed (the
// engines are SPMD). Every Mode value is one of the four modes built here.
func newEngine(c *comm.Communicator, dim int, cfg config) engine {
	sums := collectives.Config{PeerDeadline: cfg.peerDeadline}
	if cfg.mode.kind == kindSync {
		s := &syncReducer{dim: dim, chunks: cfg.chunks, negotiate: cfg.negotiate}
		s.launch(c, sums)
		return s
	}
	popts := partial.Options{Seed: cfg.seed, PeerDeadline: cfg.peerDeadline}
	switch cfg.mode.kind {
	case kindSolo:
		popts.Mode = partial.Solo
	case kindMajority:
		popts.Mode = partial.Majority
	default:
		popts.Mode = partial.Quorum
		popts.Candidates = cfg.mode.candidates
	}
	e := &eagerReducer{ar: partial.New(c, dim, popts), mode: cfg.mode, dim: dim}
	if cfg.peerDeadline > 0 {
		e.tolerant = e.ar
	}
	e.launch(c, sums)
	return e
}

// ctxError converts the comm layer's cancellation sentinel into the context's
// own error so callers see context.Canceled / DeadlineExceeded.
func ctxError(ctx context.Context, err error) error {
	if ctx != nil && errors.Is(err, comm.ErrCanceled) && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// syncReducer is the Sync mode: a blocking allreduce per bucket, queued on
// the engine's sum worker (sumQueue). Reduce runs one bucket over the whole
// vector, or one per chunk (Deep500-style, WithChunks); the step may open
// with a negotiation round (Horovod-style, WithNegotiation).
type syncReducer struct {
	// sumQueue's mu also guards the fields below: the step API itself is
	// driven by one goroutine (the rank's training loop), but the worker
	// resolves handles and Close may be called concurrently by World.Close
	// while a step is in flight.
	sumQueue
	dim       int
	chunks    int
	negotiate bool

	step  stepRecord
	calls int // steps opened so far; the open step's Result.Round is calls-1
}

// Name identifies the reducer in reports.
func (s *syncReducer) Name() string {
	switch {
	case s.negotiate:
		return "synch-sgd (horovod)"
	case s.chunks > 1:
		return "synch-sgd (deep500)"
	default:
		return "synch-sgd"
	}
}

// eagerReducer adapts a partial.Allreducer to the engine interface: buckets
// are staged during backprop, committed to the allreducer in one atomic fold
// (one participation decision per step), and their results resolve together
// when the allreducer publishes the step's round (bucket.go).
type eagerReducer struct {
	sumQueue // carries only the model syncs
	ar       *partial.Allreducer
	mode     Mode
	dim      int

	// The open step, driven by the rank's one training goroutine.
	step  stepRecord
	round int           // the step's allreducer round
	seq   uint64        // its contribution's sequence number, set at commit
	stage tensor.Vector // where its buckets are staged until the last commits them
}

// Name identifies the reducer in reports.
func (e *eagerReducer) Name() string { return fmt.Sprintf("eager-sgd (%s)", e.mode) }

// Close marks the underlying allreducer closed and stops the sum worker. The
// background engine exits when the world (communicator) is closed.
func (e *eagerReducer) Close() error {
	e.ar.Close()
	e.mu.Lock()
	e.closed = true
	e.cond.Signal()
	e.mu.Unlock()
	return nil
}

// joinEngine implements engine: it joins the partial engine's goroutines and
// the sum worker.
func (e *eagerReducer) joinEngine() {
	e.ar.Join()
	<-e.done
}

// sumQueue is an engine's sum worker: one goroutine reducing queued sums in
// FIFO order and resolving their handles — a Sync engine's buckets and every
// engine's model syncs, so that an engine's collectives in the default tag
// block run on one goroutine, in the SPMD order every rank queued them in.
// The queue lives under mu, not in a channel, so that Close never closes a
// channel a submitter might send on: after Close the worker drains the queue
// without touching the wire, releases the leases, and exits.
type sumQueue struct {
	comm *comm.Communicator
	cfg  collectives.Config
	// tolerant, set on an eager engine with a peer deadline, runs its model
	// syncs over the ranks still alive (partial.Allreducer.SyncParams).
	tolerant *partial.Allreducer
	wake     chan struct{} // the worker's "a sum landed" signal to the engine's waiter
	done     chan struct{} // closed when the worker exits, after Close

	mu     sync.Mutex
	cond   *sync.Cond // the worker waits here for work
	queue  []sumTask  // queue[head:] is pending
	head   int
	closed bool
	gen    uint64 // bumped when a step is abandoned: its late bucket sums are released
	// The model sync in flight: the replica's snapshot (nil when none), the
	// sum's handle and the replica count.
	snap  tensor.Vector
	model BucketHandle
	count int
}

// sumTask is one queued sum and the handle its verdict resolves.
type sumTask struct {
	h   *BucketHandle
	gen uint64 // the step generation a bucket was submitted in
	sum tensor.Vector
	ctx context.Context // a bucket's step context; nil for the model sync
}

func (q *sumQueue) launch(c *comm.Communicator, cfg collectives.Config) {
	q.comm, q.cfg = c, cfg
	q.wake, q.done = make(chan struct{}, 1), make(chan struct{})
	q.cond = sync.NewCond(&q.mu)
	go q.run()
}

func (q *sumQueue) run() {
	defer close(q.done)
	var failed error // first failed collective; later sums fail with it
	q.mu.Lock()
	for {
		for q.head == len(q.queue) && !q.closed {
			q.cond.Wait()
		}
		if q.head == len(q.queue) { // closed and drained
			q.mu.Unlock()
			return
		}
		task := q.queue[q.head]
		q.queue[q.head] = sumTask{}
		q.head++
		if q.head == len(q.queue) {
			q.queue, q.head = q.queue[:0], 0
		}
		closed := q.closed
		q.mu.Unlock()
		var count int
		var err error
		switch {
		case closed:
			err = ErrReducerClosed // closed with this sum still queued
		case failed != nil:
			// A failed collective (canceled, or a peer down) left the tag
			// block mid-protocol: fail every later sum off the wire.
			err = ctxError(task.ctx, failed)
		default:
			if count, err = q.reduce(task); err != nil {
				failed = err
				err = ctxError(task.ctx, err)
			}
		}
		if err != nil {
			tensor.PutVector(task.sum)
			task.sum = nil
		}
		q.mu.Lock()
		switch {
		case task.h == &q.model:
			q.model.done, q.model.sum, q.model.err, q.count = true, task.sum, err, count
		case task.gen == q.gen:
			task.h.done, task.h.sum, task.h.err = true, task.sum, err
		default:
			// An abandoned step's bucket: its record may serve the next step.
			tensor.PutVector(task.sum)
		}
		q.notifyLocked()
	}
}

// reduce runs one sum's collective; a model sync's leaves the average and
// the replica count.
func (q *sumQueue) reduce(t sumTask) (int, error) {
	if t.h == &q.model && q.tolerant != nil {
		return q.tolerant.SyncParams(t.sum)
	}
	var cancel <-chan struct{}
	if t.ctx != nil {
		cancel = t.ctx.Done()
	}
	if err := collectives.AllreduceWith(q.comm, t.sum, collectives.OpSum, collectives.AlgoAuto, q.cfg, cancel); err != nil {
		return 0, err
	}
	size := q.comm.Size()
	if t.h == &q.model {
		t.sum.Scale(1 / float64(size))
	}
	return size, nil
}

// notifyLocked wakes the engine's waiter; a token nobody takes makes the
// next wait re-check its condition once more.
func (q *sumQueue) notifyLocked() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// awaitLocked blocks, with q.mu held, until *done or ctx (if any) is done.
func (q *sumQueue) awaitLocked(ctx context.Context, done *bool) error {
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	for !*done {
		q.mu.Unlock()
		select {
		case <-q.wake:
		case <-cancel:
			q.mu.Lock()
			return ctx.Err()
		}
		q.mu.Lock()
	}
	return nil
}

var errNoSync = errors.New("collective: FinishSyncParams without StartSyncParams")

// startSync snapshots params and queues a copy for the model average.
func (q *sumQueue) startSync(params tensor.Vector) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.closed:
		return ErrReducerClosed
	case q.snap != nil:
		return errors.New("collective: StartSyncParams with a model sync in flight")
	}
	q.snap, q.model = tensor.GetVectorCopy(params), BucketHandle{}
	q.queue = append(q.queue, sumTask{h: &q.model, sum: tensor.GetVectorCopy(params)})
	q.cond.Signal()
	return nil
}

// finishSync lands the average on params as avg + (params − snapshot); a
// replica that did not move holds avg bit for bit.
func (q *sumQueue) finishSync(params tensor.Vector) (int, error) {
	q.mu.Lock()
	if q.snap == nil {
		q.mu.Unlock()
		return 0, errNoSync
	}
	_ = q.awaitLocked(nil, &q.model.done) // without a ctx the wait cannot fail
	snap, avg, err := q.snap, q.model.sum, q.model.err
	q.snap, q.model.sum = nil, nil
	q.mu.Unlock()
	defer tensor.PutVector(snap)
	defer tensor.PutVector(avg)
	if err != nil {
		return 0, err
	}
	for i, p := range params {
		if d := p - snap[i]; d != 0 {
			params[i] = avg[i] + d
		} else {
			params[i] = avg[i] // a signed zero survives
		}
	}
	return q.count, nil
}
