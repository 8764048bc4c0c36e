package collective

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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
	// joinEngine blocks until the engine's background goroutines have exited
	// and returned their buffers to the pool. Only valid after the
	// communicator is closed; World.Close and generation retirement call it
	// so shutdown leaks no pool leases.
	joinEngine()
}

// newEngine builds the engine of cfg's mode over one epoch's communicator.
// dim is the fixed gradient length, already validated by oneShotLayout;
// every rank must build its engine with the same dim, mode and seed (the
// engines are SPMD).
func newEngine(c *comm.Communicator, dim int, cfg config) (engine, error) {
	switch cfg.mode.kind {
	case kindSync:
		s := &syncReducer{
			comm: c, dim: dim,
			chunks: cfg.chunks, negotiate: cfg.negotiate,
			peerDeadline: cfg.peerDeadline,
			wake:         make(chan struct{}, 1),
			workerDone:   make(chan struct{}),
		}
		s.cond = sync.NewCond(&s.mu)
		go s.runWorker()
		return s, nil
	case kindSolo, kindMajority, kindQuorum:
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
		return &eagerReducer{
			comm: c,
			ar:   partial.New(c, dim, popts),
			mode: cfg.mode,
			dim:  dim,
		}, nil
	default:
		return nil, fmt.Errorf("collective: unknown mode %v", cfg.mode)
	}
}

// ctxError converts the comm layer's cancellation sentinel into the context's
// own error so callers see context.Canceled / DeadlineExceeded.
func ctxError(ctx context.Context, err error) error {
	if errors.Is(err, comm.ErrCanceled) && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// syncReducer is the Sync mode: a blocking allreduce per bucket, queued on
// one bucket worker (bucket.go). Reduce runs one bucket over the whole
// vector, or one per chunk (Deep500-style, WithChunks); the step may open
// with a negotiation round (Horovod-style, WithNegotiation).
type syncReducer struct {
	comm         *comm.Communicator
	dim          int
	chunks       int
	negotiate    bool
	peerDeadline time.Duration
	wake         chan struct{} // the worker's "a handle resolved" signal to the step's waiter
	workerDone   chan struct{} // closed when the bucket worker exits, after Close

	// mu guards the fields below: the step API itself is driven by one
	// goroutine (the rank's training loop), but the bucket worker resolves
	// handles and Close may be called concurrently by World.Close while a
	// step is in flight.
	mu     sync.Mutex
	cond   *sync.Cond   // the bucket worker waits here for work
	queue  []bucketTask // the bucket worker's FIFO: queue[head:] is pending
	head   int
	step   stepRecord
	gen    uint64 // bumped when a step is abandoned: its late results are released
	calls  int    // steps opened so far; the open step's Result.Round is calls-1
	closed bool
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
	comm *comm.Communicator
	ar   *partial.Allreducer
	mode Mode
	dim  int

	// The open step, driven by the rank's one training goroutine.
	step  stepRecord
	round int           // the step's allreducer round
	seq   uint64        // its contribution's sequence number, set at commit
	stage tensor.Vector // where its buckets are staged until the last commits them
}

// Name identifies the reducer in reports.
func (e *eagerReducer) Name() string { return fmt.Sprintf("eager-sgd (%s)", e.mode) }

// Close marks the underlying allreducer closed. The background engine exits
// when the world (communicator) is closed.
func (e *eagerReducer) Close() error {
	e.ar.Close()
	return nil
}

// joinEngine implements engine: it joins the partial engine's goroutines.
func (e *eagerReducer) joinEngine() { e.ar.Join() }
