package collective

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
)

// engine is the sync or eager reducer an elasticReducer runs its current
// epoch on. Node.Reducer is the only way to obtain one, wrapped.
type engine interface {
	BucketReducer
	Name() string
	// joinEngine blocks until the engine's background goroutines have exited
	// and returned their buffers to the pool. Only valid after the
	// communicator is closed; World.Close and generation retirement call it
	// so shutdown leaks no pool leases.
	joinEngine()
}

// newEngine builds the engine of cfg's mode over one epoch's communicator.
// dim is the fixed gradient length; every rank must build its engine with
// the same dim, mode and seed (the engines are SPMD).
func newEngine(c *comm.Communicator, dim int, cfg config) (engine, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("collective: reducer dimension %d must be positive", dim)
	}
	if len(cfg.layout) > 0 {
		if _, err := validateLayout(dim, cfg.layout); err != nil {
			return nil, err
		}
	}
	switch cfg.mode.kind {
	case kindSync:
		return &syncReducer{
			comm: c, dim: dim,
			chunks: cfg.chunks, negotiate: cfg.negotiate,
			peerDeadline: cfg.peerDeadline,
		}, nil
	case kindSolo, kindMajority, kindQuorum:
		popts := partial.Options{Seed: cfg.seed, Buckets: cfg.layout, PeerDeadline: cfg.peerDeadline}
		switch cfg.mode.kind {
		case kindSolo:
			popts.Mode = partial.Solo
		case kindMajority:
			popts.Mode = partial.Majority
		default:
			popts.Mode = partial.Quorum
			popts.Candidates = cfg.mode.candidates
		}
		e := &eagerReducer{
			comm: c,
			ar:   partial.New(c, dim, popts),
			mode: cfg.mode,
			dim:  dim,
		}
		e.lens, e.offs = e.layoutOf()
		return e, nil
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

// syncReducer is the Sync mode: a blocking allreduce per call, optionally
// chunked (Deep500-style) or preceded by a negotiation round (Horovod-style).
// It also implements BucketReducer (bucket.go): the bucketed step queues each
// bucket's allreduce on one worker as soon as the bucket is submitted.
type syncReducer struct {
	comm         *comm.Communicator
	dim          int
	chunks       int
	negotiate    bool
	calls        int
	peerDeadline time.Duration

	// mu guards the bucketed-step fields below: the step API itself is
	// driven by one goroutine (the rank's training loop), but Close may be
	// called concurrently by World.Close while a step is in flight.
	mu        sync.Mutex
	worker    *bucketWorker // lazily started bucket worker (bucket.go)
	step      *syncStep     // in-flight bucketed step, nil between steps
	closed    bool
	closeOnce sync.Once
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

// Reduce performs the synchronous allreduce. Canceling ctx aborts a blocked
// reduction; the collective is then mid-protocol on this rank, so the only
// safe follow-up is closing the world.
func (s *syncReducer) Reduce(ctx context.Context, grad tensor.Vector) (Result, error) {
	if len(grad) != s.dim {
		return Result{}, fmt.Errorf("collective: gradient length %d, want %d", len(grad), s.dim)
	}
	call := s.calls
	s.calls++
	cancel := ctx.Done()
	sum := tensor.GetVectorCopy(grad)
	if s.negotiate {
		// Readiness consensus (Horovod's coordinator round), then one fused
		// allreduce over the whole gradient.
		ready := tensor.GetVector(1)
		ready[0] = 1
		err := collectives.AllreduceWith(s.comm, ready, collectives.OpSum, collectives.AlgoRecursiveDoubling, collectives.Config{PeerDeadline: s.peerDeadline}, cancel)
		tensor.PutVector(ready)
		if err != nil {
			tensor.PutVector(sum)
			return Result{}, ctxError(ctx, err)
		}
	}
	wireCfg := collectives.Config{PeerDeadline: s.peerDeadline}
	if s.chunks > 1 {
		for i := 0; i < s.chunks; i++ {
			lo, hi := tensor.ChunkBounds(len(sum), s.chunks, i)
			if lo == hi {
				continue
			}
			if err := collectives.AllreduceWith(s.comm, sum[lo:hi], collectives.OpSum, collectives.AlgoAuto, wireCfg, cancel); err != nil {
				tensor.PutVector(sum)
				return Result{}, ctxError(ctx, err)
			}
		}
	} else if err := collectives.AllreduceWith(s.comm, sum, collectives.OpSum, collectives.AlgoAuto, wireCfg, cancel); err != nil {
		tensor.PutVector(sum)
		return Result{}, ctxError(ctx, err)
	}
	size := s.comm.Size()
	return Result{Sum: sum, Ranks: size, ActiveRanks: size, Included: true, Round: call}, nil
}

// eagerReducer adapts a partial.Allreducer to the Reducer interface. It also
// implements BucketReducer (bucket.go): buckets are staged during backprop,
// committed to the engine in one atomic fold (one participation decision per
// step), and their results resolve together when the engine publishes the
// step's round.
type eagerReducer struct {
	comm       *comm.Communicator
	ar         *partial.Allreducer
	mode       Mode
	dim        int
	lens, offs []int      // the engine's fixed bucket layout (layoutOf)
	estep      *eagerStep // in-flight bucketed step, nil between steps
}

// Name identifies the reducer in reports.
func (e *eagerReducer) Name() string { return fmt.Sprintf("eager-sgd (%s)", e.mode) }

// Reduce contributes grad to the current partial-allreduce round. Canceling
// ctx abandons only the wait: the contribution stays buffered and the engine
// keeps serving peers, so the reducer remains usable.
func (e *eagerReducer) Reduce(ctx context.Context, grad tensor.Vector) (Result, error) {
	if len(grad) != e.dim {
		return Result{}, fmt.Errorf("collective: gradient length %d, want %d", len(grad), e.dim)
	}
	sum, info, err := e.ar.ExchangeContext(ctx, grad)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Sum:         sum,
		Ranks:       e.comm.Size(),
		ActiveRanks: info.ActiveProcesses,
		Included:    info.Included,
		Round:       info.Round,
	}, nil
}

// Close marks the underlying allreducer closed. The background engine exits
// when the world (communicator) is closed.
func (e *eagerReducer) Close() error {
	e.ar.Close()
	return nil
}

// joinEngine implements engine: it joins the partial engine's goroutines.
func (e *eagerReducer) joinEngine() { e.ar.Join() }
