// Package collective is the public interface to the eager-SGD collective
// engines: synchronous allreduce (the paper's baseline, §3) and the partial
// collectives — solo, majority, and quorum allreduce (§4, §8) — behind one
// substitutable Reducer seam.
//
// The two entry points are:
//
//   - World: builds a job over the in-process, TCP, or shared-ring
//     transport and hands out one Node per member; Join, Leave and Replace
//     change the membership while training runs. Options select the
//     transport, the reduction mode and its Sync style (chunked or
//     negotiated); the allreduce algorithm follows from the vector length
//     and the world size.
//   - Reducer: the per-rank object a training loop calls once per step,
//     minted by Node.Reducer. Every mode — Sync, Solo, Majority, Quorum(k) —
//     implements the same interface, so swapping eager-SGD for synch-SGD is
//     one option, not a rewrite.
//
// A minimal job:
//
//	w, _ := collective.NewWorld(4, collective.WithMode(collective.Solo))
//	defer w.Close()
//	// per rank r (usually one goroutine or process each):
//	red, _ := w.Node(r).Reducer(dim)
//	res, _ := red.Reduce(ctx, grad)     // res.Sum holds the gradient sum
//
// Reduce takes a context: a blocked collective (for example, waiting on a
// rank that died) aborts promptly when the context is canceled instead of
// hanging forever.
package collective

import (
	"context"
	"fmt"

	"eagersgd/internal/collectives"
	"eagersgd/internal/tensor"
)

// ErrRankUnreachable is wrapped by reduction errors caused by a rank that is
// dead or unreachable (crashed process, partitioned link, dead connection).
// Sync reducers surface it instead of blocking forever once a peer is marked
// down — by the transport, by an external detector (Node.MarkPeerDown), or by
// the WithPeerDeadline failure detector. Match with errors.Is; the underlying
// comm.PeerDownError (rank and root cause) remains in the chain.
var ErrRankUnreachable = collectives.ErrRankUnreachable

// Result describes one completed reduction.
type Result struct {
	// Sum is the element-wise sum over the included contributions. The caller
	// owns it; divide by Ranks for the average used by SGD. Sum is leased from
	// the shared vector pool: a training loop that is done with it may release
	// it with tensor.PutVector to keep the steady state allocation-free
	// (forgetting to release merely hands the buffer to the garbage
	// collector).
	Sum tensor.Vector
	// Ranks is the world size.
	Ranks int
	// ActiveRanks is the number of ranks whose fresh contribution is part of
	// Sum — the "number of active processes" metric of Fig. 9. It equals
	// Ranks for Sync reductions.
	ActiveRanks int
	// Included reports whether this rank's contribution to this call is part
	// of Sum. When false, the gradient stays buffered and is folded into a
	// later round as a stale contribution (Fig. 7); nothing is lost.
	Included bool
	// Round is the engine round whose result was observed (eager modes), or
	// the zero-based call index (Sync reductions).
	Round int
}

// Reducer reduces per-rank gradient vectors across the world. One Reducer
// serves one rank; every rank of the world must create a Reducer with the
// same dimension and mode, and a Reducer is driven by one goroutine at a time
// (the rank's training loop).
type Reducer interface {
	// Reduce contributes grad to the current round and returns the reduced
	// result. In Sync mode the call blocks until every rank contributes; in
	// the eager modes it returns as soon as the round completes, which never
	// requires waiting for stragglers (Solo) or waits only for the round's
	// designated initiator (Majority/Quorum). Canceling ctx aborts a blocked
	// call with the context's error.
	Reduce(ctx context.Context, grad tensor.Vector) (Result, error)
	// Close ends the reducer for its caller: later and pending calls return
	// ErrReducerClosed. It does not close the transport; that is the World's
	// job. An eager reducer's engine keeps serving its peers' rounds with null
	// gradients until World.Close, so a rank that stops early never stalls the
	// ranks still training; its goroutines and buffers are released there.
	Close() error
}

// namer is implemented by all built-in reducers.
type namer interface{ Name() string }

// ReducerName returns a human-readable name for the reducer ("eager-sgd
// (solo)", "synch-sgd (horovod)", ...), or "reducer" for implementations
// without one.
func ReducerName(r Reducer) string {
	if n, ok := r.(namer); ok {
		return n.Name()
	}
	return "reducer"
}

// modeKind enumerates the reduction behaviours.
type modeKind int

const (
	kindSync modeKind = iota
	kindSolo
	kindMajority
	kindQuorum
)

// Mode selects the reduction behaviour of a Reducer. Use the Sync, Solo, and
// Majority values or the Quorum constructor; the zero value is Sync.
type Mode struct {
	kind       modeKind
	candidates int
}

// The built-in modes.
var (
	// Sync is the synchronous allreduce baseline: every rank blocks until all
	// ranks contribute, and every contribution is fresh.
	Sync = Mode{kind: kindSync}
	// Solo is the wait-free partial allreduce (§4.1): any rank's arrival
	// completes the round; stragglers contribute stale gradients later.
	Solo = Mode{kind: kindSolo}
	// Majority designates one random initiator per round (§4.2), giving at
	// least P/2 expected fresh contributions per round.
	Majority = Mode{kind: kindMajority}
)

// Quorum generalizes Solo and Majority (§8): k candidate initiators are
// designated per round and the first to arrive completes it. Quorum(1)
// behaves like Majority; Quorum(k) with k at or above the world size P like
// Solo.
func Quorum(k int) Mode {
	if k < 1 {
		k = 1
	}
	return Mode{kind: kindQuorum, candidates: k}
}

// Candidates returns the candidate-initiator count of a Quorum mode and 0 for
// the other modes.
func (m Mode) Candidates() int { return m.candidates }

// String returns the mode name: "sync", "solo", "majority", or "quorum".
func (m Mode) String() string {
	switch m.kind {
	case kindSync:
		return "sync"
	case kindSolo:
		return "solo"
	case kindMajority:
		return "majority"
	case kindQuorum:
		return "quorum"
	default:
		return fmt.Sprintf("mode(%d)", int(m.kind))
	}
}

// Transport selects the wire layer a World runs on: Inproc, TCP, or Shm.
type Transport int

const (
	// Inproc connects the ranks as goroutines within this process through
	// channels: zero configuration, used by tests, examples, and the
	// simulation harness.
	Inproc Transport = iota
	// TCP runs the same collectives over loopback TCP sockets, one listener
	// per rank on consecutive ports starting at the configured base port.
	TCP
	// Shm connects the ranks through per-pair SPSC shared rings: frames are
	// encoded in place into a ring span and decoded straight into pooled
	// vectors — zero syscalls per exchange. All ranks live in this process.
	Shm
)

// String returns the transport name.
func (t Transport) String() string {
	switch t {
	case Inproc:
		return "inproc"
	case TCP:
		return "tcp"
	case Shm:
		return "shm"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}
