// Package partial implements the paper's partial collective operations (§4):
// solo allreduce, majority allreduce, and the generalized quorum allreduce
// mentioned as future work (§8), all without a central parameter server.
//
// An Allreducer owns a background engine (the "communication library" of
// §4.3): one long-lived goroutine that runs the persistent schedule of Fig. 6
// round after round as straight-line code — wait for the round's activation,
// flood it to the hypercube neighbours, snapshot the send buffer, allreduce —
// plus one long-lived listener that receives the peers' activations. Fast
// ranks activate the round internally; slow ranks are activated externally by
// the flood and contribute whatever their send buffer holds — null gradients,
// or stale gradients accumulated from earlier rounds (Fig. 7 semantics). The
// application-facing Exchange call therefore never waits for stragglers in
// Solo mode, and in Majority mode waits only for a per-round randomly
// designated initiator, giving the statistical ≥P/2 participation guarantee
// of §4.2.
package partial

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// Mode selects which partial collective the Allreducer implements.
type Mode int

const (
	// Solo lets any rank initiate the collective: a wait-free operation where
	// the fastest rank triggers completion (§4.1).
	Solo Mode = iota
	// Majority designates one random initiator per round (same seeded choice
	// on every rank), so on average half the ranks contribute fresh data
	// (§4.2).
	Majority
	// Quorum generalizes the two: Candidates ranks are designated per round
	// and the first of them to arrive initiates. Candidates=1 is Majority,
	// Candidates at or above P is Solo; intermediate values trade latency for
	// expected participation (§8).
	Quorum
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Solo:
		return "solo"
	case Majority:
		return "majority"
	case Quorum:
		return "quorum"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultBaseTag is the start of the tag namespace used by partial
// collectives. It is far above the namespace used by internal/collectives so
// the two can share a communicator. Every Allreducer uses it: an elastic world
// builds a fresh communicator generation per epoch, so epochs need no tag
// blocks of their own.
const DefaultBaseTag = 1 << 24

// TagSpan is the width of an Allreducer's tag namespace: every tag it ever
// puts on the wire lies in [DefaultBaseTag, DefaultBaseTag+TagSpan). The set
// is constant — the same tags every round, ordered by the communicator's
// per-(source, tag) FIFO because rounds are strictly sequential — so the
// namespace cannot be outgrown however long the training runs.
const TagSpan = 1 << 21

// Offsets of the engine's tags within its namespace.
const (
	tagActivation = 0    // the round-stamped activation flood
	tagData       = 64   // data phase without PeerDeadline: one internal/collectives tag block
	tagTolerant   = 2048 // data phase with PeerDeadline: fold, fold-back, then one tag per doubling step
	tagSync       = 4096 // SyncParams: the replicas, then the closing tokens
)

// Options configures an Allreducer.
type Options struct {
	// Mode selects solo, majority, or quorum behaviour. Default Solo.
	Mode Mode
	// Seed drives the shared pseudo-random initiator selection for Majority
	// and Quorum modes. Every rank must use the same seed (the consensus of
	// §4.2 is achieved by using the same seed on all processes).
	Seed int64
	// Candidates is the number of designated initiators per round in Quorum
	// mode. Values below 1 are treated as 1; values at or above the
	// communicator size behave like Solo.
	Candidates int
	// PeerDeadline enables rank-failure tolerance: it is the failure
	// detector's deadline. The data phase then runs as a recursive doubling
	// whose every hop can drop a dead peer: a receive blocked on a peer for
	// longer than this marks the peer down (its subtree — data and activation
	// flag — is dropped from the round and every later round), and a rank that
	// has arrived at a round whose designated initiators are all marked down
	// activates the round itself after this long, so a dead initiator cannot
	// stall Majority/Quorum training. Choose it far above any legitimate
	// skew: a rank it fires on is treated as permanently failed. Zero (the
	// default) disables failure tolerance: the data phase is a plain
	// internal/collectives allreduce (pipelined ring at large sizes), which
	// blocks on a silent peer forever and fails the engine with
	// collectives.ErrRankUnreachable on one marked down. Every rank must use
	// the same value: it selects the wire protocol, and with it a model sync
	// over the engine's ranks is SyncParams instead of a fail-fast collective.
	PeerDeadline time.Duration
}

// RoundInfo describes the completed round an Exchange call observed.
type RoundInfo struct {
	// Round is the round index whose result was returned. If the caller fell
	// behind by more than one round, this is the latest completed round (the
	// receive buffer only retains the most recent result, §5 of the paper).
	Round int
	// ActiveProcesses is the number of ranks whose fresh contribution for
	// that round arrived before the collective was activated — the NAP metric
	// of Fig. 9.
	ActiveProcesses int
	// Included reports whether the caller's contribution to this Exchange was
	// part of the returned result. When false the gradient remains in the
	// send buffer and will be folded into a later round (stale gradient).
	Included bool
}

// ErrClosed is returned by Exchange after Close has been called.
var ErrClosed = errors.New("partial: allreducer closed")

// roundRecord is the accounting of one round kept for late callers.
type roundRecord struct {
	round       int    // the round this slot describes (slots are reused modulo retainedRounds)
	snapshotSeq uint64 // contribSeq at the round's snapshot: contributions up to it were included
	doneSeq     uint64 // contribSeq at the round's completion: later ones arrived after it (stragglers)
	nap         int    // number of active processes; -1 until the round completes
}

// retainedRounds bounds the per-round bookkeeping kept for late callers.
const retainedRounds = 128

// Stats counts what an Allreducer's engine and its callers have done since
// New. Every word is updated inside a critical section the engine or the
// caller takes anyway, so keeping them costs no lock, atomic or allocation.
type Stats struct {
	// Rounds is the number of rounds completed.
	Rounds int64
	// InternalActivations counts rounds started by this rank's application
	// reaching the collective, ExternalActivations rounds started by a peer's
	// activation message; they sum to the rounds activated here.
	InternalActivations int64
	ExternalActivations int64
	// StaleActivations counts activation messages that started no round
	// here: the redundant copies the flood delivers over other hypercube
	// edges (the round was already activated, or the application's own
	// activation got there first) and late ones. Every activation received
	// is counted here or in ExternalActivations.
	StaleActivations int64
	// FailoverActivations counts internal activations by a rank that is not a
	// designated initiator of the round, made because every designated
	// initiator was marked down (Options.PeerDeadline).
	FailoverActivations int64
	// ExchangesIncluded counts Exchange / WaitStep calls whose contribution
	// made their round's snapshot; ExchangesStraggler those whose
	// contribution arrived after it and stayed in the send buffer as a stale
	// gradient.
	ExchangesIncluded  int64
	ExchangesStraggler int64
	// NullSnapshots counts rounds this rank entered with nothing in its send
	// buffer, contributing null gradients.
	NullSnapshots int64
}

// Allreducer provides partial allreduce over a fixed-size gradient vector.
// It is safe for concurrent use by one application goroutine per rank plus
// its internal engine; the usual usage is one Allreducer per rank, called
// from that rank's training loop.
type Allreducer struct {
	comm *comm.Communicator
	n    int
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // application callers wait here for a round to complete
	wake *sync.Cond // the engine waits here for the armed round's activation

	// Buffers of n+1 elements (the gradient plus the round's
	// fresh-contribution flag) rotate through roles instead of being copied.
	// sendBuf accumulates the application's not-yet-contributed gradients; at
	// activation the engine takes it as its round buffer and leaves its
	// previous one behind as the new, logically empty send buffer (sendNull:
	// the next fold overwrites instead of adding, so the stale contents are
	// never read and never need zeroing). At completion the round buffer and
	// lastResult swap the same way. A step's staging buffer is a pool lease
	// taken by BeginStep; Contribute swaps it with an empty send buffer, or
	// folds it, and returns one buffer to the pool. A whole-vector wait on the
	// latest round hands lastResult itself to the caller and puts a pool lease
	// in its place (handed). sendBuf and lastResult are only touched under mu;
	// roundBuf belongs to the engine goroutine alone from the snapshot to the
	// publication of a round, stageBuf to the application from BeginStep to
	// Contribute.
	sendBuf    tensor.Vector
	sendNull   bool // sendBuf holds no contribution; its contents are garbage
	roundBuf   tensor.Vector
	lastResult tensor.Vector
	handed     bool          // lastResult's round was handed over; its contents are garbage
	stageBuf   tensor.Vector // the open step's stage, from BeginStep to Contribute

	contribSeq uint64 // bumped on every accumulation into sendBuf
	appRound   int    // next round index the application will exchange
	act        Activation
	peers      []int // the ranks the activation flood goes to (Activation.Peers)
	records    [retainedRounds]roundRecord

	closed   bool // Close was called, or the communicator closed
	stopped  bool // the engine must stop: fail was called
	engineWG sync.WaitGroup
	err      error
}

// New creates an Allreducer for vectors of length n over the communicator.
// Every rank of the communicator must create one with identical n and
// options; the engines start immediately.
func New(c *comm.Communicator, n int, opts Options) *Allreducer {
	a := &Allreducer{
		comm:       c,
		n:          n,
		opts:       opts,
		sendBuf:    tensor.NewClassVector(n + 1),
		sendNull:   true,
		roundBuf:   tensor.NewClassVector(n + 1),
		lastResult: tensor.NewClassVector(n + 1),
		act:        NewActivation(c.Rank(), c.Size(), opts),
	}
	a.peers = a.act.Peers()
	for i := range a.records {
		a.records[i].round = -1
	}
	a.cond = sync.NewCond(&a.mu)
	a.wake = sync.NewCond(&a.mu)
	if opts.PeerDeadline > 0 {
		// A peer marked down (by a data-phase deadline, the transport, or a
		// sibling allreducer) may have been the round's last live candidate.
		c.OnPeerDown(func(int) { a.peerDown() })
	}
	a.engineWG.Add(2)
	go a.engineLoop()
	go a.listen()
	return a
}

// alive reports whether the communicator still believes rank r alive.
func (a *Allreducer) alive(r int) bool { return a.comm.PeerError(r) == nil }

// peerDown delivers a peer's marking down to the activation protocol, which
// may fail the application's round over to this rank.
func (a *Allreducer) peerDown() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.closed && a.err == nil && a.act.PeerDown(a.alive) {
		a.wake.Signal()
	}
}

// armFailoverTimer starts the failure detector of a wait on the round: when
// the peer deadline fires on it unactivated (Activation.Deadline), its
// designated initiators are marked down (cause comm.ErrPeerDeadline), so it
// fails over. Call the returned stop function when the wait ends. With failure
// tolerance off, or every rank a candidate, it does nothing.
func (a *Allreducer) armFailoverTimer(round int) (stop func()) {
	if a.opts.PeerDeadline <= 0 || a.act.EveryRank() {
		return func() {}
	}
	timer := time.AfterFunc(a.opts.PeerDeadline, func() {
		a.mu.Lock()
		suspect := !a.closed && a.err == nil && a.act.Deadline(round)
		a.mu.Unlock()
		if !suspect {
			return
		}
		for _, r := range a.DesignatedInitiators(round) {
			if r != a.comm.Rank() {
				// The OnPeerDown hook delivers peerDown; the call below covers
				// initiators that were marked already.
				a.comm.MarkPeerDown(r, fmt.Errorf("partial: round %d initiator %d unresponsive: %w", round, r, comm.ErrPeerDeadline))
			}
		}
		a.peerDown()
	})
	return func() { timer.Stop() }
}

// DesignatedInitiators returns the ranks allowed to internally activate the
// given round, without duplicates in first-seen order: nil when every rank
// may (Solo, a Quorum covering the world, a one-rank world), else the
// round's candidates. Every rank computes the same answer (the shared-seed
// consensus of §4.2), for diagnostics and for tests that pick an initiator.
func (a *Allreducer) DesignatedInitiators(round int) []int {
	if a.act.EveryRank() {
		return nil
	}
	var out []int
	Candidates(a.opts.Mode, a.opts.Candidates, a.opts.Seed, round, a.comm.Size(), func(r int) bool {
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
		return true
	})
	return out
}

// candidateCount resolves a mode into the number k of candidate initiators
// it designates per round among size ranks: Solo k = size, Majority k = 1,
// Quorum k = candidates clamped to [1, size].
func candidateCount(mode Mode, candidates, size int) int {
	switch mode {
	case Majority:
		return 1
	case Quorum:
		return min(max(candidates, 1), size)
	}
	return size
}

// Candidates walks the candidate initiators of the round among size ranks
// under the given mode (candidates is Options.Candidates, read by Quorum) —
// the one participation rule behind every mode and behind internal/sweep's
// model of them — calling yield on each until it returns false. The mode
// designates k ranks per round (candidateCount). At k ≥ size every rank is a
// candidate, each once, in rank order; otherwise the candidates are
// Initiator(seed, round, i, size) for i < k, in draw order, so a rank drawn
// twice is yielded twice. A round activates at the first of its candidates
// to arrive.
func Candidates(mode Mode, candidates int, seed int64, round, size int, yield func(rank int) bool) {
	k := candidateCount(mode, candidates, size)
	if k >= size {
		for r := 0; r < size && yield(r); r++ {
		}
		return
	}
	for i := 0; i < k && yield(Initiator(seed, round, i, size)); i++ {
	}
}

// Initiator returns the idx-th designated initiator of the round in a world
// of size ranks sharing seed. Every rank computes the same value because the
// SplitMix64 hash depends only on the shared seed, the round and the index;
// initiator selection needs no state that could drift between ranks. The
// sweep (internal/sweep) calls it so its model activates the very rank the
// engine would.
func Initiator(seed int64, round, idx, size int) int {
	x := uint64(seed) ^ (uint64(round)+1)*0x9e3779b97f4a7c15 ^ uint64(idx)*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(size))
}

// Exchange contributes grad to the current round of the partial allreduce and
// returns the reduced gradient sum visible to this rank, following the
// eager-SGD buffer protocol of Fig. 7:
//
//   - If the round has not completed yet, the gradient (plus any stale
//     gradients from earlier rounds) is contributed, the call blocks until
//     the round completes (which in Solo mode happens as soon as the fastest
//     rank arrives), and Included is true if this rank's data made it into
//     the snapshot.
//   - If the round already completed (this rank is a straggler), the latest
//     receive-buffer contents are returned immediately, Included is false,
//     and the gradient is kept in the send buffer to be folded into a later
//     round.
//
// Exchange is the one-bucket step: BeginStep, a copy of grad into the stage,
// Contribute, and one wait that reads the result and its accounting together.
// The returned vector is a pool lease owned by the caller (release it with
// tensor.PutVector when done, or let the garbage collector take it): the
// receive buffer itself when the round is the latest completed one, otherwise
// a copy of the latest result (see WaitBucket). The result is the
// element-wise sum over contributions; divide by the world size for the
// average used by eager-SGD.
func (a *Allreducer) Exchange(grad tensor.Vector) (tensor.Vector, RoundInfo, error) {
	if len(grad) != a.n {
		return nil, RoundInfo{}, fmt.Errorf("partial: gradient length %d, want %d", len(grad), a.n)
	}
	round, stage, err := a.BeginStep()
	if err != nil {
		return nil, RoundInfo{}, err
	}
	stage.CopyFrom(grad)
	seq, err := a.Contribute(round)
	if err != nil {
		return nil, RoundInfo{}, err
	}
	//eagervet:ignore ctxcheck -- Exchange is the documented no-context form of the step protocol; the root lives here by design.
	return a.wait(context.Background(), round, seq, true)
}

// recordLocked returns the retained accounting of the round, if it has not
// been overwritten by a round retainedRounds later. Caller holds a.mu.
func (a *Allreducer) recordLocked(round int) (roundRecord, bool) {
	rec := a.records[round%retainedRounds]
	return rec, rec.round == round
}

// roundInfoLocked reports the completed round to the caller whose
// contribution has sequence number seq (zero: none), and counts the call as
// included or straggling. A contribution that arrived after its round had
// completed gets the latest completed round and its NAP, as RoundInfo
// states: that round's result is what the receive buffer holds. Caller holds
// a.mu.
func (a *Allreducer) roundInfoLocked(round int, seq uint64) RoundInfo {
	rec, ok := a.recordLocked(round)
	if !ok || seq > rec.doneSeq {
		round = a.act.done
		rec, ok = a.recordLocked(round)
	}
	info := RoundInfo{Round: round}
	if ok {
		info.ActiveProcesses = rec.nap
		info.Included = seq > 0 && seq <= rec.snapshotSeq
	}
	if info.Included {
		a.act.stats.ExchangesIncluded++
	} else {
		a.act.stats.ExchangesStraggler++
	}
	return info
}

// watchContext converts a context cancellation into condition-variable
// wakeups so the wait loops can observe it. The returned stop function must
// be called (usually deferred) when the wait is over.
func (a *Allreducer) watchContext(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return false } // nothing to watch, nothing to allocate
	}
	return context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
}

// BeginStep reserves the next exchange round for a bucketed step and returns
// its round index and the step's staging vector. The bucketed step protocol —
// the overlapped path behind collective's SubmitBucket/WaitStep — is:
//
//	round, stage, _ := a.BeginStep()
//	// ... as backprop produces buckets, copy them into stage ...
//	seq, _ := a.Contribute(round)         // commit: the step's arrival
//	a.WaitBucket(ctx, round, lo, hi)      // per bucket [lo, hi)
//	a.WaitStep(ctx, round, seq)           // end-of-step accounting
//
// The contribution is committed atomically by Contribute and the round
// reduces the whole vector, so the set of ranks whose data is fresh in the
// round is identical for every bucket: one participation decision per step.
// The buckets are the caller's: they never reach the wire, so each step may
// read its result in any ranges. The staging vector belongs to the caller
// until Contribute, which must find all n elements written. It is a pool
// lease, so the stage copy writes into the buffer the caller last released
// (usually the previous step's result), and it joins the buffer rotation at
// Contribute, so that committing into an empty send buffer is a swap, not a
// pass over the vector. A step must be contributed before the next one
// begins; a stage never contributed is reused by the next BeginStep, or
// returned to the pool by Join. Exchange is this protocol with one bucket.
// Every rank must run its steps, Exchange calls included, in the same order
// (SPMD).
func (a *Allreducer) BeginStep() (int, tensor.Vector, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, nil, ErrClosed
	}
	if a.err != nil {
		return 0, nil, a.err
	}
	if a.stageBuf == nil {
		a.stageBuf = tensor.GetVector(a.n + 1)
	}
	round := a.appRound
	a.appRound++
	return round, a.stageBuf[:a.n], nil
}

// Contribute commits the step's staged gradient vector to the send buffer in
// one atomic fold — the bucketed step's arrival point. Into an empty send
// buffer the stage is swapped in and the old send buffer returns to the pool;
// onto stale gradients it is added and returns to the pool itself. If this
// rank may initiate the round under the configured mode, the round is
// activated. The returned sequence number identifies the contribution for
// WaitStep's inclusion accounting. Contribute never blocks on communication:
// if the round already completed (straggler), the data simply stays buffered
// and is folded into a later round as a stale gradient (Fig. 7).
func (a *Allreducer) Contribute(round int) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, ErrClosed
	}
	if a.stageBuf == nil {
		return 0, errors.New("partial: Contribute without BeginStep")
	}
	if a.sendNull {
		a.sendBuf, a.stageBuf = a.stageBuf, a.sendBuf
		a.sendNull = false
	} else {
		a.sendBuf[:a.n].Add(a.stageBuf[:a.n]) // fold onto the stale gradients
	}
	tensor.PutVector(a.stageBuf)
	a.stageBuf = nil
	a.contribSeq++
	if a.err == nil && a.act.Arrive(round, a.alive) {
		a.wake.Signal()
	}
	return a.contribSeq, a.err
}

// WaitBucket blocks until the round has been reduced and returns elements
// [lo, hi) of the receive buffer, a non-empty range within the vector, as a
// pool lease the caller owns. If the round — or a later one — already
// completed, the latest receive-buffer contents for the range are returned
// immediately: the straggler path of Fig. 7 at bucket granularity.
//
// The whole vector of the latest completed round is handed over: the caller
// gets the receive buffer itself, and a pool lease takes its place, so the
// step pays no pass over the result. That round's result is then gone: a
// second read of it fails, until the next round completes. Every other read —
// a sub-range, or a round older than the latest (a straggler, whose next wait
// reads the same latest result again) — returns a copy.
func (a *Allreducer) WaitBucket(ctx context.Context, round, lo, hi int) (tensor.Vector, error) {
	if lo < 0 || hi <= lo || hi > a.n {
		return nil, fmt.Errorf("partial: bucket [%d,%d) is not a non-empty range of [0,%d)", lo, hi, a.n)
	}
	err := a.await(ctx, round)
	defer a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return a.resultLocked(round, lo, hi)
}

// resultLocked reads elements [lo, hi) of the latest completed round's result
// for a wait on the round: by handover when the read is the whole vector of
// the round itself, else by copy (WaitBucket). Caller holds a.mu, and the
// round has completed.
func (a *Allreducer) resultLocked(round, lo, hi int) (tensor.Vector, error) {
	if a.handed {
		return nil, fmt.Errorf("partial: round %d's result was already handed over", a.act.done)
	}
	if lo > 0 || hi < a.n || round != a.act.done {
		return tensor.GetVectorCopy(a.lastResult[lo:hi]), nil
	}
	sum := a.lastResult[:a.n]
	a.lastResult = tensor.GetVector(a.n + 1) // the next publish's round buffer
	a.handed = true
	return sum, nil
}

// WaitStep blocks until the round has fully completed and returns its
// accounting: the number of active processes and whether the contribution
// identified by seq (from Contribute) made it into the round's snapshot.
// Because the snapshot is atomic and the activation decision is made once per
// round, inclusion is the same for every bucket of the step. Canceling ctx
// abandons only the wait: the contribution stays in the send buffer and is
// contributed to a later round as a stale gradient (Fig. 7), and the engine
// keeps serving the peers' rounds, so the allreducer stays usable.
func (a *Allreducer) WaitStep(ctx context.Context, round int, seq uint64) (RoundInfo, error) {
	_, info, err := a.wait(ctx, round, seq, false)
	return info, err
}

// wait is the step protocol's wait for the round: it blocks until the round
// has completed and returns the round's accounting for the contribution seq
// and, with result, the whole result as WaitBucket reads it, under the same
// lock.
func (a *Allreducer) wait(ctx context.Context, round int, seq uint64, result bool) (tensor.Vector, RoundInfo, error) {
	err := a.await(ctx, round)
	defer a.mu.Unlock()
	if err != nil {
		return nil, RoundInfo{}, err
	}
	var sum tensor.Vector
	if result {
		if sum, err = a.resultLocked(round, 0, a.n); err != nil {
			return nil, RoundInfo{}, err
		}
	}
	return sum, a.roundInfoLocked(round, seq), nil
}

// await blocks, with the round's failure detector armed, until the round has
// completed, the allreducer failed or closed, or ctx is done; it returns
// holding a.mu.
func (a *Allreducer) await(ctx context.Context, round int) error {
	defer a.watchContext(ctx)()
	defer a.armFailoverTimer(round)()
	a.mu.Lock()
	for {
		switch {
		case a.err != nil:
			return a.err
		case a.closed:
			return ErrClosed
		case a.act.done >= round:
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		a.cond.Wait()
	}
}

// engineLoop is the background communication engine: the persistent schedule
// of Fig. 6 as a loop. Each iteration arms one round, waits for its activation
// and runs it on behalf of the application, arrived or not: flood the
// activation, snapshot the send buffer, reduce, publish.
func (a *Allreducer) engineLoop() {
	defer a.engineWG.Done()
	for round := 0; ; round++ {
		if !a.awaitActivation(round) {
			return
		}
		err := a.flood(round)
		if err == nil {
			a.snapshot(round)
			err = a.reduce(a.roundBuf)
		}
		if err != nil {
			a.fail(err)
			return
		}
		a.publish(round)
	}
}

// awaitActivation arms the round and blocks until it is activated, or reports
// false when the engine must stop instead (fail).
func (a *Allreducer) awaitActivation(round int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for !a.stopped && !a.act.Arm(round) {
		a.wake.Wait()
	}
	return !a.stopped
}

// listen receives the peers' round-stamped activations for the lifetime of
// the communicator: one wildcard-source receive on the one activation tag.
func (a *Allreducer) listen() {
	defer a.engineWG.Done()
	for {
		//eagervet:ignore ctxcheck -- the listener lives as long as the communicator: closing it is what interrupts this receive.
		msg, _, err := a.comm.Recv(comm.AnySource, DefaultBaseTag+tagActivation)
		if err != nil {
			a.fail(err)
			return
		}
		stamp := int(msg[0])
		tensor.PutVector(msg)
		a.mu.Lock()
		if a.act.Receive(stamp) {
			a.wake.Signal()
		}
		a.mu.Unlock()
	}
}

// flood forwards the round's activation to the hypercube neighbours
// (Activation.Peers), once per round, on its first activation here. A
// neighbour marked down is skipped: its activation simply never happens.
func (a *Allreducer) flood(round int) error {
	for _, peer := range a.peers {
		msg := tensor.GetVector(1)
		msg[0] = float64(round)
		if err := a.comm.Send(peer, DefaultBaseTag+tagActivation, msg); err != nil && !errors.Is(err, comm.ErrPeerDown) {
			return err
		}
	}
	return nil
}

// snapshot runs at activation time: the engine takes whatever the send buffer
// holds — fresh, stale, or no gradients at all — as the round's contribution
// (Fig. 7), appends the "fresh contribution" flag whose sum is the round's
// number of active processes, and leaves the application an empty send buffer.
func (a *Allreducer) snapshot(round int) {
	a.mu.Lock()
	null := a.sendNull
	if !null {
		a.sendBuf, a.roundBuf = a.roundBuf, a.sendBuf
		a.sendNull = true
	} else {
		a.act.stats.NullSnapshots++
	}
	flag := 0.0
	if a.act.Fresh(round) {
		flag = 1 // this rank's application reached the collective in time
	}
	a.records[round%retainedRounds] = roundRecord{round: round, snapshotSeq: a.contribSeq, nap: -1}
	a.mu.Unlock()
	if null {
		a.roundBuf.Zero() // this rank really contributes null gradients
	}
	a.roundBuf[a.n] = flag
}

// reduce is the data phase: an in-place sum of data (gradient plus flag)
// across all ranks. The algorithm is chosen from what every rank knows alike.
// Without a peer deadline it is the synchronous allreduce of
// internal/collectives in the engine's own tag block — recursive doubling for
// small vectors, Rabenseifner and the pipelined ring above. With one it is
// reduceTolerant at every size, the only algorithm here whose survivors can
// drop a peer in the middle of a round.
func (a *Allreducer) reduce(data tensor.Vector) error {
	if a.opts.PeerDeadline > 0 {
		return a.reduceTolerant(data)
	}
	lo, _ := collectives.TagRange()
	cfg := collectives.Config{
		TagOffset: DefaultBaseTag + tagData - lo,
		// One element more per pipeline segment, for the flag: the n+1 elements
		// then segment exactly as the n-element gradient would, instead of the
		// flag costing every ring chunk of a power-of-two gradient a segment of
		// its own (and the chunk its single-segment fast path).
		SegmentElems: collectives.DefaultSegmentElems + 1,
	}
	return collectives.AllreduceWith(a.comm, data, collectives.OpSum, collectives.AlgoAuto, cfg, nil)
}

// reduceTolerant is a recursive-doubling allreduce (with the standard MPICH
// fold for non-power-of-two sizes: the first 2*rem ranks pair up so 2^k ranks
// run the doubling, and the result is handed back afterwards) in which a dead
// peer costs its subtree's contribution instead of the round: sends to it are
// dropped, receives from it are skipped, and a receive that outlasts the
// deadline declares it dead. A dead rank is permanently not participating, so
// the survivors' rounds keep completing with the surviving participant set.
//
// Every receive is numbered by its hop in the round's chain — the fold is hop
// 0 (for every rank of a world that folds, also those that skip it), the
// doubling steps follow, the fold-back is last — and recvTolerant's allowance
// grows with that number.
func (a *Allreducer) reduceTolerant(data tensor.Vector) error {
	rank, size := a.comm.Rank(), a.comm.Size()
	pof2, steps := 1, 0
	for pof2*2 <= size {
		pof2 *= 2
		steps++
	}
	rem := size - pof2
	hop := 0
	if rem > 0 {
		hop = 1
	}
	tag := DefaultBaseTag + tagTolerant
	foldTag, backTag, stepTag := tag, tag+1, tag+2

	group := rank - rem // this rank's id among the 2^k that run the doubling
	if rank < 2*rem {
		if rank%2 == 0 {
			// Folded out: hand the contribution to the odd neighbour and take
			// the final result back from it.
			if err := a.sendTolerant(rank+1, foldTag, data); err != nil {
				return err
			}
			return a.recvTolerant(rank+1, backTag, hop+steps, data, false)
		}
		if err := a.recvTolerant(rank-1, foldTag, 0, data, true); err != nil {
			return err
		}
		group = rank / 2
	}
	for d := 1; d < pof2; d *= 2 {
		peer := group ^ d
		if peer < rem {
			peer = peer*2 + 1
		} else {
			peer += rem
		}
		if err := a.sendTolerant(peer, stepTag, data); err != nil {
			return err
		}
		if err := a.recvTolerant(peer, stepTag, hop, data, true); err != nil {
			return err
		}
		stepTag++
		hop++
	}
	if rank < 2*rem {
		return a.sendTolerant(rank-1, backTag, data)
	}
	return nil
}

// sendTolerant sends a copy of data; to a peer marked down the message is
// simply lost, like any send to a crashed process.
func (a *Allreducer) sendTolerant(dest, tag int, data tensor.Vector) error {
	if err := a.comm.SendCopy(dest, tag, data, nil); err != nil && !errors.Is(err, comm.ErrPeerDown) {
		return err
	}
	return nil
}

// recvTolerant folds (sum) or copies the peer's vector into data. A peer that
// is, or during the wait becomes, marked down contributes nothing and the
// call succeeds. Once a peer is down it is never received from again: the
// tags are the same every round, so a message it sent before dying, or one
// from a live peer wrongly suspected, could otherwise be taken for a later
// round's.
//
// The deadline is two units of PeerDeadline at hop 0 and one more per hop. A
// live peer's send at hop h can legitimately be late by the allowance of an
// earlier hop, where the peer (or a rank upstream of it) waited out a dead
// one; with a flat allowance both waits expire at the same instant and the
// live peer is suspected too. Growing by a unit per hop keeps a whole
// PeerDeadline between the two, and progress here is engine-bound, so a peer
// silent that long is dead, not merely slow.
func (a *Allreducer) recvTolerant(source, tag, hop int, data tensor.Vector, sum bool) error {
	if a.comm.PeerError(source) != nil {
		return nil
	}
	deadline := a.opts.PeerDeadline * time.Duration(2+hop)
	in, _, err := a.comm.RecvTimeout(source, tag, nil, deadline)
	if err != nil {
		if errors.Is(err, comm.ErrPeerDown) {
			return nil
		}
		return err
	}
	defer tensor.PutVector(in)
	if len(in) != len(data) {
		return fmt.Errorf("partial: rank %d sent %d elements, want %d", source, len(in), len(data))
	}
	if sum {
		data.Add(in)
	} else {
		data.CopyFrom(in)
	}
	return nil
}

// SyncParams averages params in place across the ranks still alive and
// returns how many replicas it averaged: the model sync (§5) of an engine
// with a PeerDeadline, beside the engine's rounds, in its own tag block. Each
// rank sends every peer its replica plus a count slot set to 1, and sums its
// own and the live peers' in rank order under the data phase's rule for a
// dead peer: a dead rank costs only its own replica, and ranks that received
// the same replicas hold bit-identical results. Closing tokens keep a
// survivor that waited out a dead peer from reaching the next sync behind the
// others' deadline on it. Receives are numbered past a round's hops (at most
// bits.Len(size)) plus a failover and a spare: a survivor can reach the sync
// one detecting round and one failover behind another.
func (a *Allreducer) SyncParams(params tensor.Vector) (int, error) {
	n, hop := len(params), bits.Len(uint(a.comm.Size()))+2
	mine, sum := tensor.GetVector(n+1), tensor.GetVectorZero(n+1)
	defer tensor.PutVector(mine)
	defer tensor.PutVector(sum)
	copy(mine, params)
	mine[n] = 1
	tag := DefaultBaseTag + tagSync
	if err := a.exchange(tag, hop, mine, sum); err != nil {
		return 0, err
	}
	// The tokens are summed into the replica, which is spent.
	if err := a.exchange(tag+1, hop+1, mine[n:], mine[:1]); err != nil {
		return 0, err
	}
	count := int(sum[n] + 0.5)
	params.CopyFrom(sum[:n])
	params.Scale(1 / float64(count))
	return count, nil
}

// exchange sends data to every peer, then adds this rank's data and each live
// peer's, in rank order, into sum.
func (a *Allreducer) exchange(tag, hop int, data, sum tensor.Vector) error {
	rank := a.comm.Rank()
	for r := range a.comm.Size() {
		if r != rank {
			if err := a.sendTolerant(r, tag, data); err != nil {
				return err
			}
		}
	}
	for r := range a.comm.Size() {
		if r == rank {
			sum.Add(data)
		} else if err := a.recvTolerant(r, tag, hop, sum, true); err != nil {
			return err
		}
	}
	return nil
}

// publish makes the reduced round the receive buffer, records its number of
// active processes, and wakes the callers waiting for it.
func (a *Allreducer) publish(round int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roundBuf, a.lastResult = a.lastResult, a.roundBuf
	a.handed = false
	rec := &a.records[round%retainedRounds]
	rec.nap = int(a.lastResult[a.n] + 0.5)
	rec.doneSeq = a.contribSeq
	a.act.Complete(round)
	a.cond.Broadcast()
}

// fail stops the engine — the communicator closed under it, or a round hit an
// error it cannot tolerate — and wakes every waiter. A closed communicator
// closes the allreducer; any other error is reported to its callers.
func (a *Allreducer) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stopped = true
	if errors.Is(err, comm.ErrClosed) {
		a.closed = true
	} else if a.err == nil {
		a.err = err
	}
	a.cond.Broadcast()
	a.wake.Signal()
}

// LastRound returns the highest completed round, or -1 if none completed yet.
func (a *Allreducer) LastRound() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.act.done
}

// Stats returns the engine's counters as of now.
func (a *Allreducer) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.act.stats
}

// PendingStale returns the L2 norm of the gradients currently parked in the
// send buffer (stale gradients not yet contributed). Useful for diagnostics
// and tests of the Fig. 7 protocol.
func (a *Allreducer) PendingStale() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sendNull {
		return 0
	}
	return a.sendBuf[:a.n].Norm2()
}

// DrainPending atomically removes and returns the stale gradients accumulated
// in the send buffer, leaving it null. It exists for mass-conservation
// accounting (what was contributed but not yet delivered): call it with no
// Exchange in flight, so no round can snapshot concurrently.
func (a *Allreducer) DrainPending() tensor.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sendNull {
		return tensor.GetVectorZero(a.n)
	}
	a.sendNull = true
	return tensor.GetVectorCopy(a.sendBuf[:a.n])
}

// Join blocks until the engine's two goroutines have exited, then returns the
// stage of a step begun but never contributed to the pool. The goroutines
// only exit once the underlying communicator is closed (or a round failed),
// so call Join after that point (the collective World does, giving leak-free
// shutdown accounting).
func (a *Allreducer) Join() {
	a.engineWG.Wait()
	a.mu.Lock()
	tensor.PutVector(a.stageBuf)
	a.stageBuf = nil
	a.mu.Unlock()
}

// Close marks the allreducer closed. Pending and future Exchange calls return
// ErrClosed. The engine keeps serving the peers' rounds with null gradients
// until the underlying communicator is closed (closing the communicator is
// the collective shutdown point, after all ranks have stopped exchanging);
// Close itself does not block.
func (a *Allreducer) Close() {
	a.mu.Lock()
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
}
