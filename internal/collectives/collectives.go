// Package collectives implements the synchronous collective operations the
// paper uses as its baseline (§3, §7): allreduce with three classic
// algorithms (recursive doubling, ring, and Rabenseifner's reduce-scatter +
// allgather) and barrier.
//
// All operations are SPMD: every rank of the communicator must call the same
// sequence of collectives with compatible arguments. A collective call does
// not return on any rank before every rank has entered it (that is the
// synchronization the paper's partial collectives relax).
//
// Every operation takes a Config (the zero value is the default) and a cancel
// channel (typically a context's Done channel; nil never fires) that aborts
// blocked receives with comm.ErrCanceled instead of hanging when a peer never
// joins. A canceled collective leaves the communicator mid-protocol; the only
// safe follow-up is closing it.
package collectives

import (
	"errors"
	"fmt"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// ErrRankUnreachable is wrapped by every collective error caused by a peer
// that is dead or unreachable (a crashed process, a partitioned link, a
// connection whose read loop died). The synchronous collectives cannot
// complete without every rank, so instead of blocking forever they surface
// this typed error as soon as the comm layer marks a peer down — either
// because the transport reported the failure or because a Config.PeerDeadline
// expired. Use errors.Is(err, ErrRankUnreachable); the underlying
// comm.PeerDownError (with the rank and root cause) remains in the chain.
var ErrRankUnreachable = errors.New("collectives: rank unreachable")

// wrapUnreachable converts a comm-layer peer failure into the package's typed
// error surface, preserving the cause chain.
func wrapUnreachable(err error) error {
	if err != nil && errors.Is(err, comm.ErrPeerDown) {
		return fmt.Errorf("%w: %w", ErrRankUnreachable, err)
	}
	return err
}

// tagBase is the private tag namespace of this package. All collective
// traffic uses tags in [tagBase, tagBase+tagSpan) so it cannot collide with
// the partial-collective engine or application point-to-point messages.
const (
	tagBase = 1 << 20
	tagSpan = 1 << 10

	tagRecursiveDoubling = tagBase + 0
	tagRingReduce        = tagBase + 64
	tagRingGather        = tagBase + 128
	tagBarrier           = tagBase + 320
	tagFold              = tagBase + 448
	tagScatterReduce     = tagBase + 512
	tagAllgatherRab      = tagBase + 576
)

// ReduceOp identifies the element-wise combination applied by AllreduceWith.
// Sum is the only one: every gradient exchange and model average is a sum.
type ReduceOp int

// OpSum is the element-wise sum, through tensor.Vector.Add and tensor.AddInto.
const OpSum ReduceOp = 0

// Algorithm selects the allreduce implementation.
type Algorithm int

// Available allreduce algorithms.
const (
	// AlgoAuto picks recursive doubling at up to 4Ki elements or below four
	// ranks, Rabenseifner's algorithm below 32Ki elements, and the pipelined
	// ring from 32Ki up, mirroring production MPI libraries.
	AlgoAuto Algorithm = iota
	AlgoRecursiveDoubling
	AlgoRing
	AlgoRabenseifner
)

// autoThreshold is the element count above which AlgoAuto switches from the
// latency-optimal recursive doubling to the bandwidth-optimal Rabenseifner
// algorithm.
const autoThreshold = 4096

// autoRingThreshold is the element count at which AlgoAuto switches from
// Rabenseifner to the pipelined ring: at large sizes the ring's perfectly
// uniform segment stream keeps the pipeline (and the wire) busiest.
const autoRingThreshold = 32768

// DefaultSegmentElems is the default pipeline segment size: payload ranges
// larger than this are split into segments so that one segment's reduction
// overlaps the next segment's receive and the previous segment's send. 16Ki
// float64s (128 KiB) is large enough to amortize per-message overhead and
// small enough to overlap meaningfully at the sizes that matter (>= 512 KiB).
const DefaultSegmentElems = 16 * 1024

// pipelineWindow is how many segments a rank keeps in flight toward a peer
// before its first receive completes: double-buffering. Each in-flight
// segment occupies one pool lease, so the window bounds the steady-state
// working set while keeping the wire busy during reduction.
const pipelineWindow = 2

// Config carries the tunables of the algorithm implementations. The zero
// value selects the defaults. Like the algorithm, the configuration is SPMD
// state: every rank of a collective must use the same values (segmentation
// determines the message stream each peer expects, and the tag offset
// determines which stream a message belongs to).
type Config struct {
	// SegmentElems is the pipeline segment size in elements. Zero selects
	// DefaultSegmentElems; a negative value disables segmentation (one
	// message per hop, the pre-pipelining behaviour).
	SegmentElems int
	// TagOffset shifts every tag the collective uses by a fixed amount,
	// placing the whole operation in a private tag block, so allreduces
	// running concurrently over one communicator never collide (the partial
	// engine's data phase runs in its own block this way). Zero is the
	// default block, TagRange.
	TagOffset int
	// PeerDeadline bounds how long a collective receive may block on one
	// peer: past the deadline the peer is marked down on the communicator and
	// the collective returns an error wrapping ErrRankUnreachable instead of
	// hanging on a rank that died. The deadline is a failure detector, not a
	// latency bound — choose it far above legitimate skew, because a peer it
	// fires on is treated as permanently failed by the communicator. Zero
	// (the default) disables it; receives from peers already marked down
	// still fail fast.
	PeerDeadline time.Duration
}

// env builds the per-operation environment. The per-receive deadline carries
// a hop allowance of the communicator size: detection latency accumulates
// once per serial hop (a ring has size-1 of them; a live peer's send at hop k
// can be delayed by its own deadline waits at earlier hops), and without the
// slack the detection of one dead rank would cascade into falsely suspecting
// live ones. Every collective in this package must build its env here so the
// formula stays in one place.
func (cfg Config) env(c *comm.Communicator, cancel <-chan struct{}) env {
	return env{c: c, cancel: cancel, seg: cfg.segmentElems(), off: cfg.TagOffset,
		deadline: cfg.PeerDeadline * time.Duration(c.Size())}
}

func (cfg Config) segmentElems() int {
	switch {
	case cfg.SegmentElems > 0:
		return cfg.SegmentElems
	case cfg.SegmentElems < 0:
		return int(^uint(0) >> 1) // effectively unsegmented
	default:
		return DefaultSegmentElems
	}
}

// TagRange returns the [lo, hi) tag interval of the default tag block
// (Config.TagOffset zero): every collective of this package that runs without
// an offset, the Sync reducer's bucket allreduces included, uses tags inside
// it. A canceled bucketed step purges stray payloads over it with
// comm.DiscardTagRange, and packages with a private block derive their
// TagOffset from lo.
func TagRange() (lo, hi int) {
	return tagBase, tagBase + tagSpan
}

// env bundles the communicator with the cancel channel and the resolved
// segment size so the algorithm implementations stay free of cancellation and
// configuration plumbing at every call site.
//
// Buffer discipline (DESIGN.md, "Buffer ownership & pooling"): every vector
// returned by recv or sendRecv is a pool lease; the algorithms reduce or copy
// it into the caller-owned data buffer in place and release it immediately
// with release. Outgoing payloads always borrow the caller's buffer
// (comm.SendCopy), because data is owned by the application for the whole
// collective.
type env struct {
	c        *comm.Communicator
	cancel   <-chan struct{}
	seg      int
	off      int           // tag offset of this collective's tag block (Config.TagOffset)
	deadline time.Duration // per-peer failure-detector deadline (Config.PeerDeadline)
}

// tag places a package tag constant into this collective's tag block.
func (e env) tag(t int) int { return t + e.off }

func (e env) recv(source, tag int) (tensor.Vector, comm.Status, error) {
	v, st, err := e.c.RecvTimeout(source, tag, e.cancel, e.deadline)
	return v, st, wrapUnreachable(err)
}

// sendRecv is the step of the symmetric exchanges (recursive doubling, the
// barrier): send to dest, then receive from source. Sending first cannot
// deadlock: every communicator's demux goroutine drains its endpoint inbox
// continuously, so a transport send only blocks transiently for flow control,
// never on the peer entering the collective.
func (e env) sendRecv(dest, sendTag int, data tensor.Vector, source, recvTag int) (tensor.Vector, comm.Status, error) {
	if err := e.sendCopy(dest, sendTag, data); err != nil {
		return nil, comm.Status{}, err
	}
	return e.recv(source, recvTag)
}

// sendCopy borrows data and sends it, honoring the cancel channel (a stalled
// peer cannot block a cancelable collective) and surfacing a dead destination
// as ErrRankUnreachable.
func (e env) sendCopy(dest, tag int, data tensor.Vector) error {
	return wrapUnreachable(e.c.SendCopy(dest, tag, data, e.cancel))
}

func (e env) release(v tensor.Vector) { tensor.PutVector(v) }

// sendFrom sends a frame produced in place by fill(dst, a, b) (comm.SendFrom:
// straight into the ring span on a fill-capable transport, staged through one
// pool lease elsewhere), surfacing a dead destination as ErrRankUnreachable.
func (e env) sendFrom(dest, tag int, a, b tensor.Vector, fill func(dst, a, b tensor.Vector)) error {
	return wrapUnreachable(e.c.SendFrom(dest, tag, a, b, fill))
}

// exchangeSegmented performs one pipelined exchange: it streams send to dest
// in segments of at most e.seg elements while receiving the peer's same-tag
// stream from source into recvInto — summing each incoming segment into place
// when reduce is true, copying it otherwise. Segment k's reduction overlaps
// segment k+1's receive and the next outgoing segment's send; at most
// pipelineWindow outgoing segments are in flight ahead of the receive stream,
// double-buffered through the vector pool. With a nil cancel channel the
// steady state allocates nothing; a cancelable call pays one snapshot and one
// goroutine per outgoing segment — the price of staying responsive to
// cancellation on a stalled peer.
//
// Both sides must segment identically (same e.seg — an SPMD configuration),
// because the receiver walks recvInto by the lengths of the segments the
// sender produced. All segments of one exchange share one tag: the comm layer
// guarantees per-(source, tag) FIFO order, so offsets advance in send order.
//
// When both directions fit in a single segment the exchange degenerates to
// the classic combined sendRecv. Cancellation is honored at every receive and
// every send, so a frozen peer whose socket stops draining cannot wedge a
// cancel-aware collective.
func (e env) exchangeSegmented(dest, source, tag int, send, recvInto tensor.Vector, reduce bool) error {
	if len(send) <= e.seg && len(recvInto) <= e.seg {
		incoming, _, err := e.sendRecv(dest, tag, send, source, tag)
		if err != nil {
			return err
		}
		if reduce {
			recvInto.Add(incoming)
		} else {
			recvInto.CopyFrom(incoming)
		}
		e.release(incoming)
		return nil
	}
	sendOff := 0
	for i := 0; i < pipelineWindow && sendOff < len(send); i++ {
		hi := min(sendOff+e.seg, len(send))
		if err := e.sendCopy(dest, tag, send[sendOff:hi]); err != nil {
			return err
		}
		sendOff = hi
	}
	recvOff := 0
	for recvOff < len(recvInto) {
		incoming, _, err := e.recv(source, tag)
		if err != nil {
			return err
		}
		// Refill the window before reducing, so the wire carries the next
		// segment while this one is folded in.
		if sendOff < len(send) {
			hi := min(sendOff+e.seg, len(send))
			if err := e.sendCopy(dest, tag, send[sendOff:hi]); err != nil {
				e.release(incoming)
				return err
			}
			sendOff = hi
		}
		if recvOff+len(incoming) > len(recvInto) {
			e.release(incoming)
			return fmt.Errorf("collectives: segmented exchange from rank %d overflows receive range (%d + %d > %d); mismatched segment configuration?",
				source, recvOff, len(incoming), len(recvInto))
		}
		if reduce {
			recvInto[recvOff : recvOff+len(incoming)].Add(incoming)
		} else {
			recvInto[recvOff : recvOff+len(incoming)].CopyFrom(incoming)
		}
		recvOff += len(incoming)
		e.release(incoming)
	}
	for sendOff < len(send) {
		hi := min(sendOff+e.seg, len(send))
		if err := e.sendCopy(dest, tag, send[sendOff:hi]); err != nil {
			return err
		}
		sendOff = hi
	}
	return nil
}

// AllreduceWith sums data element-wise across all ranks and leaves the
// identical result in data on every rank; op must be OpSum. The operation is
// synchronous: it cannot complete before the slowest rank joins. Every rank
// must pass the same algo and cfg (SPMD); cfg carries the pipeline segment
// size, tag block and peer deadline, and closing cancel aborts blocked
// receives with comm.ErrCanceled.
func AllreduceWith(c *comm.Communicator, data tensor.Vector, op ReduceOp, algo Algorithm, cfg Config, cancel <-chan struct{}) error {
	if op != OpSum {
		return fmt.Errorf("collectives: unknown reduce op %d", int(op))
	}
	if algo == AlgoAuto {
		algo = autoAlgorithm(len(data), c.Size())
	}
	e := cfg.env(c, cancel)
	switch algo {
	case AlgoRecursiveDoubling:
		return allreduceRecursiveDoubling(e, data)
	case AlgoRing:
		return allreduceRing(e, data)
	case AlgoRabenseifner:
		return allreduceRabenseifner(e, data)
	default:
		return fmt.Errorf("collectives: unknown algorithm %d", int(algo))
	}
}

// autoAlgorithm is AlgoAuto's pick for n elements over size ranks. Both
// inputs are SPMD arguments, so every rank picks the same algorithm.
func autoAlgorithm(n, size int) Algorithm {
	switch {
	case n <= autoThreshold || size < 4:
		return AlgoRecursiveDoubling
	case n >= autoRingThreshold:
		return AlgoRing
	default:
		return AlgoRabenseifner
	}
}

// allreduceRecursiveDoubling implements the O(log P) latency algorithm with
// the standard fold for non-power-of-two process counts.
func allreduceRecursiveDoubling(e env, data tensor.Vector) error {
	c := e.c
	rank, size := c.Rank(), c.Size()
	if size == 1 {
		return nil
	}
	pof2 := largestPowerOfTwo(size)
	rem := size - pof2

	inDoubling := true
	doublingRank := rank
	switch {
	case rank < 2*rem && rank%2 == 0:
		// sendCopy: data is still needed to receive the final result below.
		if err := e.sendCopy(rank+1, e.tag(tagFold), data); err != nil {
			return err
		}
		inDoubling = false
	case rank < 2*rem && rank%2 == 1:
		incoming, _, err := e.recv(rank-1, e.tag(tagFold))
		if err != nil {
			return err
		}
		data.Add(incoming)
		e.release(incoming)
		doublingRank = rank / 2
	default:
		doublingRank = rank - rem
	}

	if inDoubling {
		step := 0
		for d := 1; d < pof2; d *= 2 {
			peer := doublingToRank(doublingRank^d, rem)
			incoming, _, err := e.sendRecv(peer, e.tag(tagRecursiveDoubling+step), data, peer, e.tag(tagRecursiveDoubling+step))
			if err != nil {
				return err
			}
			data.Add(incoming)
			e.release(incoming)
			step++
		}
	}

	// Post phase: odd folded ranks return the result to their even partners.
	switch {
	case rank < 2*rem && rank%2 == 1:
		return e.sendCopy(rank-1, e.tag(tagFold+1), data)
	case rank < 2*rem && rank%2 == 0:
		result, _, err := e.recv(rank+1, e.tag(tagFold+1))
		if err != nil {
			return err
		}
		data.CopyFrom(result)
		e.release(result)
	}
	return nil
}

// allreduceRing implements the bandwidth-optimal ring allreduce
// (reduce-scatter around the ring followed by allgather around the ring).
// Chunk boundaries are computed with ChunkBounds instead of materializing a
// []Vector of chunk headers, keeping the steady-state round allocation-free.
// Each per-step chunk exchange is pipelined: chunks larger than the segment
// size stream in segments, so reducing segment k overlaps receiving segment
// k+1 and sending the next outgoing segment (see exchangeSegmented).
func allreduceRing(e env, data tensor.Vector) error {
	rank, size := e.c.Rank(), e.c.Size()
	if size == 1 {
		return nil
	}
	n := len(data)
	if e.cancel == nil && n >= size {
		if lo, hi := tensor.ChunkBounds(n, size, 0); hi-lo <= e.seg {
			return allreduceRingFused(e, data)
		}
	}
	next := (rank + 1) % size
	prev := (rank - 1 + size) % size

	// Reduce-scatter: after size-1 steps, chunk (rank+1) mod size holds the
	// full reduction on this rank.
	for step := 0; step < size-1; step++ {
		sendIdx := (rank - step + size) % size
		recvIdx := (rank - step - 1 + size) % size
		sendLo, sendHi := tensor.ChunkBounds(n, size, sendIdx)
		recvLo, recvHi := tensor.ChunkBounds(n, size, recvIdx)
		if err := e.exchangeSegmented(next, prev, e.tag(tagRingReduce+step), data[sendLo:sendHi], data[recvLo:recvHi], true); err != nil {
			return err
		}
	}

	// Allgather: circulate the fully reduced chunks.
	for step := 0; step < size-1; step++ {
		sendIdx := (rank - step + 1 + size) % size
		recvIdx := (rank - step + size) % size
		sendLo, sendHi := tensor.ChunkBounds(n, size, sendIdx)
		recvLo, recvHi := tensor.ChunkBounds(n, size, recvIdx)
		if err := e.exchangeSegmented(next, prev, e.tag(tagRingGather+step), data[sendLo:sendHi], data[recvLo:recvHi], false); err != nil {
			return err
		}
	}
	return nil
}

// allreduceRingFused is allreduceRing with the per-hop staging copies fused
// into the transport encode. In the reduce-scatter, each forwarded partial
// sum is computed by the three-address tensor.AddInto directly inside the
// outgoing frame (comm.SendFrom — the reserved ring span on the shared-ring
// transport, one pool stage elsewhere) instead of accumulating in data and
// copying out afterwards; the local accumulation is skipped entirely for
// chunks whose partials this rank only relays. In the allgather, each
// forwarded chunk is written into the result buffer and the outgoing frame by
// one call (Copy2).
// The wire stream — tags, chunk order, payload values — is identical to
// allreduceRing's single-segment path, so fused and unfused ranks
// interoperate, and the sum order matches tensor.Vector.Add bit for bit.
//
// Chosen only for cancel-free calls whose chunks fit one segment; the
// cancelable and multi-segment regimes keep exchangeSegmented's cancelable
// sends and pipelining.
func allreduceRingFused(e env, data tensor.Vector) error {
	rank, size := e.c.Rank(), e.c.Size()
	n := len(data)
	next := (rank + 1) % size
	prev := (rank - 1 + size) % size

	// Reduce-scatter: each hop forwards local-chunk + incoming straight into
	// the ring; only the last incoming chunk — the one this rank owns fully
	// reduced — is folded into data.
	sendLo, sendHi := tensor.ChunkBounds(n, size, rank)
	if err := e.sendCopy(next, e.tag(tagRingReduce), data[sendLo:sendHi]); err != nil {
		return err
	}
	for step := 0; step < size-1; step++ {
		idx := (rank - step - 1 + size) % size
		lo, hi := tensor.ChunkBounds(n, size, idx)
		incoming, _, err := e.recv(prev, e.tag(tagRingReduce+step))
		if err != nil {
			return err
		}
		if len(incoming) != hi-lo {
			e.release(incoming)
			return fmt.Errorf("collectives: ring chunk %d from rank %d carries %d elements, want %d; mismatched segment configuration?",
				idx, prev, len(incoming), hi-lo)
		}
		if step < size-2 {
			err = e.sendFrom(next, e.tag(tagRingReduce+step+1), data[lo:hi], incoming, tensor.AddInto)
		} else {
			data[lo:hi].Add(incoming)
		}
		e.release(incoming)
		if err != nil {
			return err
		}
	}

	// Allgather: circulate the fully reduced chunks, mirroring each forwarded
	// one into the result buffer and the outgoing frame in a single pass.
	sendLo, sendHi = tensor.ChunkBounds(n, size, next)
	if err := e.sendCopy(next, e.tag(tagRingGather), data[sendLo:sendHi]); err != nil {
		return err
	}
	for step := 0; step < size-1; step++ {
		idx := (rank - step + size) % size
		lo, hi := tensor.ChunkBounds(n, size, idx)
		incoming, _, err := e.recv(prev, e.tag(tagRingGather+step))
		if err != nil {
			return err
		}
		if len(incoming) != hi-lo {
			e.release(incoming)
			return fmt.Errorf("collectives: ring chunk %d from rank %d carries %d elements, want %d; mismatched segment configuration?",
				idx, prev, len(incoming), hi-lo)
		}
		if step < size-2 {
			err = e.sendFrom(next, e.tag(tagRingGather+step+1), data[lo:hi], incoming, tensor.Copy2)
		} else {
			data[lo:hi].CopyFrom(incoming)
		}
		e.release(incoming)
		if err != nil {
			return err
		}
	}
	return nil
}

// allreduceRabenseifner implements Rabenseifner's algorithm: a recursive
// halving reduce-scatter followed by a recursive doubling allgather. For
// non-power-of-two sizes it first folds the extra ranks as in recursive
// doubling.
func allreduceRabenseifner(e env, data tensor.Vector) error {
	c := e.c
	rank, size := c.Rank(), c.Size()
	if size == 1 {
		return nil
	}
	pof2 := largestPowerOfTwo(size)
	rem := size - pof2

	inGroup := true
	groupRank := rank
	switch {
	case rank < 2*rem && rank%2 == 0:
		// sendCopy: data is still needed to receive the final result below.
		if err := e.sendCopy(rank+1, e.tag(tagFold+2), data); err != nil {
			return err
		}
		inGroup = false
	case rank < 2*rem && rank%2 == 1:
		incoming, _, err := e.recv(rank-1, e.tag(tagFold+2))
		if err != nil {
			return err
		}
		data.Add(incoming)
		e.release(incoming)
		groupRank = rank / 2
	default:
		groupRank = rank - rem
	}

	if inGroup {
		// Recursive halving reduce-scatter. Track the [lo, hi) element range
		// this rank is responsible for. Each exchange is pipelined: the halves
		// stream in segments so reduction overlaps the wire (exchangeSegmented).
		lo, hi := 0, len(data)
		step := 0
		for d := pof2 / 2; d >= 1; d /= 2 {
			peerGroup := groupRank ^ d
			peer := doublingToRank(peerGroup, rem)
			mid := lo + (hi-lo)/2
			var sendLo, sendHi, keepLo, keepHi int
			if groupRank&d == 0 {
				// Keep the lower half, send the upper half.
				sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
			} else {
				sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
			}
			if err := e.exchangeSegmented(peer, peer, e.tag(tagScatterReduce+step), data[sendLo:sendHi], data[keepLo:keepHi], true); err != nil {
				return err
			}
			lo, hi = keepLo, keepHi
			step++
		}

		// Recursive doubling allgather reverses the halving. The two partners
		// at distance d own adjacent ranges (whose sizes may differ by the
		// floor/ceil split); the peer's exact range is recomputed with
		// rabOwnedRange so the incoming segment stream has a known destination
		// before the first segment arrives.
		agStep := 0
		for d := 1; d < pof2; d *= 2 {
			peerGroup := groupRank ^ d
			peer := doublingToRank(peerGroup, rem)
			peerLo, peerHi := rabOwnedRange(len(data), pof2, peerGroup, d)
			if err := e.exchangeSegmented(peer, peer, e.tag(tagAllgatherRab+agStep), data[lo:hi], data[peerLo:peerHi], false); err != nil {
				return err
			}
			if peerLo < lo {
				lo = peerLo
			}
			if peerHi > hi {
				hi = peerHi
			}
			agStep++
		}
	}

	// Post phase for folded-out ranks.
	switch {
	case rank < 2*rem && rank%2 == 1:
		return e.sendCopy(rank-1, e.tag(tagFold+3), data)
	case rank < 2*rem && rank%2 == 0:
		result, _, err := e.recv(rank+1, e.tag(tagFold+3))
		if err != nil {
			return err
		}
		data.CopyFrom(result)
		e.release(result)
	}
	return nil
}

// BarrierWith blocks until every rank has entered it, using a dissemination
// barrier (log2(size) rounds of token exchange). With Config.PeerDeadline
// set, a barrier blocked on a dead rank aborts with ErrRankUnreachable
// instead of hanging.
func BarrierWith(c *comm.Communicator, cfg Config, cancel <-chan struct{}) error {
	e := cfg.env(c, cancel)
	rank, size := c.Rank(), c.Size()
	if size == 1 {
		return nil
	}
	token := tensor.GetVectorZero(1)
	defer tensor.PutVector(token)
	// Dissemination barrier: log2(size) rounds.
	step := 0
	for d := 1; d < size; d *= 2 {
		to := (rank + d) % size
		from := (rank - d + size) % size
		in, _, err := e.sendRecv(to, e.tag(tagBarrier+step), token, from, e.tag(tagBarrier+step))
		if err != nil {
			return err
		}
		e.release(in)
		step++
	}
	return nil
}

// largestPowerOfTwo returns the largest power of two less than or equal to n.
func largestPowerOfTwo(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// rabOwnedRange returns the [lo, hi) element range a group rank owns after
// the recursive-halving splits at distances pof2/2 down to minD: at each
// distance d the range splits at its floor midpoint, the rank with bit d
// clear keeping the lower half. During the allgather, the range a rank owns
// before the merge at distance d is exactly rabOwnedRange(n, pof2, r, d).
func rabOwnedRange(n, pof2, groupRank, minD int) (int, int) {
	lo, hi := 0, n
	for d := pof2 / 2; d >= minD; d /= 2 {
		mid := lo + (hi-lo)/2
		if groupRank&d == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// doublingToRank maps a rank id within the folded power-of-two group back to
// the original communicator rank (inverse of the fold used for
// non-power-of-two sizes).
func doublingToRank(groupRank, rem int) int {
	if groupRank < rem {
		return groupRank*2 + 1
	}
	return groupRank + rem
}
