// Package collectives implements the synchronous collective operations the
// paper uses as its baseline (§3, §7): allreduce with three classic
// algorithms (recursive doubling, ring, and Rabenseifner's reduce-scatter +
// allgather), broadcast, reduce, allgather, and barrier.
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
	tagBroadcast         = tagBase + 192
	tagReduce            = tagBase + 256
	tagBarrier           = tagBase + 320
	tagAllgather         = tagBase + 384
	tagFold              = tagBase + 448
	tagScatterReduce     = tagBase + 512
	tagAllgatherRab      = tagBase + 576
	tagRingBcast         = tagBase + 640
	tagBcastDirect       = tagBase + 704
)

// bcastWorld reports whether this rank can reach every peer of the world with
// one comm.SendBroadcastCopy of up to maxBytes — the gate for replacing a
// relay or tree protocol with direct publication over the transport's
// broadcast segment. An endpoint with the capability reaches the whole world
// (a segment hub connects all its ranks), so the gate is the budget alone,
// and the decision is SPMD-consistent without agreement traffic: the budget
// is a hub-wide constant and maxBytes derives from the collective's SPMD
// arguments. Ranks whose endpoints hide the capability (fault-injection
// wrappers, plain-endpoint worlds) see a zero budget and keep the classic
// path — wrapping only some ranks of one world would break the consistency
// and is not supported.
func bcastWorld(c *comm.Communicator, maxBytes int) bool {
	budget := c.BroadcastBudget()
	return budget > 0 && maxBytes <= budget
}

// ReduceOp identifies the element-wise combination applied by reductions.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Apply combines incoming into local element-wise according to the operator.
// All three operators route through the tuned kernel layer in internal/tensor
// (unrolled loops, parallel above tensor.ParallelThreshold).
func (op ReduceOp) Apply(local, incoming tensor.Vector) {
	switch op {
	case OpSum:
		tensor.AddVec(local, incoming)
	case OpMax:
		tensor.MaxVec(local, incoming)
	case OpMin:
		tensor.MinVec(local, incoming)
	default:
		panic(fmt.Sprintf("collectives: unknown reduce op %d", int(op)))
	}
}

// String returns the operator name.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Algorithm selects the allreduce implementation.
type Algorithm int

// Available allreduce algorithms.
const (
	// AlgoAuto picks recursive doubling for small vectors and Rabenseifner's
	// algorithm for large ones, mirroring production MPI libraries.
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
// value selects the defaults. Like the algorithm and the operator, the
// configuration is SPMD state: every rank of a collective must use the same
// values (segmentation determines the message stream each peer expects, and
// the tag offset determines which stream a message belongs to).
type Config struct {
	// SegmentElems is the pipeline segment size in elements. Zero selects
	// DefaultSegmentElems; a negative value disables segmentation (one
	// message per hop, the pre-pipelining behaviour).
	SegmentElems int
	// TagOffset shifts every tag the collective uses by a fixed amount,
	// placing the whole operation in a private tag block. Concurrent
	// allreduces over one communicator — the bucket streams of an overlapped
	// gradient exchange — each use a distinct offset (BucketStreamTagOffset)
	// so their message streams never collide. Zero is the default block,
	// shared with the non-bucketed collectives.
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

// MaxBucketStreams is the number of disjoint tag blocks available for
// concurrent bucket streams. The blocks occupy
// [tagBase, tagBase + MaxBucketStreams*tagSpan), which stays far below the
// partial-collective namespace at 2^24.
const MaxBucketStreams = 64

// BucketStreamTagOffset returns the Config.TagOffset of bucket stream i.
// Stream 0 is the default tag block (offset 0), shared with non-bucketed
// collectives; callers that interleave bucketed and plain collectives on one
// communicator must issue them in the same order on every rank (per-(source,
// tag) FIFO then keeps the streams matched).
func BucketStreamTagOffset(i int) int {
	if i < 0 || i >= MaxBucketStreams {
		panic(fmt.Sprintf("collectives: bucket stream %d out of range [0,%d)", i, MaxBucketStreams))
	}
	return i * tagSpan
}

// BucketStreamTagRange returns the [lo, hi) tag interval covering every
// bucket-stream block, for comm.DiscardTagRange hygiene after an abandoned
// (canceled) bucketed step.
func BucketStreamTagRange() (lo, hi int) {
	return tagBase, tagBase + MaxBucketStreams*tagSpan
}

// env bundles the communicator with the cancel channel and the resolved
// segment size so the algorithm implementations stay free of cancellation and
// configuration plumbing at every call site.
//
// Buffer discipline (DESIGN.md, "Buffer ownership & pooling"): every vector
// returned by recv or sendRecv is a pool lease; the algorithms reduce or copy
// it into the caller-owned data buffer in place and release it immediately
// with release. Outgoing payloads always borrow the caller's buffer (sendCopy
// / sendRecv snapshot into a pooled buffer internally), because data is owned
// by the application for the whole collective.
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

func (e env) sendRecv(dest, sendTag int, data tensor.Vector, source, recvTag int) (tensor.Vector, comm.Status, error) {
	v, st, err := e.c.SendRecvTimeout(dest, sendTag, data, source, recvTag, e.cancel, e.deadline)
	return v, st, wrapUnreachable(err)
}

// sendCopy borrows data and sends it, surfacing a dead destination as
// ErrRankUnreachable.
func (e env) sendCopy(dest, tag int, data tensor.Vector) error {
	return wrapUnreachable(e.c.SendCopy(dest, tag, data))
}

func (e env) release(v tensor.Vector) { comm.Release(v) }

// sendFrom sends a frame produced in place by fill(dst, a, b) (comm.SendFrom:
// straight into the ring span on a fill-capable transport, staged through one
// pool lease elsewhere), surfacing a dead destination as ErrRankUnreachable.
func (e env) sendFrom(dest, tag int, a, b tensor.Vector, fill func(dst, a, b tensor.Vector)) error {
	return wrapUnreachable(e.c.SendFrom(dest, tag, a, b, fill))
}

// exchangeSegmented performs one pipelined exchange: it streams send to dest
// in segments of at most e.seg elements while receiving the peer's same-tag
// stream from source into recvInto — reducing each incoming segment with op
// when reduce is true, copying it otherwise. Segment k's reduction overlaps
// segment k+1's receive and the next outgoing segment's send; at most
// pipelineWindow outgoing segments are in flight ahead of the receive stream,
// double-buffered through the vector pool. With a nil cancel channel the
// steady state allocates nothing; a cancelable call pays one overlapped send
// (goroutine + request) per outgoing segment — the price of staying
// responsive to cancellation on a stalled peer, and the same mechanism the
// pre-pipelining code paid once per chunk exchange.
//
// Both sides must segment identically (same e.seg — an SPMD configuration),
// because the receiver walks recvInto by the lengths of the segments the
// sender produced. All segments of one exchange share one tag: the comm layer
// guarantees per-(source, tag) FIFO order, so offsets advance in send order.
//
// When both directions fit in a single segment the exchange degenerates to
// the classic combined sendRecv, which also keeps the cancel-overlapped send
// of SendRecvTimeout for small payloads. On the multi-segment path,
// cancellation is honored at every receive and — through sendSeg's
// SendCopyCancel — at every send, so a frozen peer whose socket stops
// draining cannot wedge a cancel-aware collective.
func (e env) exchangeSegmented(dest, source, tag int, send, recvInto tensor.Vector, op ReduceOp, reduce bool) error {
	if len(send) <= e.seg && len(recvInto) <= e.seg {
		incoming, _, err := e.sendRecv(dest, tag, send, source, tag)
		if err != nil {
			return err
		}
		if reduce {
			op.Apply(recvInto, incoming)
		} else {
			recvInto.CopyFrom(incoming)
		}
		e.release(incoming)
		return nil
	}
	sendOff := 0
	for i := 0; i < pipelineWindow && sendOff < len(send); i++ {
		hi := min(sendOff+e.seg, len(send))
		if err := e.sendSeg(dest, tag, send[sendOff:hi]); err != nil {
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
			if err := e.sendSeg(dest, tag, send[sendOff:hi]); err != nil {
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
			op.Apply(recvInto[recvOff:recvOff+len(incoming)], incoming)
		} else {
			recvInto[recvOff : recvOff+len(incoming)].CopyFrom(incoming)
		}
		recvOff += len(incoming)
		e.release(incoming)
	}
	for sendOff < len(send) {
		hi := min(sendOff+e.seg, len(send))
		if err := e.sendSeg(dest, tag, send[sendOff:hi]); err != nil {
			return err
		}
		sendOff = hi
	}
	return nil
}

// sendSeg sends one outgoing segment. Without a cancel channel the send runs
// inline and allocation-free; with one it is cancel-overlapped (SendCopyCancel)
// so a stalled peer cannot block a cancelable collective indefinitely.
func (e env) sendSeg(dest, tag int, seg tensor.Vector) error {
	if e.cancel == nil {
		return wrapUnreachable(e.c.SendCopy(dest, tag, seg))
	}
	return wrapUnreachable(e.c.SendCopyCancel(dest, tag, seg, e.cancel))
}

// AllreduceWith reduces data element-wise across all ranks with op and leaves
// the identical result in data on every rank. The operation is synchronous:
// it cannot complete before the slowest rank joins. Every rank must pass the
// same op, algo, and cfg (SPMD); cfg carries the pipeline segment size, tag
// block and peer deadline, and closing cancel aborts blocked receives with
// comm.ErrCanceled.
func AllreduceWith(c *comm.Communicator, data tensor.Vector, op ReduceOp, algo Algorithm, cfg Config, cancel <-chan struct{}) error {
	e := cfg.env(c, cancel)
	switch algo {
	case AlgoRecursiveDoubling:
		return allreduceRecursiveDoubling(e, data, op)
	case AlgoRing:
		return allreduceRing(e, data, op)
	case AlgoRabenseifner:
		return allreduceRabenseifner(e, data, op)
	case AlgoAuto:
		switch {
		case len(data) <= autoThreshold || c.Size() < 4:
			return allreduceRecursiveDoubling(e, data, op)
		case len(data) >= autoRingThreshold:
			return allreduceRing(e, data, op)
		default:
			return allreduceRabenseifner(e, data, op)
		}
	default:
		return fmt.Errorf("collectives: unknown algorithm %d", int(algo))
	}
}

// allreduceRecursiveDoubling implements the O(log P) latency algorithm with
// the standard fold for non-power-of-two process counts.
func allreduceRecursiveDoubling(e env, data tensor.Vector, op ReduceOp) error {
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
		op.Apply(data, incoming)
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
			op.Apply(data, incoming)
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
func allreduceRing(e env, data tensor.Vector, op ReduceOp) error {
	rank, size := e.c.Rank(), e.c.Size()
	if size == 1 {
		return nil
	}
	n := len(data)
	if e.cancel == nil && n >= size {
		if lo, hi := tensor.ChunkBounds(n, size, 0); hi-lo <= e.seg {
			return allreduceRingFused(e, data, op)
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
		if err := e.exchangeSegmented(next, prev, e.tag(tagRingReduce+step), data[sendLo:sendHi], data[recvLo:recvHi], op, true); err != nil {
			return err
		}
	}

	// Allgather: circulate the fully reduced chunks.
	for step := 0; step < size-1; step++ {
		sendIdx := (rank - step + 1 + size) % size
		recvIdx := (rank - step + size) % size
		sendLo, sendHi := tensor.ChunkBounds(n, size, sendIdx)
		recvLo, recvHi := tensor.ChunkBounds(n, size, recvIdx)
		if err := e.exchangeSegmented(next, prev, e.tag(tagRingGather+step), data[sendLo:sendHi], data[recvLo:recvHi], op, false); err != nil {
			return err
		}
	}
	return nil
}

// intoFill returns the three-address kernel matching op, as a static
// function value (no closure, no allocation) for the fill-send path.
func (op ReduceOp) intoFill() func(dst, a, b tensor.Vector) {
	switch op {
	case OpSum:
		return tensor.AddInto
	case OpMax:
		return tensor.MaxInto
	case OpMin:
		return tensor.MinInto
	default:
		panic(fmt.Sprintf("collectives: unknown reduce op %d", int(op)))
	}
}

// allreduceRingFused is allreduceRing with the per-hop staging copies fused
// into the transport encode. In the reduce-scatter, each forwarded partial
// sum is computed by op's three-address kernel directly inside the outgoing
// frame (comm.SendFrom — the reserved ring span on the shared-ring transport,
// one pool stage elsewhere) instead of accumulating in data and copying out
// afterwards; the local accumulation is skipped entirely for chunks whose
// partials this rank only relays. In the allgather, each forwarded chunk is
// written into the result buffer and the outgoing frame in one pass (Copy2).
// The wire stream — tags, chunk order, payload values — is identical to
// allreduceRing's single-segment path, so fused and unfused ranks
// interoperate, and the sum order matches Apply bit for bit.
//
// Chosen only for cancel-free calls whose chunks fit one segment; the
// cancelable and multi-segment regimes keep exchangeSegmented's overlapped
// sends and pipelining.
func allreduceRingFused(e env, data tensor.Vector, op ReduceOp) error {
	rank, size := e.c.Rank(), e.c.Size()
	n := len(data)
	next := (rank + 1) % size
	prev := (rank - 1 + size) % size
	fill := op.intoFill()

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
			err = e.sendFrom(next, e.tag(tagRingReduce+step+1), data[lo:hi], incoming, fill)
		} else {
			op.Apply(data[lo:hi], incoming)
		}
		e.release(incoming)
		if err != nil {
			return err
		}
	}

	// Allgather: every rank now owns one fully reduced chunk, and every other
	// rank needs exactly that chunk — a one-to-many pattern. Over a broadcast
	// segment covering the world, each rank publishes its chunk once and
	// copies the peers' chunks straight out of their segments: one encode and
	// P-1 zero-copy reads replace the P-1 serial relay hops (and their
	// re-encodes) of the ring walk below.
	maxChunk := 0
	for i := 0; i < size; i++ {
		if lo, hi := tensor.ChunkBounds(n, size, i); hi-lo > maxChunk {
			maxChunk = hi - lo
		}
	}
	if bcastWorld(e.c, 8*maxChunk) {
		return allgatherOwnedBcast(e, data)
	}

	// Ring walk: circulate the fully reduced chunks, mirroring each forwarded
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

// allgatherOwnedBcast completes a ring allreduce's allgather over the
// transport's broadcast segments: each rank publishes the chunk it owns
// fully reduced after the reduce-scatter — chunk (rank+1) mod size — exactly
// once, then copies every peer's owned chunk into place as the publications
// arrive. The values written are the same fully reduced chunks the ring walk
// relays, so the result is bit-identical; only the transport pattern differs,
// which is why the whole world must take the same path (bcastWorld). The
// receive loop walks peers in ring-upstream order, matching the order the
// relay walk would have delivered the chunks.
func allgatherOwnedBcast(e env, data tensor.Vector) error {
	rank, size := e.c.Rank(), e.c.Size()
	n := len(data)
	lo, hi := tensor.ChunkBounds(n, size, (rank+1)%size)
	if err := wrapUnreachable(e.c.SendBroadcastCopy(e.tag(tagRingBcast), data[lo:hi])); err != nil {
		return err
	}
	for step := 1; step < size; step++ {
		p := (rank - step + size) % size
		idx := (p + 1) % size
		lo, hi := tensor.ChunkBounds(n, size, idx)
		incoming, _, err := e.recv(p, e.tag(tagRingBcast))
		if err != nil {
			return err
		}
		if len(incoming) != hi-lo {
			e.release(incoming)
			return fmt.Errorf("collectives: broadcast chunk %d from rank %d carries %d elements, want %d",
				idx, p, len(incoming), hi-lo)
		}
		data[lo:hi].CopyFrom(incoming)
		e.release(incoming)
	}
	return nil
}

// allreduceRabenseifner implements Rabenseifner's algorithm: a recursive
// halving reduce-scatter followed by a recursive doubling allgather. For
// non-power-of-two sizes it first folds the extra ranks as in recursive
// doubling.
func allreduceRabenseifner(e env, data tensor.Vector, op ReduceOp) error {
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
		op.Apply(data, incoming)
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
			if err := e.exchangeSegmented(peer, peer, e.tag(tagScatterReduce+step), data[sendLo:sendHi], data[keepLo:keepHi], op, true); err != nil {
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
			if err := e.exchangeSegmented(peer, peer, e.tag(tagAllgatherRab+agStep), data[lo:hi], data[peerLo:peerHi], op, false); err != nil {
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

// BroadcastWith copies data from the root rank to every other rank using a
// binomial tree. All ranks must pass a buffer of the same length. With
// Config.PeerDeadline set, a broadcast blocked on a dead parent aborts with
// ErrRankUnreachable instead of hanging.
func BroadcastWith(c *comm.Communicator, root int, data tensor.Vector, cfg Config, cancel <-chan struct{}) error {
	e := cfg.env(c, cancel)
	rank, size := c.Rank(), c.Size()
	if size == 1 {
		return nil
	}
	if root < 0 || root >= size {
		return fmt.Errorf("collectives: broadcast root %d out of range", root)
	}

	// Direct path: the root publishes once into its broadcast segment and
	// every rank reads it from there — one hop instead of a log-depth tree,
	// zero-copy above the transport's alias floor. A distinct tag keeps this
	// stream apart from the tree's relayed sends, so a communicator whose
	// broadcasts alternate between the two regimes (the payload budget gates
	// per call) never interleaves them on one (source, tag) stream.
	if bcastWorld(c, 8*len(data)) {
		if rank == root {
			return wrapUnreachable(c.SendBroadcastCopy(e.tag(tagBcastDirect), data))
		}
		incoming, _, err := e.recv(root, e.tag(tagBcastDirect))
		if err != nil {
			return err
		}
		if len(incoming) != len(data) {
			e.release(incoming)
			return fmt.Errorf("collectives: broadcast from root %d carries %d elements, want %d",
				root, len(incoming), len(data))
		}
		data.CopyFrom(incoming)
		e.release(incoming)
		return nil
	}
	rel := (rank - root + size) % size

	// Receive from parent (unless root).
	if rel != 0 {
		mask := 1
		for mask < size {
			if rel&mask != 0 {
				parent := (rel - mask + root) % size
				incoming, _, err := e.recv(parent, e.tag(tagBroadcast))
				if err != nil {
					return err
				}
				data.CopyFrom(incoming)
				e.release(incoming)
				break
			}
			mask *= 2
		}
	}
	// Forward to children. SendCopy: data is the caller's buffer and the same
	// payload goes to every child.
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			break
		}
		childRel := rel + mask
		if childRel < size {
			child := (childRel + root) % size
			if err := e.sendCopy(child, e.tag(tagBroadcast), data); err != nil {
				return err
			}
		}
		mask *= 2
	}
	return nil
}

// ReduceWith combines data from all ranks onto the root with op; other ranks'
// buffers are left unchanged. It is implemented as an allreduce followed by
// discarding on non-roots, which is wasteful but simple; it is only used for
// small metric vectors in this repository.
func ReduceWith(c *comm.Communicator, root int, data tensor.Vector, op ReduceOp, cfg Config, cancel <-chan struct{}) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("collectives: reduce root %d out of range", root)
	}
	scratch := tensor.GetVectorCopy(data)
	defer tensor.PutVector(scratch)
	if err := AllreduceWith(c, scratch, op, AlgoRecursiveDoubling, cfg, cancel); err != nil {
		return err
	}
	if c.Rank() == root {
		data.CopyFrom(scratch)
	}
	return nil
}

// AllgatherWith concatenates each rank's contribution (all of identical
// length) into a vector of length size*len(contrib), ordered by rank, on
// every rank.
func AllgatherWith(c *comm.Communicator, contrib tensor.Vector, cfg Config, cancel <-chan struct{}) (tensor.Vector, error) {
	e := cfg.env(c, cancel)
	size := c.Size()
	rank := c.Rank()
	n := len(contrib)
	out := tensor.NewVector(size * n)
	out[rank*n : (rank+1)*n].CopyFrom(contrib)
	if size == 1 {
		return out, nil
	}
	// Ring allgather: size-1 steps, passing blocks around.
	next := (rank + 1) % size
	prev := (rank - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sendIdx := (rank - step + size) % size
		recvIdx := (rank - step - 1 + size) % size
		incoming, _, err := e.sendRecv(next, e.tag(tagAllgather+step), out[sendIdx*n:(sendIdx+1)*n], prev, e.tag(tagAllgather+step))
		if err != nil {
			return nil, err
		}
		out[recvIdx*n : (recvIdx+1)*n].CopyFrom(incoming)
		e.release(incoming)
	}
	return out, nil
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
