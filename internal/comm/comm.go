// Package comm provides the message-passing substrate the collectives are
// built on: ranks, communicators, and tag-matched point-to-point messaging.
//
// The design mirrors the small subset of MPI semantics the paper relies on.
// A Communicator wraps a transport Endpoint (see internal/transport for the
// in-process, shared-ring and TCP implementations) and adds MPI-style message
// matching: receives name a (source, tag) pair — either may be a wildcard —
// and messages that arrive before a matching receive is posted are held in an
// unexpected queue, preserving per-(source, tag) FIFO order.
//
// Inbound traffic has one path: transport → Endpoint.Inbox → the
// communicator's demux goroutine → the unexpected queue, where receivers
// match it. A peer failure the transport observes travels the same path, as
// a Message carrying Err, so it is acted on only after every frame that peer
// delivered before it died.
//
// # Buffer ownership
//
// The layer follows an explicit ownership model (DESIGN.md, "Buffer ownership
// & pooling") so the steady-state hot path never touches the allocator:
//
//   - Send takes ownership of the payload: the caller must not read or write
//     the vector after the call.
//   - SendCopy and SendFrom borrow their operands: the caller keeps
//     ownership and may reuse the buffer as soon as the call returns.
//   - Recv and RecvTimeout hand back a leased buffer: the receiver owns it and
//     should release it with tensor.PutVector once the payload has been
//     consumed. Forgetting to release only costs a garbage collection;
//     releasing twice, or while a reference is still live, corrupts another
//     lease.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eagersgd/internal/tensor"
)

// Wildcards accepted by the receive calls.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// ErrClosed is returned by operations on a communicator whose transport has
// been shut down.
var ErrClosed = errors.New("comm: communicator closed")

// ErrCanceled is returned by RecvTimeout and SendCopy when the cancel channel
// fires before the message is matched or accepted by the transport.
var ErrCanceled = errors.New("comm: canceled")

// ErrPeerDown is the sentinel every peer-failure error matches
// (errors.Is(err, ErrPeerDown)). A peer is marked down by the transport (a
// failure message in the inbox: a TCP connection or a shared ring died), by
// a deadline expiring on a blocked receive (RecvTimeout), or explicitly via
// MarkPeerDown. Down status is sticky: once marked, every receive naming that
// peer fails fast and every send to it is refused, so no operation can block
// indefinitely on a rank that will never answer.
var ErrPeerDown = errors.New("comm: peer down")

// ErrPeerDeadline is the cause recorded when a peer is marked down because a
// blocked receive waited past its deadline. It wraps nothing; use
// errors.Is(err, ErrPeerDeadline) to distinguish suspicion-by-timeout from a
// transport-reported failure.
var ErrPeerDeadline = errors.New("comm: peer deadline exceeded")

// PeerDownError reports that an operation could not complete because the
// named peer is marked down. It matches ErrPeerDown via errors.Is and unwraps
// to the recorded cause (a transport read error, ErrPeerDeadline, or whatever
// MarkPeerDown was given), so callers can surface why the peer was declared
// dead — e.g. a TCPEndpoint.ReadError — instead of a bare timeout.
type PeerDownError struct {
	Rank  int
	Cause error
}

// Error formats the failure with its cause.
func (e *PeerDownError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("comm: peer %d down: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("comm: peer %d down", e.Rank)
}

// Is matches the ErrPeerDown sentinel.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// Unwrap exposes the recorded cause.
func (e *PeerDownError) Unwrap() error { return e.Cause }

// BorrowingSender is an optional Endpoint fast path used by SendCopy:
// SendBorrowed delivers a message whose payload the transport only borrows
// for the duration of the call. The transport must finish reading m.Data
// before returning and must neither retain nor release it — ownership stays
// with the caller on every path, success and error alike. Only transports
// that consume payloads synchronously may implement it (the shared-ring
// transport encodes in place); transports that hand the slice onward
// (in-process channels) must not. The TCP writer also finishes with the
// payload before it returns, so TCP could borrow, but it stays on the
// snapshot path: borrowing there saved process CPU without moving any
// end-to-end step rate beyond run-to-run noise (ROADMAP.md, item 7).
type BorrowingSender interface {
	SendBorrowed(dest int, m Message) error
}

// FillSender is an optional Endpoint fast path used by SendFrom: the
// transport reserves the outgoing frame's payload span in its own memory (a
// shared-ring span) and invokes fill exactly once to produce the payload
// there — dst is the reserved span, a and b are the caller's operands, and
// len(dst) == len(a). The caller's combine pass and the encode copy collapse
// into one write. fill may also write a (the allgather hop mirrors the
// incoming chunk into the result buffer in the same pass); a and b stay
// caller-owned throughout. SendFill returns handled=false — with nothing
// reserved and fill not called — when this destination or payload cannot
// take the in-place path, and the caller falls back to a staged send.
type FillSender interface {
	SendFill(dest, tag int, a, b tensor.Vector, fill func(dst, a, b tensor.Vector)) (handled bool, err error)
}

// Message is the unit of communication: a payload of float64 values labelled
// with the sending rank and a user tag. The Data vector is owned by whoever
// currently holds the message (sender until Send, transport in flight,
// receiver after Recv); it is typically a pool lease.
//
// A message with a non-nil Err carries no data: it is the transport reporting
// that Source failed (its connection or ring died), delivered through Inbox
// after every frame Source delivered. The communicator marks Source down when
// it reaches one, so a peer's last frames always land before its death.
type Message struct {
	Source int
	Tag    int
	Data   tensor.Vector
	Err    error
}

// Endpoint is the contract a transport must satisfy to back a Communicator.
// Implementations live in internal/transport.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the job.
	Size() int
	// Send delivers m to the destination rank. It may block for flow control
	// but must not require the destination to have posted a receive. Send
	// takes ownership of m.Data unconditionally (also on error): the
	// transport either forwards the vector unchanged to the destination's
	// inbox (in-process delivery), consumes it into the wire encoding and
	// releases it back to the vector pool (TCP), or releases it on its error
	// paths.
	Send(dest int, m Message) error
	// Inbox returns the stream of messages addressed to this rank, the only
	// path inbound traffic takes. The channel is closed when the endpoint is
	// closed. Each delivered message transfers ownership of its Data vector to
	// the receiver. A transport that observes a peer fail (EOF, a decode or
	// ring error) reports it in band, as a message whose Err is the cause,
	// after the last frame it delivered from that peer; the endpoint itself
	// stays open for the other peers.
	Inbox() <-chan Message
	// Close shuts the endpoint down and releases its resources.
	Close() error
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Communicator provides tagged point-to-point communication among a fixed
// group of ranks. It is safe for concurrent use by multiple goroutines.
type Communicator struct {
	ep Endpoint

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message // unexpected-message queue, arrival order
	closed  bool      // set by demux once the inbox has closed
	demuxWG sync.WaitGroup

	// sends counts in-flight cancelable SendCopy goroutines, each of which
	// owns the pool lease of its payload; Close joins them so no lease is
	// released after it returns. noSends (under mu) refuses new ones once
	// Close has begun, so sends.Add never races sends.Wait.
	sends   sync.WaitGroup
	noSends bool

	down      []error          // per-rank down cause; nil = peer believed up
	downHooks []func(rank int) // observers notified (outside mu) on each marking
}

// NewCommunicator wraps a transport endpoint. The communicator starts a demux
// goroutine that drains the endpoint's inbox; Close (or closing the endpoint)
// stops it.
func NewCommunicator(ep Endpoint) *Communicator {
	c := &Communicator{ep: ep, down: make([]error, ep.Size())}
	c.cond = sync.NewCond(&c.mu)
	c.demuxWG.Add(1)
	go c.demux()
	return c
}

// demux is the one inbound path: it moves every frame from the inbox to the
// unexpected queue and wakes the receivers, and turns an in-band failure
// (Message.Err) into MarkPeerDown. Frames and failures share the inbox's
// FIFO, so a peer's failure is never seen before a frame it sent earlier.
func (c *Communicator) demux() {
	defer c.demuxWG.Done()
	for m := range c.ep.Inbox() {
		if m.Err != nil {
			c.MarkPeerDown(m.Source, m.Err)
			continue
		}
		c.mu.Lock()
		c.queue = append(c.queue, m)
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Rank returns this communicator's rank.
func (c *Communicator) Rank() int { return c.ep.Rank() }

// Size returns the number of ranks in the communicator.
func (c *Communicator) Size() int { return c.ep.Size() }

// Close shuts down the underlying endpoint and wakes any blocked receivers
// with ErrClosed. Unexpected messages still queued are released back to the
// vector pool — after Close no receive can claim them, and dropping the queue
// without releasing would leak their leases. Close also joins the sends that
// a canceled SendCopy abandoned in the background: closing the endpoint
// unblocks them, and each releases its payload's lease before Close returns.
func (c *Communicator) Close() error {
	c.mu.Lock()
	c.noSends = true
	c.mu.Unlock()
	err := c.ep.Close()
	c.demuxWG.Wait()
	c.sends.Wait()
	c.mu.Lock()
	for _, m := range c.queue {
		tensor.PutVector(m.Data)
	}
	c.queue = nil
	c.mu.Unlock()
	return err
}

func (c *Communicator) checkPeer(rank int) error {
	if rank < 0 || rank >= c.Size() {
		return fmt.Errorf("comm: peer rank %d out of range [0,%d)", rank, c.Size())
	}
	return nil
}

// MarkPeerDown records that the given rank is unreachable, with an optional
// cause. The marking is sticky and idempotent (the first cause wins). Blocked
// receives naming the rank wake up with a PeerDownError; subsequent sends to
// it are refused. Registered OnPeerDown observers are invoked (outside the
// communicator lock) on the first marking.
func (c *Communicator) MarkPeerDown(rank int, cause error) {
	if rank < 0 || rank >= c.Size() || rank == c.Rank() {
		return
	}
	if cause == nil {
		cause = errors.New("marked down")
	}
	c.mu.Lock()
	if c.down[rank] != nil {
		c.mu.Unlock()
		return
	}
	c.down[rank] = cause
	hooks := append([]func(int){}, c.downHooks...)
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, fn := range hooks {
		fn(rank)
	}
}

// PeerError returns the cause the rank was marked down with (nil if up).
func (c *Communicator) PeerError(rank int) error {
	if rank < 0 || rank >= c.Size() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[rank]
}

// OnPeerDown registers an observer invoked once per peer when that peer is
// marked down. Peers already down at registration time are replayed
// immediately, so no failure is lost to registration order. Observers run
// outside the communicator lock and may call back into the communicator, but
// they run on whichever goroutine did the marking — for a transport-reported
// failure that is the demux goroutine, the one that delivers every frame — so
// an observer must not wait on a receive.
func (c *Communicator) OnPeerDown(fn func(rank int)) {
	c.mu.Lock()
	c.downHooks = append(c.downHooks, fn)
	var already []int
	for r, cause := range c.down {
		if cause != nil {
			already = append(already, r)
		}
	}
	c.mu.Unlock()
	for _, r := range already {
		fn(r)
	}
}

// peerDownErrLocked builds the typed error for a down peer. Caller holds c.mu.
func (c *Communicator) peerDownErrLocked(rank int) error {
	return &PeerDownError{Rank: rank, Cause: c.down[rank]}
}

// checkPeerUp returns a PeerDownError when dest is marked down.
func (c *Communicator) checkPeerUp(dest int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[dest] != nil {
		return c.peerDownErrLocked(dest)
	}
	return nil
}

// Send delivers data to dest with the given tag, transferring ownership of
// the payload: the caller must not read or write data after the call (on the
// in-process transport the receiver gets the very same backing array; the TCP
// transport consumes it into the wire frame and releases it to the pool).
// Callers that still need the buffer use SendCopy.
//
// Ownership transfers even when Send fails: the payload is released to the
// pool on every error path, so callers never clean up after a send.
func (c *Communicator) Send(dest, tag int, data tensor.Vector) error {
	if err := c.checkPeer(dest); err != nil {
		tensor.PutVector(data)
		return err
	}
	if err := c.checkPeerUp(dest); err != nil {
		tensor.PutVector(data)
		return err
	}
	err := c.ep.Send(dest, Message{Source: c.Rank(), Tag: tag, Data: data})
	if err != nil && !errors.Is(err, ErrPeerDown) {
		// The transport may fail a send because the peer's connection died
		// while the frame was in flight (the read loop marks the peer down and
		// tears the connection). Report that as the typed peer failure rather
		// than a bare I/O error so callers see one error surface.
		if downErr := c.checkPeerUp(dest); downErr != nil {
			return downErr
		}
	}
	return err
}

// SendCopy behaves like Send but borrows data: the caller keeps ownership
// and may reuse the buffer as soon as the call returns. This is the right call
// when the payload aliases a live working buffer (a caller-owned gradient, a
// collective's accumulation buffer).
//
// With a nil cancel the send runs inline. On a transport that implements
// BorrowingSender the transport encodes the caller's buffer in place before
// returning — one whole payload copy saved per send on the shared-ring hot
// path, and no allocation; elsewhere data is snapshotted into a pool lease
// that Send consumes.
//
// With a non-nil cancel the snapshot is handed to the transport on a
// goroutine that Close joins, and the call gives up with ErrCanceled when
// cancel fires before the transport accepts it: a transport send can block
// indefinitely on a stalled peer (e.g. TCP backpressure from a frozen
// process). A canceled call abandons the send to complete in the background;
// the communicator is then mid-protocol and the only safe follow-up is
// closing it. Once Close has begun, a cancelable send is refused with
// ErrClosed. An uncanceled call returns only once the transport accepted the
// payload, so a caller's sends never overlap and per-(source, tag) FIFO order
// is preserved.
//
// No receive deadline covers a stalled send: only cancel (or Close) ends one.
func (c *Communicator) SendCopy(dest, tag int, data tensor.Vector, cancel <-chan struct{}) error {
	if cancel != nil {
		return c.sendCancelable(dest, tag, data, cancel)
	}
	bs, ok := c.ep.(BorrowingSender)
	if !ok {
		// Send performs the peer validation and releases the copy on every
		// error path, so one snapshot and one delegation suffice.
		return c.Send(dest, tag, tensor.GetVectorCopy(data))
	}
	if err := c.checkPeer(dest); err != nil {
		return err
	}
	if err := c.checkPeerUp(dest); err != nil {
		return err
	}
	err := bs.SendBorrowed(dest, Message{Source: c.Rank(), Tag: tag, Data: data})
	if err != nil && !errors.Is(err, ErrPeerDown) {
		// Mirror Send: a transport failure caused by the peer dying mid-send
		// surfaces as the typed peer failure.
		if downErr := c.checkPeerUp(dest); downErr != nil {
			return downErr
		}
	}
	return err
}

// sendCancelable is SendCopy's path for a non-nil cancel channel.
func (c *Communicator) sendCancelable(dest, tag int, data tensor.Vector, cancel <-chan struct{}) error {
	c.mu.Lock()
	if c.noSends {
		c.mu.Unlock()
		return ErrClosed
	}
	c.sends.Add(1)
	c.mu.Unlock()
	lease := tensor.GetVectorCopy(data)
	done := make(chan error, 1)
	go func() {
		defer c.sends.Done()
		done <- c.Send(dest, tag, lease)
	}()
	select {
	case err := <-done:
		return err
	case <-cancel:
		return ErrCanceled
	}
}

// SendFrom sends a len(a)-element frame whose payload is produced by
// fill(dst, a, b) — dst[i] computed from the operands — directly into
// transport memory when the transport supports it (FillSender), eliding the
// staging buffer entirely on the shared-ring hot path. Elsewhere the payload
// is staged through a pool lease: exactly one combine pass and at most one
// copy on every transport, never more than the Apply-then-SendCopy sequence
// it replaces. fill is invoked exactly once; a and b remain caller-owned.
func (c *Communicator) SendFrom(dest, tag int, a, b tensor.Vector, fill func(dst, a, b tensor.Vector)) error {
	if fs, ok := c.ep.(FillSender); ok {
		if err := c.checkPeer(dest); err != nil {
			return err
		}
		if err := c.checkPeerUp(dest); err != nil {
			return err
		}
		handled, err := fs.SendFill(dest, tag, a, b, fill)
		if handled {
			if err != nil && !errors.Is(err, ErrPeerDown) {
				// Mirror Send: a transport failure caused by the peer dying
				// mid-send surfaces as the typed peer failure.
				if downErr := c.checkPeerUp(dest); downErr != nil {
					return downErr
				}
			}
			return err
		}
	}
	tmp := tensor.GetVector(len(a))
	fill(tmp, a, b)
	return c.Send(dest, tag, tmp)
}

// matchLocked scans the unexpected queue for the first message matching
// (source, tag) and removes it. Caller must hold c.mu.
func (c *Communicator) matchLocked(source, tag int) (Message, bool) {
	for i, m := range c.queue {
		if (source == AnySource || m.Source == source) && (tag == AnyTag || m.Tag == tag) {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

// Recv blocks until a message matching (source, tag) arrives and returns its
// payload and status. source may be AnySource and tag may be AnyTag. The
// returned vector is a pool lease owned by the caller; release it with
// tensor.PutVector once consumed.
func (c *Communicator) Recv(source, tag int) (tensor.Vector, Status, error) {
	return c.RecvTimeout(source, tag, nil, 0)
}

// RecvTimeout is the fully general blocking receive: it matches (source, tag)
// like Recv, aborts with ErrCanceled when cancel fires, and — when deadline is
// positive and source names a specific rank — gives up after waiting that
// long, marking the peer down (cause ErrPeerDeadline) and returning a
// PeerDownError. A receive naming a peer already marked down fails fast with
// a PeerDownError, though an already-queued matching message is still
// delivered first (the payload made it before the peer died).
//
// The deadline is a failure-detector knob, not a latency bound: it should be
// chosen far above any legitimate skew, because a peer it fires on is treated
// as permanently failed by this communicator.
func (c *Communicator) RecvTimeout(source, tag int, cancel <-chan struct{}, deadline time.Duration) (tensor.Vector, Status, error) {
	if source != AnySource {
		if err := c.checkPeer(source); err != nil {
			return nil, Status{}, err
		}
	} else {
		deadline = 0 // a wildcard receive names no peer to suspect
	}
	// Watcher goroutines convert channel close / timer expiry into
	// condition-variable wakeups so the wait loop below can observe them.
	var stop chan struct{}
	if cancel != nil {
		stop = make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			case <-stop:
			}
		}()
	}
	var start time.Time
	var timer *time.Timer
	if deadline > 0 {
		start = time.Now()
		timer = time.AfterFunc(deadline, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer timer.Stop()
	}

	c.mu.Lock()
	for {
		if m, ok := c.matchLocked(source, tag); ok {
			c.mu.Unlock()
			return m.Data, Status{Source: m.Source, Tag: m.Tag, Count: len(m.Data)}, nil
		}
		if source != AnySource && c.down[source] != nil {
			err := c.peerDownErrLocked(source)
			c.mu.Unlock()
			return nil, Status{}, err
		}
		if cancel != nil {
			select {
			case <-cancel:
				c.mu.Unlock()
				return nil, Status{}, ErrCanceled
			default:
			}
		}
		if c.closed {
			c.mu.Unlock()
			return nil, Status{}, ErrClosed
		}
		if deadline > 0 && time.Since(start) >= deadline {
			c.mu.Unlock()
			c.MarkPeerDown(source, fmt.Errorf("%w: no message within %v", ErrPeerDeadline, deadline))
			return nil, Status{}, &PeerDownError{Rank: source, Cause: c.PeerError(source)}
		}
		c.cond.Wait()
	}
}

// DiscardTagRange removes every queued unexpected message whose tag t
// satisfies lo <= t < hi and returns the number removed. An abandoned
// (canceled) bucketed step uses it to purge the stray payloads of its tag
// blocks, returning their leases to the pool without touching other
// namespaces.
func (c *Communicator) DiscardTagRange(lo, hi int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.queue[:0]
	removed := 0
	for _, m := range c.queue {
		if m.Tag >= lo && m.Tag < hi {
			removed++
			tensor.PutVector(m.Data) // the queue was the last owner
			continue
		}
		kept = append(kept, m)
	}
	c.queue = kept
	return removed
}

// Pending returns the number of unexpected messages currently queued. It is
// intended for tests and diagnostics.
func (c *Communicator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
