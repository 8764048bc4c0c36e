package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// The shared-memory transport: one directed SPSC ring (ring.go) per peer
// pair, a single poller goroutine per endpoint sweeping its incoming rings,
// and adaptive parking so idle ranks burn no cores. The rings live on the
// heap of the one process that holds every rank, the poller parks on a
// channel, and the data path performs zero syscalls per frame.

// ShmHub connects size in-process endpoints through heap-backed rings. It is
// the shared-memory analogue of Hub, but endpoints have independent
// lifetimes like TCP endpoints: closing one rank's endpoint looks to its
// peers like that rank exiting (ring EOF), not a whole-world shutdown.
type ShmHub struct {
	size int
	eps  []*ShmEndpoint
}

// NewShmHub creates an in-process shared-ring hub for size ranks with the
// default per-ring capacity.
func NewShmHub(size int) *ShmHub { return NewShmHubRing(size, DefaultRingBytes) }

// NewShmHubRing creates an in-process shared-ring hub with an explicit
// per-ring data capacity (rounded up to a power of two).
func NewShmHubRing(size, ringBytes int) *ShmHub {
	if size <= 0 {
		panic(fmt.Sprintf("transport: shm hub size %d must be positive", size))
	}
	h := &ShmHub{size: size, eps: make([]*ShmEndpoint, size)}
	wakes := make([]chan struct{}, size)
	for r := range wakes {
		wakes[r] = make(chan struct{}, 1)
	}
	rings := make([][]*ringBuffer, size) // [producer][consumer]
	for p := 0; p < size; p++ {
		rings[p] = make([]*ringBuffer, size)
		for c := 0; c < size; c++ {
			if p == c {
				continue
			}
			rb := newRing(ringBytes)
			// All of a consumer's rings share its endpoint's wake channel, so
			// the poller parks in one place however many peers it has.
			rb.consWake.wake = wakes[c]
			rings[p][c] = rb
		}
	}
	for r := 0; r < size; r++ {
		in := make([]*ringBuffer, size)
		out := make([]*ringBuffer, size)
		for p := 0; p < size; p++ {
			in[p] = rings[p][r]
			out[p] = rings[r][p]
		}
		h.eps[r] = newShmEndpoint(r, in, out, wakes[r])
	}
	return h
}

// Size returns the number of ranks connected by the hub.
func (h *ShmHub) Size() int { return h.size }

// Endpoint returns the endpoint for the given rank.
func (h *ShmHub) Endpoint(rank int) *ShmEndpoint {
	if rank < 0 || rank >= h.size {
		panic(fmt.Sprintf("transport: rank %d out of range [0,%d)", rank, h.size))
	}
	return h.eps[rank]
}

// Close closes every endpoint of the hub.
func (h *ShmHub) Close() error {
	for _, ep := range h.eps {
		ep.Close()
	}
	return nil
}

// ShmEndpoint implements comm.Endpoint over per-peer SPSC rings. One poller
// goroutine sweeps the incoming rings, decoding frames straight into
// pool-leased vectors; sends reserve a span in the outgoing ring and encode
// in place. Peer failure has the same semantics as on TCPEndpoint: a peer
// closing its rings (EOF) or corrupting one fails that peer, not the
// endpoint, and is reported in band after the peer's last frame.
type ShmEndpoint struct {
	rank  int
	size  int
	in    []*ringBuffer // indexed by producing peer; nil at own rank
	out   []*ringBuffer // indexed by consuming peer; nil at own rank
	poll  waiter        // the poller's wait state
	inbox chan comm.Message
	done  chan struct{} // closed by Close; unblocks enqueues, deliveries, the poller

	mu      sync.Mutex
	closed  bool
	started bool           // poller launched (first Inbox call)
	wg      sync.WaitGroup // the poller
	senders sync.WaitGroup // in-flight deliverLocal calls; drained before closing the inbox

	readMu  sync.Mutex
	readErr error // first ring corruption observed, kept for diagnostics

	dead []bool // poller-owned: rings no longer swept (peer EOF or corrupt)
}

// newShmEndpoint wires an endpoint over its rings. wake is the channel the
// poller parks on.
func newShmEndpoint(rank int, in, out []*ringBuffer, wake chan struct{}) *ShmEndpoint {
	size := len(in)
	e := &ShmEndpoint{
		rank:  rank,
		size:  size,
		in:    in,
		out:   out,
		inbox: make(chan comm.Message, DefaultInboxDepth),
		done:  make(chan struct{}),
		dead:  make([]bool, size),
	}
	e.poll.wake = wake
	return e
}

// Rank returns this endpoint's rank.
func (e *ShmEndpoint) Rank() int { return e.rank }

// Size returns the number of ranks in the job.
func (e *ShmEndpoint) Size() int { return e.size }

// Inbox returns the stream of messages addressed to this rank: decoded
// frames, and a failure message (comm.Message.Err) after the last frame of a
// peer whose ring died. The first call starts the poller; until then nothing
// is read from the rings.
func (e *ShmEndpoint) Inbox() <-chan comm.Message {
	e.mu.Lock()
	if !e.started && !e.closed {
		e.started = true
		e.wg.Add(1)
		go e.pollLoop()
	}
	e.mu.Unlock()
	return e.inbox
}

// ReadError returns the first ring corruption observed by the poller (nil if
// none), the shared-memory analogue of TCPEndpoint.ReadError.
func (e *ShmEndpoint) ReadError() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	return e.readErr
}

// Send enqueues m into the destination's ring: a span is reserved, the frame
// encoded in place, and the commit published with one atomic store — no
// syscall anywhere. Sending to self forwards the payload to the local inbox
// without encoding. Send consumes m.Data on every path, upholding the
// Endpoint.Send ownership contract; while the destination ring is full it
// blocks (adaptive parking), the flow control the contract advertises.
func (e *ShmEndpoint) Send(dest int, m comm.Message) error {
	return e.send(dest, m, true)
}

// SendBorrowed is the comm.BorrowingSender fast path: the ring encode is
// synchronous, so the payload can be copied straight out of the caller's
// buffer — no pool snapshot — and ownership stays with the caller on every
// path. Sending to self still snapshots (the local inbox hand-off retains
// the slice).
func (e *ShmEndpoint) SendBorrowed(dest int, m comm.Message) error {
	return e.send(dest, m, false)
}

// SendFill is the comm.FillSender in-place path: the outgoing frame's payload
// span is reserved in the ring and fill computes it there, fusing the
// caller's combine pass with the encode. handled=false (self-sends, frames
// past the single-record budget) tells the caller to fall back to a staged
// send; nothing was reserved.
func (e *ShmEndpoint) SendFill(dest, tag int, a, b tensor.Vector, fill func(dst, a, b tensor.Vector)) (bool, error) {
	if dest < 0 || dest >= e.size || dest == e.rank {
		return false, nil
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return true, ErrClosed
	}
	ok, err := e.out[dest].enqueueFill(e.rank, tag, a, b, fill, e.done)
	if !ok {
		return false, nil
	}
	if err != nil && errors.Is(err, ErrRingClosed) {
		return true, ringClosedErr(dest, err)
	}
	return true, err
}

// ringClosedErr types a send that found dest's ring closed by its consumer:
// dest closed its endpoint or was declared dead. The sender can learn this
// from the ring before its own poller has drained dest's ring and reported
// the exit, so the error itself carries comm.ErrPeerDown and nothing is
// marked down early for receivers.
func ringClosedErr(dest int, err error) error {
	return &comm.PeerDownError{Rank: dest, Cause: fmt.Errorf("transport: ring to rank %d: %w", dest, err)}
}

func (e *ShmEndpoint) send(dest int, m comm.Message, owned bool) error {
	if dest < 0 || dest >= e.size {
		if owned {
			tensor.PutVector(m.Data)
		}
		return fmt.Errorf("transport: destination %d out of range [0,%d)", dest, e.size)
	}
	if dest == e.rank {
		if !owned {
			m.Data = tensor.GetVectorCopy(m.Data)
		}
		return e.deliverLocal(m)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		if owned {
			tensor.PutVector(m.Data)
		}
		return ErrClosed
	}
	e.mu.Unlock()
	if err := e.out[dest].enqueue(m, e.done, owned); err != nil {
		if errors.Is(err, ErrRingClosed) {
			return ringClosedErr(dest, err)
		}
		return err
	}
	return nil
}

// deliverLocal forwards m (ownership included) to the local inbox, releasing
// the payload if the endpoint is closing.
func (e *ShmEndpoint) deliverLocal(m comm.Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		tensor.PutVector(m.Data)
		return ErrClosed
	}
	// Registering under the lock while closed is still false guarantees Close
	// cannot start draining senders before this delivery is visible to it.
	e.senders.Add(1)
	e.mu.Unlock()
	defer e.senders.Done()
	select {
	case e.inbox <- m:
		return nil
	case <-e.done:
		tensor.PutVector(m.Data)
		return ErrClosed
	}
}

// Close tears down the endpoint: outgoing rings are marked producer-closed
// (peers observe EOF after draining), the poller is woken and joined, any
// half-reassembled frames are released, peers blocked enqueueing toward this
// rank are aborted, and the inbox is closed once in-flight local deliveries
// have drained. Safe to call more than once.
func (e *ShmEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	e.mu.Unlock()

	for _, r := range e.out {
		if r != nil {
			r.closeProducer()
		}
	}
	e.wg.Wait() // the poller exits via done; after this the consumer state is ours
	for _, r := range e.in {
		if r != nil {
			r.releasePending()
			r.abortProducer()
			r.retireAliases()
		}
	}
	e.senders.Wait()
	close(e.inbox)
	return nil
}

// pollLoop is the endpoint's single consumer: it sweeps the incoming rings
// round-robin (one record per ring per sweep, so a firehose peer cannot
// starve the others), decoding complete frames into the inbox. When every
// ring is empty it waits the way every ring end does (waiter.wait): the
// parked flag is raised on each ring, the rings are re-checked (the
// lost-wakeup guard), and only then does it block on the wake channel until a
// producer commits. It exits when Close fires done.
func (e *ShmEndpoint) pollLoop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		default:
		}
		progress := false
		for peer := 0; peer < e.size; peer++ {
			r := e.in[peer]
			if r == nil || e.dead[peer] {
				continue
			}
			m, res, err := r.tryDequeue()
			switch {
			case err != nil:
				e.dead[peer] = true
				r.releasePending()
				if !e.handleRingFailure(peer, err) {
					return
				}
			case res == ringMsg:
				progress = true
				if !e.deliver(m) {
					return
				}
			case res == ringMore:
				progress = true
			case res == ringDead:
				e.dead[peer] = true
				if !e.handleRingFailure(peer, fmt.Errorf("transport: rank %d closed its ring (process exited?): %w", peer, io.EOF)) {
					return
				}
			}
		}
		if progress {
			e.poll.progressed()
		} else if !e.poll.wait(e.setParked, e.pending, e.done) {
			return
		}
	}
}

// setParked raises (1) or lowers (0) the poller's parked flag on every live
// incoming ring.
func (e *ShmEndpoint) setParked(v uint32) {
	for peer, r := range e.in {
		if r != nil && !e.dead[peer] {
			r.consParked.Store(v)
		}
	}
}

// pending is the poller's side of the lost-wakeup guard: a producer reads the
// parked flag only after its commit is published, so either it sees the flag
// and signals, or this re-check sees the commit. The consumer's own cursor is
// compared, not the shared head — head lags consPos while aliased spans are
// out, and a fully-read ring must still park.
func (e *ShmEndpoint) pending() bool {
	for peer, r := range e.in {
		if r != nil && !e.dead[peer] && (r.consPos != r.tail.Load() || r.prodClosed.Load() != 0) {
			return true
		}
	}
	return false
}

// WaitStats reports how this endpoint's waiters — the poller and the
// producer ends of its outgoing rings — have spent their idle time. Each
// waiter publishes its counts when it parks, so the hot path never touches
// shared memory for them: the snapshot is as of each waiter's latest park,
// which for the poller means exact once traffic stops.
func (e *ShmEndpoint) WaitStats() WaitStats {
	s := e.poll.snapshot()
	for _, r := range e.out {
		if r != nil {
			s.add(r.prodWake.snapshot())
		}
	}
	return s
}

// deliver forwards a decoded message (ownership included) to the inbox.
// Returns false when the endpoint is closing, releasing the payload.
func (e *ShmEndpoint) deliver(m comm.Message) bool {
	select {
	case e.inbox <- m:
		return true
	case <-e.done:
		tensor.PutVector(m.Data)
		return false
	}
}

// handleRingFailure reacts to an incoming ring dying: the producing peer is
// unreachable (closed its ring — EOF — or corrupted it). Corruption is
// recorded for ReadError diagnostics, our outgoing ring toward the peer is
// aborted (failing pending sends, like closing a TCP connection), and the
// failure is delivered in band, behind every frame the peer's ring yielded.
// Returns false when the endpoint is closing.
func (e *ShmEndpoint) handleRingFailure(peer int, cause error) bool {
	if !errors.Is(cause, io.EOF) {
		e.readMu.Lock()
		if e.readErr == nil {
			e.readErr = cause
		}
		e.readMu.Unlock()
	}
	e.out[peer].abortProducer()
	return e.deliver(comm.Message{Source: peer, Err: cause})
}

// NewShmWorld builds an in-process shared-ring hub for size ranks and returns
// one ready-to-use Communicator per rank. Unlike NewInprocWorld, each
// communicator owns its endpoint's lifetime (closing one looks like that rank
// exiting, as with TCP); close all of them.
func NewShmWorld(size int) []*comm.Communicator {
	hub := NewShmHub(size)
	world := make([]*comm.Communicator, size)
	for r := 0; r < size; r++ {
		world[r] = comm.NewCommunicator(hub.Endpoint(r))
	}
	return world
}
