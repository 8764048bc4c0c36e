// Package simnet is the deterministic simulation transport: a third backend
// next to inproc/TCP/shm that runs real communicators, collectives, and
// training loops over a discrete-event network with a virtual clock — no
// sockets, no wall-clock sleeps, thousands of ranks in one process.
//
// Two layers share the package:
//
//   - The Hub/Endpoint layer below implements comm.Endpoint over an event
//     heap: every send is assigned a virtual delivery time from the link's
//     seeded latency model, a dispatcher drains the heap in virtual-time
//     order, and per-rank virtual clocks advance from deliveries and from
//     explicit AdvanceCompute calls (the compute-skew model). The full real
//     stack — tag matching, partial rounds, epochs, fault injection — runs
//     unmodified on top, over the same single inbound path (Inbox, then the
//     communicator's demux) as every other transport.
//   - internal/simnet/sweep is the closed-form lockstep sweep driver that
//     reproduces the paper's NAP-vs-step-time curves at 1000+ ranks,
//     bit-identically, using the same Model/Stream vocabulary (see that
//     package and DESIGN.md "Deterministic simulation" for the determinism
//     contract — what each layer does and does not pin down).
//
// Determinism contract of this layer: all virtual timestamps are derived
// from per-entity seeded streams, so a fixed sequence of operations yields
// identical virtual times across runs. Per-link delivery is FIFO in virtual
// time. What the Hub does NOT pin down is cross-link goroutine interleaving:
// real goroutines still race on real CPUs, exactly as with the inproc hub
// (the collectives' results are interleaving-independent by construction).
// Bit-identical end-to-end runs come from the sweep layer, which has no
// goroutines to race.
package simnet

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// DefaultInboxDepth matches the inproc hub's inbox capacity: deep enough that
// a solo initiator can send to a rank still busy computing.
const DefaultInboxDepth = 4096

// Config parameterizes a simulated world.
type Config struct {
	// Seed is the root seed every per-entity stream derives from. Zero is a
	// valid seed (distinct from all others).
	Seed uint64
	// Latency models per-link message latency. Each directed link draws from
	// its own stream. Nil means Constant(0) — instant delivery.
	Latency Model
	// Skew models per-rank compute time per AdvanceCompute call. Each rank
	// draws from its own stream. Nil means Constant(0).
	Skew Model
	// InboxDepth overrides the per-rank inbox capacity (default
	// DefaultInboxDepth).
	InboxDepth int
}

// event is one scheduled delivery.
type event struct {
	at   int64  // virtual delivery time, ns
	seq  uint64 // enqueue order, tie-break for equal times
	dest int
	m    comm.Message
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Hub connects size simulated endpoints through one virtual clock. Delivery
// is reliable and FIFO per directed link in virtual time; latency per link
// and compute skew per rank are drawn from seed-derived streams.
type Hub struct {
	cfg  Config
	size int

	inboxes []chan comm.Message
	done    chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond // wakes the dispatcher when events arrive or the hub closes
	events   eventHeap
	seq      uint64
	now      int64           // global virtual clock: max delivery time dispatched
	rankTime []int64         // per-rank virtual clock
	linkFree []int64         // per directed link: virtual time the link is next free
	linkLat  map[int]Sampler // lazy per-link latency samplers, keyed src*size+dst
	skew     []Sampler       // lazy per-rank skew samplers
	closed   bool

	dispatcherWG sync.WaitGroup
}

// NewHub creates a simulated world of size ranks.
func NewHub(size int, cfg Config) *Hub {
	if size <= 0 {
		panic(fmt.Sprintf("simnet: hub size %d must be positive", size))
	}
	if cfg.Latency == nil {
		cfg.Latency = Constant(0)
	}
	if cfg.Skew == nil {
		cfg.Skew = Constant(0)
	}
	depth := cfg.InboxDepth
	if depth <= 0 {
		depth = DefaultInboxDepth
	}
	h := &Hub{
		cfg:      cfg,
		size:     size,
		inboxes:  make([]chan comm.Message, size),
		done:     make(chan struct{}),
		rankTime: make([]int64, size),
		linkFree: make([]int64, size*size),
		linkLat:  make(map[int]Sampler),
		skew:     make([]Sampler, size),
	}
	h.cond = sync.NewCond(&h.mu)
	for i := range h.inboxes {
		h.inboxes[i] = make(chan comm.Message, depth)
	}
	h.dispatcherWG.Add(1)
	go h.dispatch()
	return h
}

// Size returns the number of ranks connected by the hub.
func (h *Hub) Size() int { return h.size }

// Endpoint returns the comm.Endpoint for the given rank.
func (h *Hub) Endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= h.size {
		panic(fmt.Sprintf("simnet: rank %d out of range [0,%d)", rank, h.size))
	}
	return &Endpoint{hub: h, rank: rank}
}

// Now returns the global virtual clock: the latest virtual time any
// dispatched delivery or compute advance has reached.
func (h *Hub) Now() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.now)
}

// RankTime returns rank's virtual clock: the maximum of its compute advances
// and the delivery times of messages dispatched to it.
func (h *Hub) RankTime(rank int) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.rankTime[rank])
}

// AdvanceCompute advances rank's virtual clock by one draw from its
// compute-skew stream, modelling one unit of local computation (a training
// step's forward+backward), and returns the draw. Subsequent sends from the
// rank depart no earlier than the advanced clock.
func (h *Hub) AdvanceCompute(rank int) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.skew[rank]
	if s == nil {
		s = h.cfg.Skew.Sampler(DeriveSeed(h.cfg.Seed, DomainSkew, uint64(rank)))
		h.skew[rank] = s
	}
	d := s.Next()
	h.rankTime[rank] += d
	if h.rankTime[rank] > h.now {
		h.now = h.rankTime[rank]
	}
	return time.Duration(d)
}

// send schedules delivery of m on the src→dest link. The virtual delivery
// time is max(sender clock, link free time) + one latency draw; the link is
// then busy until that time, which is what makes per-link delivery FIFO in
// virtual time. Ownership of m.Data transfers unconditionally, as the
// comm.Endpoint contract requires.
func (h *Hub) send(src, dest int, m comm.Message) error {
	if dest < 0 || dest >= h.size {
		tensor.PutVector(m.Data)
		return fmt.Errorf("simnet: destination %d out of range [0,%d)", dest, h.size)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		tensor.PutVector(m.Data)
		return ErrClosed
	}
	link := src*h.size + dest
	lat := h.linkLat[link]
	if lat == nil {
		lat = h.cfg.Latency.Sampler(DeriveSeed(h.cfg.Seed, DomainLink, uint64(src), uint64(dest)))
		h.linkLat[link] = lat
	}
	depart := h.rankTime[src]
	if h.linkFree[link] > depart {
		depart = h.linkFree[link]
	}
	at := depart + lat.Next()
	h.linkFree[link] = at
	h.seq++
	heap.Push(&h.events, event{at: at, seq: h.seq, dest: dest, m: m})
	h.cond.Signal()
	h.mu.Unlock()
	return nil
}

// dispatch is the hub's single delivery goroutine: it drains the event heap
// in (virtual time, enqueue order) and forwards each message to its
// destination inbox, advancing the virtual clocks as it goes. Inbox
// backpressure blocks outside the lock, so senders keep scheduling while a
// slow rank catches up.
func (h *Hub) dispatch() {
	defer h.dispatcherWG.Done()
	for {
		h.mu.Lock()
		for len(h.events) == 0 && !h.closed {
			h.cond.Wait()
		}
		if h.closed {
			// Close drains the heap after this goroutine exits; leaving the
			// events in place keeps exactly one owner per lease.
			h.mu.Unlock()
			return
		}
		e := heap.Pop(&h.events).(event)
		if e.at > h.now {
			h.now = e.at
		}
		if e.at > h.rankTime[e.dest] {
			h.rankTime[e.dest] = e.at
		}
		ch := h.inboxes[e.dest]
		h.mu.Unlock()
		select {
		case ch <- e.m:
		case <-h.done:
			tensor.PutVector(e.m.Data)
			return
		}
	}
}

// ErrClosed is returned when sending through a closed hub.
var ErrClosed = fmt.Errorf("simnet: closed")

// Close shuts the whole world down: future sends fail, the dispatcher stops,
// undelivered events release their payload leases, and every inbox closes so
// the communicators above observe an ordinary transport shutdown. Safe to
// call more than once.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	close(h.done)
	h.cond.Broadcast()
	h.mu.Unlock()
	h.dispatcherWG.Wait()
	h.mu.Lock()
	for _, e := range h.events {
		tensor.PutVector(e.m.Data)
	}
	h.events = nil
	h.mu.Unlock()
	for _, ch := range h.inboxes {
		close(ch)
	}
	return nil
}

// Endpoint is the per-rank view of a simulated Hub. It implements
// comm.Endpoint; like the inproc transport, closing any endpoint closes the
// whole world (the collective shutdown of an MPI job).
type Endpoint struct {
	hub  *Hub
	rank int
}

// Rank returns the endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of ranks in the simulated world.
func (e *Endpoint) Size() int { return e.hub.size }

// Send schedules delivery of m to dest under the link's latency model.
func (e *Endpoint) Send(dest int, m comm.Message) error { return e.hub.send(e.rank, dest, m) }

// Inbox returns the stream of messages dispatched to this rank.
func (e *Endpoint) Inbox() <-chan comm.Message { return e.hub.inboxes[e.rank] }

// Close closes the entire simulated world.
func (e *Endpoint) Close() error { return e.hub.Close() }

// AdvanceCompute advances this rank's virtual clock by one compute-skew
// draw (see Hub.AdvanceCompute).
func (e *Endpoint) AdvanceCompute() time.Duration { return e.hub.AdvanceCompute(e.rank) }

// NewWorld builds a hub for size ranks and returns one ready-to-use
// Communicator per rank, mirroring transport.NewInprocWorld. Closing any one
// communicator closes all.
func NewWorld(size int, cfg Config) []*comm.Communicator {
	hub := NewHub(size, cfg)
	world := make([]*comm.Communicator, size)
	for r := 0; r < size; r++ {
		world[r] = comm.NewCommunicator(hub.Endpoint(r))
	}
	return world
}
