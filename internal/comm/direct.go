package comm

import (
	"fmt"
	"sync/atomic"
	"time"

	"eagersgd/internal/tensor"
)

// Direct delivery: the hop-free receive path for ring worlds.
//
// The classic delivery chain costs two goroutine wakeups per message: the
// transport's receive loop hands the decoded frame to the inbox channel
// (waking the demux goroutine), demux appends it to the unexpected queue and
// broadcasts the condition variable (waking the receiver). Direct delivery
// collapses that to one: a receiver that names a specific (source, tag) posts
// itself in a per-source match slot, and the transport's receive loop hands a
// matching frame straight to the slot's channel — no inbox, no demux, no
// queue scan, no cond broadcast.
//
// Correctness hinges on three rules:
//
//   - Receivers arm a slot only under c.mu, after the unexpected queue has
//     been checked for a match. An arriving message therefore either claims
//     the armed slot or is queued; it can never bypass an older queued
//     message with the same (source, tag), so per-(source, tag) FIFO order is
//     exactly the demux path's.
//   - The slot state word is gen<<2|phase: every arm advances the generation,
//     so a delivery racing a disarm/re-arm cycle fails its claim CAS instead
//     of delivering to the wrong receive (no ABA).
//   - A claimed delivery is always consumed: every receiver exit path runs
//     disarm, which drains the in-flight message when the claim won the race,
//     and returns it to the caller (exactly what the demux path does when a
//     matching message is already queued). No lease is ever orphaned in a
//     slot.
//
// Everything that cannot take the fast path — wildcard receives, a slot
// already armed by another receiver, transports without a DirectSource
// receive loop — falls back to the inbox/demux/cond machinery unchanged.

// DirectSource is an optional Endpoint capability: the transport's receive
// loop can hand decoded messages straight to the communicator instead of
// routing them through the Inbox channel. SetDeliver installs the sink; a
// transport that has already begun delivering to its Inbox must ignore the
// call (mixing paths for one source could reorder messages), and a transport
// that honors it must deliver every subsequent message of this endpoint
// through fn, transferring ownership of m.Data with each call. The Inbox
// channel still signals shutdown by closing.
type DirectSource interface {
	SetDeliver(fn func(m Message))
}

// Slot phases (low two bits of the state word).
const (
	slotEmpty   uint64 = 0 // no receiver posted
	slotArmed   uint64 = 1 // a receiver is waiting; deliveries may claim
	slotClaimed uint64 = 2 // a delivery won the slot; the message is on ch
)

const slotPhaseMask uint64 = 3

// directSlot is the per-source match slot. One receiver at a time may own it
// (arming is serialized by c.mu); the transport's receive loop and the demux
// goroutine claim it with a generation-checked CAS.
type directSlot struct {
	state atomic.Uint64 // gen<<2 | phase
	tag   atomic.Int64  // matched tag, published before the armed store
	ch    chan Message  // claimed delivery hand-off; buffered so claimers never block
	nudge chan struct{} // state-change kick (peer marked down); buffered
}

func (s *directSlot) init() {
	s.ch = make(chan Message, 1)
	s.nudge = make(chan struct{}, 1)
}

// arm posts a receiver's interest in (tag) and returns the armed state word.
// Caller holds c.mu and has already checked the unexpected queue. Fails when
// the slot is busy with another receive for this source.
func (s *directSlot) arm(tag int) (uint64, bool) {
	w := s.state.Load()
	if w&slotPhaseMask != slotEmpty {
		return 0, false
	}
	select { // clear a stale kick from a previous cycle
	case <-s.nudge:
	default:
	}
	s.tag.Store(int64(tag))
	w = (w>>2+1)<<2 | slotArmed
	s.state.Store(w)
	return w, true
}

// tryClaim attempts to win an armed slot matching tag. Safe without c.mu: the
// generation in the observed word makes the CAS fail if the slot was disarmed
// or re-armed in between. On success the caller must complete the delivery by
// sending exactly one message on s.ch.
func (s *directSlot) tryClaim(tag int) bool {
	w := s.state.Load()
	return w&slotPhaseMask == slotArmed &&
		s.tag.Load() == int64(tag) &&
		s.state.CompareAndSwap(w, w&^slotPhaseMask|slotClaimed)
}

// disarm withdraws the receiver from its armed slot (w is the word arm
// returned). When a delivery claimed the slot concurrently, the in-flight
// message is drained and returned — the receiver must treat it as a completed
// receive, never drop it.
func (s *directSlot) disarm(w uint64) (Message, bool) {
	if s.state.CompareAndSwap(w, w&^slotPhaseMask) {
		return Message{}, false
	}
	// The claim won: the claimer sends on ch immediately after its CAS, so
	// this receive completes promptly. Only then does the slot return to
	// empty, keeping the channel strictly one-delivery-per-arm.
	m := <-s.ch
	s.state.Store(w &^ slotPhaseMask)
	return m, true
}

// release marks a slot empty after the receiver consumed a delivery from ch.
func (s *directSlot) release(w uint64) { s.state.Store(w &^ slotPhaseMask) }

// nudgeLocked kicks a waiting receiver to re-examine communicator state
// (used by MarkPeerDown). Caller holds c.mu, which serializes it against
// arming, so an armed receiver cannot miss the kick.
func (s *directSlot) nudgeLocked() {
	if s.state.Load()&slotPhaseMask == slotArmed {
		select {
		case s.nudge <- struct{}{}:
		default:
		}
	}
}

// deliverDirect is the sink installed on DirectSource transports: the
// receive loop calls it once per decoded message, transferring ownership of
// m.Data. The fast path claims an armed matching slot with no lock; every
// miss — no receiver posted, tag mismatch, wildcard waiters — takes c.mu and
// runs the same dispatch the demux goroutine uses, so the two paths are
// observationally identical.
func (c *Communicator) deliverDirect(m Message) {
	s := &c.slots[m.Source]
	if s.tryClaim(m.Tag) {
		s.ch <- m
		return
	}
	c.mu.Lock()
	c.dispatchLocked(m)
	c.mu.Unlock()
}

// dispatchLocked places an arriving message: a posted direct
// receiver with a matching (source, tag) gets it handed straight to its slot;
// otherwise it joins the unexpected queue and the cond waiters are woken.
// Caller holds c.mu. Used by both the demux goroutine and deliverDirect's
// slow path, so slot receivers see deliveries from every transport path.
func (c *Communicator) dispatchLocked(m Message) {
	if c.closed {
		// The transport is down and Close has (or is about to have) purged the
		// unexpected queue. A frame decoded by a transport poll loop racing
		// Close — the demux goroutine is already gone, so only the direct
		// sink can land here — must be released, not queued: nothing will
		// ever match a message queued after the purge, and its lease would
		// leak forever.
		tensor.PutVector(m.Data)
		return
	}
	s := &c.slots[m.Source]
	if s.tryClaim(m.Tag) {
		s.ch <- m // buffered: never blocks, even under c.mu
		return
	}
	c.queue = append(c.queue, m)
	c.cond.Broadcast()
}

// recvDirect is the slot-based blocking receive for a specific (source, tag).
// It preserves RecvTimeout's exact semantics: queued matches win first, then
// peer-down, cancellation, closure, and deadline are checked in that order;
// arming happens under c.mu only after those checks, and every wake-up path
// drains a racing delivery before reporting an error.
func (c *Communicator) recvDirect(source, tag int, cancel <-chan struct{}, deadline time.Duration) (tensor.Vector, Status, error) {
	s := &c.slots[source]
	var start time.Time
	var timer *time.Timer
	var timerC <-chan time.Time
	if deadline > 0 {
		start = time.Now()
		timer = time.NewTimer(deadline)
		defer timer.Stop()
		timerC = timer.C
	}
	for {
		c.mu.Lock()
		if m, ok := c.matchLocked(source, tag); ok {
			c.mu.Unlock()
			return m.Data, Status{Source: m.Source, Tag: m.Tag, Count: len(m.Data)}, nil
		}
		if c.down[source] != nil {
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
		w, armed := s.arm(tag)
		if !armed {
			// Another receiver holds this source's slot: take the classic
			// cond-based path (this receive's message will arrive via the
			// queue, since an armed slot only claims its own tag). Any
			// deadline budget already spent here carries over.
			c.mu.Unlock()
			remaining := deadline
			if deadline > 0 {
				if remaining = deadline - time.Since(start); remaining <= 0 {
					remaining = time.Nanosecond
				}
			}
			return c.recvQueued(source, tag, cancel, remaining)
		}
		c.mu.Unlock()

		select {
		case m := <-s.ch:
			s.release(w)
			return m.Data, Status{Source: m.Source, Tag: m.Tag, Count: len(m.Data)}, nil
		case <-s.nudge:
		case <-cancel:
		case <-timerC:
		case <-c.closedCh:
		}
		// Woken for a state change: withdraw from the slot. A delivery that
		// claimed it concurrently completes this receive (the demux path
		// would likewise deliver an already-arrived message before reporting
		// cancellation, closure, or peer death).
		if m, ok := s.disarm(w); ok {
			return m.Data, Status{Source: m.Source, Tag: m.Tag, Count: len(m.Data)}, nil
		}
	}
}
