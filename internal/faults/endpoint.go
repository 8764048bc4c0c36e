package faults

import (
	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// endpoint is the fault-injecting comm.Endpoint wrapper returned by
// Injector.Wrap. Outgoing messages pass through the injector's per-link fate
// decisions; the inbox is forwarded through a goroutine so a crash can sever
// it (the communicator then observes a closed transport) and a signaled crash
// of a peer can join it as a failure message (Scenario.SignalCrashes).
type endpoint struct {
	inner comm.Endpoint
	inj   *Injector
	rank  int
	out   chan comm.Message
}

// Rank returns the wrapped endpoint's rank.
func (e *endpoint) Rank() int { return e.rank }

// Size returns the wrapped endpoint's world size.
func (e *endpoint) Size() int { return e.inner.Size() }

// Inbox returns the fault-filtered message stream. It closes when the inner
// endpoint closes or when this rank crashes.
func (e *endpoint) Inbox() <-chan comm.Message { return e.out }

// Close closes the wrapped endpoint. (For the in-process hub this closes the
// whole hub, matching the unwrapped semantics.)
func (e *endpoint) Close() error { return e.inner.Close() }

// Send applies the link's fate decision to m. It consumes m.Data on every
// path, like any transport. Sends from a crashed rank fail with ErrCrashed;
// sends to a crashed rank vanish silently (the network black-holes traffic
// to a dead process — the sender cannot tell).
func (e *endpoint) Send(dest int, m comm.Message) error {
	if e.inj.Crashed(e.rank) {
		tensor.PutVector(m.Data)
		return ErrCrashed
	}
	if dest == e.rank || dest < 0 || dest >= e.Size() {
		// Self-sends never touch the network; invalid destinations get the
		// transport's own validation error.
		return e.inner.Send(dest, m)
	}
	if e.inj.Crashed(dest) {
		tensor.PutVector(m.Data)
		return nil
	}
	f, delay := e.inj.decide(e.rank, dest)
	switch f {
	case fateDrop:
		tensor.PutVector(m.Data)
		return nil
	case fateDelay:
		e.inj.enqueueFIFO(e.rank, delayedMsg{ep: e.inner, dest: dest, m: m, delay: delay})
		return nil
	case fateReorder:
		if !e.inj.goDeliver(delayedMsg{ep: e.inner, dest: dest, m: m}, delay) {
			tensor.PutVector(m.Data) // injector closed: the message is lost
		}
		return nil
	default:
		return e.inner.Send(dest, m)
	}
}

// forward pumps the inner inbox into the wrapper's — frames and the inner
// transport's failure messages alike — together with this rank's crash
// notices, severing the stream when this rank crashes: the wrapper inbox
// closes (the communicator sees a dead transport) and any further arrivals
// are drained and released so inner senders never block on a dead rank's
// full inbox.
func (e *endpoint) forward() {
	crash := e.inj.crashChs[e.rank]
	notices := e.inj.notices[e.rank]
	in := e.inner.Inbox()
	alive := true
	sever := func() {
		close(e.out)
		alive = false
		crash = nil // stop selecting on the closed channel
	}
	pass := func(m comm.Message) {
		if alive {
			select {
			case e.out <- m:
				return
			case <-crash:
				sever()
			}
		}
		tensor.PutVector(m.Data)
	}
	for {
		select {
		case <-crash:
			sever()
		case n := <-notices:
			// A crash signal models a connection reset: what the dead rank
			// sent before it crashed is already buffered in the inner inbox,
			// and lands before the notice does.
			for len(in) > 0 {
				pass(<-in)
			}
			pass(n)
		case m, ok := <-in:
			if !ok {
				if alive {
					close(e.out)
				}
				return
			}
			pass(m)
		}
	}
}
