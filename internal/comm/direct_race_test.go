package comm

// Regression test for a race on the direct-delivery path (PR 9):
// dispatchLocked queued a frame without checking c.closed, so a delivery
// decoded by a transport poll loop racing Close landed in the already-purged
// unexpected queue and its pool lease leaked forever.
//
// It lives in the internal package: it needs a stub DirectSource endpoint
// whose deliver function the test can invoke as if it were the transport's
// poll loop.

import (
	"sync"
	"testing"

	"eagersgd/internal/tensor"
)

// stubDirectEndpoint is a minimal DirectSource transport: it never produces
// inbox traffic itself, but hands the communicator's deliver sink to the test
// so deliveries can be injected synchronously, exactly as the shm poll loop
// would call it.
type stubDirectEndpoint struct {
	rank, size int
	inbox      chan Message
	deliverFn  func(Message)
	closeOnce  sync.Once
}

func newStubDirectEndpoint(rank, size int) *stubDirectEndpoint {
	return &stubDirectEndpoint{rank: rank, size: size, inbox: make(chan Message)}
}

func (e *stubDirectEndpoint) Rank() int { return e.rank }
func (e *stubDirectEndpoint) Size() int { return e.size }

func (e *stubDirectEndpoint) Send(dest int, m Message) error {
	tensor.PutVector(m.Data) // Send takes ownership on every path
	return nil
}

func (e *stubDirectEndpoint) Inbox() <-chan Message { return e.inbox }

func (e *stubDirectEndpoint) Close() error {
	e.closeOnce.Do(func() { close(e.inbox) })
	return nil
}

func (e *stubDirectEndpoint) SetDeliver(fn func(Message)) { e.deliverFn = fn }

// TestChaosDirectCloseRaceReleasesLease pins the close-race fix: a frame the
// transport's poll loop decoded concurrently with Close arrives after the
// unexpected queue has been purged. It must be released back to the pool, not
// queued — nothing can ever match a message queued after the purge, so
// queueing it leaks the lease forever (the pre-fix behavior).
func TestChaosDirectCloseRaceReleasesLease(t *testing.T) {
	ep := newStubDirectEndpoint(0, 2)
	c := NewCommunicator(ep)
	before := tensor.ReadPoolStats()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The poll loop's last frame lands after the purge.
	ep.deliverFn(Message{Source: 1, Tag: 7, Data: tensor.GetVector(32)})
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("delivery racing Close leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("message queued after Close: pending = %d, want 0", got)
	}
}
