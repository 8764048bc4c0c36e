package comm_test

import (
	"sync"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/race"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

func world(t *testing.T, p int) []*comm.Communicator {
	t.Helper()
	w := transport.NewInprocWorld(p)
	t.Cleanup(func() { w[0].Close() })
	return w
}

func TestRankAndSize(t *testing.T) {
	w := world(t, 4)
	for r, c := range w {
		if c.Rank() != r {
			t.Fatalf("rank %d reported as %d", r, c.Rank())
		}
		if c.Size() != 4 {
			t.Fatalf("size = %d, want 4", c.Size())
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	w := world(t, 2)
	go func() {
		_ = w[0].Send(1, 7, tensor.Vector{1, 2, 3})
	}()
	data, st, err := w[1].Recv(0, 7)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !data.Equal(tensor.Vector{1, 2, 3}) {
		t.Fatalf("data = %v", data)
	}
	if st.Source != 0 || st.Tag != 7 || st.Count != 3 {
		t.Fatalf("status = %+v", st)
	}
}

func TestSendCopyRetainsCallerBuffer(t *testing.T) {
	w := world(t, 2)
	buf := tensor.Vector{1, 2, 3}
	if err := w[0].SendCopy(1, 0, buf, nil); err != nil {
		t.Fatalf("SendCopy: %v", err)
	}
	buf[0] = 99 // caller keeps ownership; receiver must still see the original
	data, _, err := w[1].Recv(0, 0)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if data[0] != 1 {
		t.Fatalf("SendCopy did not snapshot payload: got %v", data)
	}
	tensor.PutVector(data)
}

func TestSendTransfersOwnershipZeroCopyInproc(t *testing.T) {
	w := world(t, 2)
	// On the in-process fast path the receiver must get the sender's backing
	// array itself: ownership transfer, exactly zero copies and zero clones.
	buf := tensor.GetVector(64)
	buf.Fill(7)
	if err := w[0].Send(1, 0, buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	data, _, err := w[1].Recv(0, 0)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if &data[0] != &buf[0] {
		t.Fatalf("inproc Send copied the payload: receiver got a different backing array")
	}
	tensor.PutVector(data)
}

func TestSendRecvBorrowsOutgoingBuffer(t *testing.T) {
	w := world(t, 2)
	var wg sync.WaitGroup
	bufs := [2]tensor.Vector{{0, 0}, {1, 1}}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			peer := 1 - r
			if err := w[r].SendCopy(peer, 0, bufs[r], nil); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			data, _, err := w[r].Recv(peer, 0)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			// The outgoing buffer is borrowed: still intact after the call.
			if bufs[r][0] != float64(r) {
				t.Errorf("rank %d: outgoing buffer clobbered: %v", r, bufs[r])
			}
			if data[0] != float64(peer) {
				t.Errorf("rank %d: got %v", r, data)
			}
			tensor.PutVector(data)
		}(r)
	}
	wg.Wait()
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	w := world(t, 3)
	if err := w[2].Send(0, 42, tensor.Vector{5}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	data, st, err := w[0].Recv(comm.AnySource, comm.AnyTag)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if st.Source != 2 || st.Tag != 42 || data[0] != 5 {
		t.Fatalf("got %v %+v", data, st)
	}
}

func TestRecvTagFiltering(t *testing.T) {
	w := world(t, 2)
	// Send tag 1 first, then tag 2. A receive for tag 2 must skip tag 1.
	if err := w[0].Send(1, 1, tensor.Vector{1}); err != nil {
		t.Fatal(err)
	}
	if err := w[0].Send(1, 2, tensor.Vector{2}); err != nil {
		t.Fatal(err)
	}
	// Allow both to be queued.
	deadline := time.Now().Add(time.Second)
	for w[1].Pending() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	data, _, err := w[1].Recv(0, 2)
	if err != nil || data[0] != 2 {
		t.Fatalf("tag-2 recv got %v err=%v", data, err)
	}
	data, _, err = w[1].Recv(0, 1)
	if err != nil || data[0] != 1 {
		t.Fatalf("tag-1 recv got %v err=%v", data, err)
	}
}

func TestRecvFIFOPerSourceTag(t *testing.T) {
	w := world(t, 2)
	for i := 0; i < 50; i++ {
		if err := w[0].Send(1, 9, tensor.Vector{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		data, _, err := w[1].Recv(0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != float64(i) {
			t.Fatalf("message %d out of order: got %v", i, data[0])
		}
	}
}

type recvResult struct {
	data tensor.Vector
	st   comm.Status
	err  error
}

// recvAsync posts a blocking Recv on its own goroutine and delivers the
// outcome on the returned channel.
func recvAsync(c *comm.Communicator, source, tag int) <-chan recvResult {
	ch := make(chan recvResult, 1)
	go func() {
		var r recvResult
		r.data, r.st, r.err = c.Recv(source, tag)
		ch <- r
	}()
	return ch
}

func TestRecvBlocksUntilMatchingSend(t *testing.T) {
	w := world(t, 2)
	recvd := recvAsync(w[1], 0, 5)
	select {
	case r := <-recvd:
		t.Fatalf("receive complete before matching send: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	if err := w[0].Send(1, 5, tensor.Vector{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-recvd:
		if r.err != nil || !r.data.Equal(tensor.Vector{1}) {
			t.Fatalf("Recv got %v err=%v", r.data, r.err)
		}
	case <-time.After(time.Second):
		t.Fatalf("receive never completed")
	}
}

func TestSendRecvExchangeNoDeadlock(t *testing.T) {
	w := world(t, 2)
	var wg sync.WaitGroup
	results := make([]tensor.Vector, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			peer := 1 - r
			if err := w[r].SendCopy(peer, 0, tensor.Vector{float64(r)}, nil); err != nil {
				t.Errorf("rank %d SendCopy: %v", r, err)
				return
			}
			data, _, err := w[r].RecvTimeout(peer, 0, nil, 0)
			if err != nil {
				t.Errorf("rank %d RecvTimeout: %v", r, err)
				return
			}
			results[r] = data
		}(r)
	}
	wg.Wait()
	if results[0] == nil || results[1] == nil {
		t.Fatal("missing results")
	}
	if results[0][0] != 1 || results[1][0] != 0 {
		t.Fatalf("exchange wrong: %v %v", results[0], results[1])
	}
}

// TestSendRecvInprocAllocFree pins down the ownership refactor's headline
// property on the point-to-point layer: a steady-state exchange on the
// in-process transport — SendCopy with a nil cancel, then RecvTimeout, the
// collectives' step — performs zero allocations: the send snapshot and the
// receive buffer are pool leases recycled by tensor.PutVector, and no
// goroutine or channel is made per exchange.
func TestSendRecvInprocAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if tensor.LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	w := world(t, 2)
	const n = 1024
	payload := [2]tensor.Vector{tensor.NewVector(n), tensor.NewVector(n)}
	start := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	done := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			for range start[r] {
				err := w[r].SendCopy(1-r, 0, payload[r], nil)
				if err == nil {
					var data tensor.Vector
					if data, _, err = w[r].RecvTimeout(1-r, 0, nil, 0); err == nil {
						tensor.PutVector(data)
					}
				}
				done <- err
			}
		}(r)
	}
	defer func() {
		close(start[0])
		close(start[1])
	}()
	round := func() {
		start[0] <- struct{}{}
		start[1] <- struct{}{}
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatalf("SendRecv: %v", err)
			}
		}
	}
	for i := 0; i < 32; i++ {
		round() // warm pools and queue capacities
	}
	if avg := testing.AllocsPerRun(100, round); avg > 0 {
		t.Fatalf("steady-state inproc SendRecv allocates %.1f objects per exchange, want 0", avg)
	}
}

// stallEndpoint is a transport whose Send blocks until released, modelling a
// peer stuck on transport backpressure (e.g. a frozen TCP receiver).
type stallEndpoint struct {
	release chan struct{}
	inbox   chan comm.Message
	closed  chan struct{}
}

func newStallEndpoint() *stallEndpoint {
	return &stallEndpoint{release: make(chan struct{}), inbox: make(chan comm.Message, 1), closed: make(chan struct{})}
}

func (s *stallEndpoint) Rank() int { return 0 }
func (s *stallEndpoint) Size() int { return 2 }
func (s *stallEndpoint) Send(dest int, m comm.Message) error {
	<-s.release
	return nil
}
func (s *stallEndpoint) Inbox() <-chan comm.Message { return s.inbox }
func (s *stallEndpoint) Close() error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
		close(s.inbox)
	}
	return nil
}

// TestCanceledSendUnblocksWhileStalled pins the liveness property of the
// cancelable send: even when the transport send is stuck on a stalled peer, a
// canceled SendCopy must return ErrCanceled instead of hanging (the in-flight
// send is abandoned to the background and the communicator is closed
// afterwards, per the documented contract).
func TestCanceledSendUnblocksWhileStalled(t *testing.T) {
	ep := newStallEndpoint()
	c := comm.NewCommunicator(ep)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- c.SendCopy(1, 0, tensor.Vector{1}, cancel) }()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if err != comm.ErrCanceled {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendCopy hung although canceled: stalled send blocks the cancel path")
	}
	close(ep.release) // let the abandoned background send drain
	c.Close()
}

// TestCanceledSendUnblocksWhenRecvAlreadyQueued covers an exchange whose
// receive would succeed at once — the peer's message is already queued — but
// whose send is stuck on a stalled peer: the send must still honor the cancel
// channel, and the queued message stays receivable.
func TestCanceledSendUnblocksWhenRecvAlreadyQueued(t *testing.T) {
	ep := newStallEndpoint()
	ep.inbox <- comm.Message{Source: 1, Tag: 0, Data: tensor.Vector{9}} // recv half satisfied up front
	c := comm.NewCommunicator(ep)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- c.SendCopy(1, 0, tensor.Vector{1}, cancel) }()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if err != comm.ErrCanceled {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendCopy hung although canceled and the receive was already queued")
	}
	if data, _, err := c.RecvTimeout(1, 0, nil, 0); err != nil || data[0] != 9 {
		t.Fatalf("queued message after a canceled send: %v err=%v", data, err)
	}
	close(ep.release)
	c.Close()
}

// closeBlockedEndpoint is a transport whose Send blocks until the endpoint is
// closed and then, like the real transports, releases the payload it owns and
// fails — a little late, the way a sender woken by Close runs after Close's
// caller does.
type closeBlockedEndpoint struct{ *stallEndpoint }

func (s closeBlockedEndpoint) Send(dest int, m comm.Message) error {
	<-s.closed
	time.Sleep(20 * time.Millisecond)
	tensor.PutVector(m.Data)
	return comm.ErrClosed
}

// TestCloseJoinsAbandonedSends: a canceled SendCopy abandons its send to
// a background goroutine that owns the payload's pool lease. Close must join
// it, so the lease is back in the pool when Close returns — not some time
// after, where shutdown lease accounting would see it as a leak.
func TestCloseJoinsAbandonedSends(t *testing.T) {
	before := tensor.ReadPoolStats()
	c := comm.NewCommunicator(closeBlockedEndpoint{newStallEndpoint()})
	cancel := make(chan struct{})
	close(cancel)
	if err := c.SendCopy(1, 0, tensor.Vector{1, 2, 3}, cancel); err != comm.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
		t.Fatalf("%d pool lease(s) still out after Close returned", leaked)
	}
	// Once closed, a cancelable send is refused outright and leaks nothing.
	if err := c.SendCopy(1, 0, tensor.Vector{4}, cancel); err != comm.ErrClosed {
		t.Fatalf("cancelable SendCopy after Close: err = %v, want ErrClosed", err)
	}
	if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
		t.Fatalf("%d pool lease(s) out after a refused send", leaked)
	}
}

func TestSendInvalidPeer(t *testing.T) {
	w := world(t, 2)
	if err := w[0].Send(5, 0, tensor.Vector{1}); err == nil {
		t.Fatalf("expected error for out-of-range peer")
	}
	if _, _, err := w[0].Recv(9, 0); err == nil {
		t.Fatalf("expected error for out-of-range source")
	}
}

func TestRecvAfterCloseReturnsError(t *testing.T) {
	w := transport.NewInprocWorld(2)
	done := make(chan error, 1)
	go func() {
		_, _, err := w[1].Recv(0, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w[0].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("expected error from Recv after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Recv did not unblock after close")
	}
}

func TestConcurrentReceiversDistinctTags(t *testing.T) {
	w := world(t, 2)
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := w[1].Recv(0, i)
			errs[i] = err
			if err == nil {
				vals[i] = data[0]
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := w[0].Send(1, i, tensor.Vector{float64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("receiver %d: %v", i, errs[i])
		}
		if vals[i] != float64(i*10) {
			t.Fatalf("receiver %d got %v", i, vals[i])
		}
	}
}

func TestRecvTimeoutReturnsWhenCanceled(t *testing.T) {
	w := world(t, 2)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := w[1].RecvTimeout(0, 99, cancel, 0)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if err != comm.ErrCanceled {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvTimeout did not return after cancel")
	}
}

func TestRecvTimeoutDeliversQueuedMessageBeforeCancel(t *testing.T) {
	w := world(t, 2)
	cancel := make(chan struct{})
	defer close(cancel)
	if err := w[0].Send(1, 4, tensor.Vector{9}); err != nil {
		t.Fatal(err)
	}
	data, st, err := w[1].RecvTimeout(0, 4, cancel, 0)
	if err != nil || data[0] != 9 || st.Tag != 4 {
		t.Fatalf("got %v %+v err=%v", data, st, err)
	}
}

func TestRecvTimeoutNilCancelBehavesLikeRecv(t *testing.T) {
	w := world(t, 2)
	go func() { _ = w[0].Send(1, 8, tensor.Vector{2}) }()
	data, _, err := w[1].RecvTimeout(0, 8, nil, 0)
	if err != nil || data[0] != 2 {
		t.Fatalf("got %v err=%v", data, err)
	}
}

func TestDiscardTagRange(t *testing.T) {
	w := world(t, 2)
	for _, tag := range []int{1, 5, 10, 15, 20} {
		if err := w[0].Send(1, tag, tensor.Vector{float64(tag)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for w[1].Pending() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	removed := w[1].DiscardTagRange(5, 16)
	if removed != 3 {
		t.Fatalf("removed %d messages, want 3", removed)
	}
	if w[1].Pending() != 2 {
		t.Fatalf("pending = %d, want 2", w[1].Pending())
	}
	// Tags outside the range must still be receivable.
	for _, tag := range []int{1, 20} {
		data, _, err := w[1].Recv(0, tag)
		if err != nil || data[0] != float64(tag) {
			t.Fatalf("tag %d: %v %v", tag, data, err)
		}
	}
}

func TestManyToOneAnySource(t *testing.T) {
	const p = 8
	w := world(t, p)
	for r := 1; r < p; r++ {
		go func(r int) {
			_ = w[r].Send(0, 1, tensor.Vector{float64(r)})
		}(r)
	}
	seen := make(map[int]bool)
	for i := 0; i < p-1; i++ {
		data, st, err := w[0].Recv(comm.AnySource, 1)
		if err != nil {
			t.Fatal(err)
		}
		if int(data[0]) != st.Source {
			t.Fatalf("payload %v does not match source %d", data, st.Source)
		}
		seen[st.Source] = true
	}
	if len(seen) != p-1 {
		t.Fatalf("received from %d distinct sources, want %d", len(seen), p-1)
	}
}
