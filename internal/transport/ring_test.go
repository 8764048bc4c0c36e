package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// leasedVector builds a pool-leased payload with recognizable contents.
func leasedVector(n int, seed float64) tensor.Vector {
	v := tensor.GetVector(n)
	for i := range v {
		v[i] = seed + float64(i)
	}
	return v
}

// drainOne busy-polls r until one complete message surfaces, failing the test
// on ring errors or timeout.
func drainOne(t *testing.T, r *ringBuffer) comm.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, res, err := r.tryDequeue()
		if err != nil {
			t.Fatalf("tryDequeue: %v", err)
		}
		switch res {
		case ringMsg:
			return m
		case ringDead:
			t.Fatal("ring reported EOF while a message was expected")
		}
		if time.Now().After(deadline) {
			t.Fatal("no message surfaced from the ring")
		}
		if res == ringEmpty {
			runtime.Gosched()
		}
	}
}

// TestRingWrapAroundRoundTrip walks message sizes across many laps of a tiny
// ring, so records land on every alignment, pads fire at the wrap point, and
// large frames exercise the fragment path — each message must round-trip bit
// for bit, in order.
func TestRingWrapAroundRoundTrip(t *testing.T) {
	before := tensor.ReadPoolStats()
	r := newRing(4096)
	done := make(chan struct{})
	defer close(done)
	sizes := []int{0, 1, 3, 7, 16, 63, 120, 127, 128, 129, 200, 300, 5, 250}
	for iter := 0; iter < 64; iter++ {
		for k, n := range sizes {
			want := leasedVector(n, float64(iter*1000+k))
			snapshot := append(tensor.Vector(nil), want...)
			if err := r.enqueue(comm.Message{Source: iter, Tag: k, Data: want}, done, true); err != nil {
				t.Fatalf("enqueue n=%d: %v", n, err)
			}
			m := drainOne(t, r)
			if m.Source != iter || m.Tag != k || len(m.Data) != n {
				t.Fatalf("header mangled: got (%d, %d, %d), want (%d, %d, %d)", m.Source, m.Tag, len(m.Data), iter, k, n)
			}
			for i := range snapshot {
				if m.Data[i] != snapshot[i] {
					t.Fatalf("payload corrupted at element %d of %d-element frame (iter %d)", i, n, iter)
				}
			}
			tensor.PutVector(m.Data)
		}
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("ring round trip leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
}

// TestRingFullBlocksAndDrains: a producer pushing far more than the ring
// holds must block for flow control and finish once the consumer drains.
func TestRingFullBlocksAndDrains(t *testing.T) {
	r := newRing(4096)
	done := make(chan struct{})
	defer close(done)
	const total = 50
	var sent atomic.Int32
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for i := 0; i < total; i++ {
			if err := r.enqueue(comm.Message{Source: 0, Tag: i, Data: leasedVector(64, float64(i))}, done, true); err != nil {
				return
			}
			sent.Add(1)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if s := sent.Load(); s == total {
		t.Fatal("producer never blocked although the messages exceed the ring capacity many times over")
	}
	for i := 0; i < total; i++ {
		m := drainOne(t, r)
		if m.Tag != i {
			t.Fatalf("message %d arrived with tag %d (reordered)", i, m.Tag)
		}
		tensor.PutVector(m.Data)
	}
	// The consumer can drain the last message before the producer counts
	// it: join the producer before reading its count.
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("producer never returned after the consumer drained every message")
	}
	if s := sent.Load(); s != total {
		t.Fatalf("producer sent %d of %d after the consumer drained", s, total)
	}
}

// TestRingEnqueueAbortsOnDone: a producer blocked on a full ring must unblock
// with ErrClosed when its endpoint's done channel fires, releasing the
// payload.
func TestRingEnqueueAbortsOnDone(t *testing.T) {
	before := tensor.ReadPoolStats()
	r := newRing(4096)
	done := make(chan struct{})
	const attempts = 50 // far more than the ring holds, so the producer must block
	var sent atomic.Int32
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < attempts; i++ {
			if err := r.enqueue(comm.Message{Data: leasedVector(64, 0)}, done, true); err != nil {
				errCh <- err
				return
			}
			sent.Add(1)
		}
		errCh <- nil
	}()
	time.Sleep(50 * time.Millisecond) // let the producer fill the ring and block
	close(done)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked enqueue ignored the done channel")
	}
	// Drain what was accepted so the leases balance (enqueue released the
	// producer-side copies; these are the consumer-side leases).
	for i := int32(0); i < sent.Load(); i++ {
		tensor.PutVector(drainOne(t, r).Data)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("aborted enqueue leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
}

// TestRingAbortProducerUnblocksEnqueue: the consumer side declaring the ring
// closed must abort a blocked producer with ErrRingClosed.
func TestRingAbortProducerUnblocksEnqueue(t *testing.T) {
	r := newRing(4096)
	done := make(chan struct{})
	defer close(done)
	errCh := make(chan error, 1)
	go func() {
		for {
			if err := r.enqueue(comm.Message{Data: leasedVector(64, 0)}, done, true); err != nil {
				errCh <- err
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond) // let the producer fill the ring and block
	r.abortProducer()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrRingClosed) {
			t.Fatalf("err = %v, want ErrRingClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked enqueue ignored abortProducer")
	}
}

// TestRingRejectsOversizedHeader: a record whose embedded frame header
// announces more elements than the transport-wide limit must be rejected with
// a descriptive error before any allocation — the same hostile-length
// contract decodeFrame upholds.
func TestRingRejectsOversizedHeader(t *testing.T) {
	r := newRing(4096)
	// Hand-craft a complete-frame record whose header announces 2^31 elements.
	binary.LittleEndian.PutUint32(r.data[0:], uint32(recFrame)<<recTypeShift|12)
	binary.LittleEndian.PutUint32(r.data[4:], 3)        // source
	binary.LittleEndian.PutUint32(r.data[8:], 9)        // tag
	binary.LittleEndian.PutUint32(r.data[12:], 1<<31-1) // count: absurd
	r.tail.Store(uint64(recordSpan(12)))
	_, _, err := r.tryDequeue()
	if err == nil {
		t.Fatal("expected error for oversized element count")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	for _, want := range []string{"2147483647", "limit", "rank 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestRingRejectsOrphanContinuation: a fragment continuation with no open
// stream is framing corruption, reported descriptively.
func TestRingRejectsOrphanContinuation(t *testing.T) {
	r := newRing(4096)
	binary.LittleEndian.PutUint32(r.data[0:], uint32(recCont)<<recTypeShift|8)
	r.tail.Store(uint64(recordSpan(8)))
	_, _, err := r.tryDequeue()
	if err == nil || !errors.Is(err, errRingCorrupt) {
		t.Fatalf("err = %v, want wrapped errRingCorrupt", err)
	}
	if !strings.Contains(err.Error(), "no fragment stream") {
		t.Fatalf("error %q does not describe the orphan continuation", err)
	}
}

// TestShmWorldSendRecv: every pair exchanges through the in-process shared
// rings via the full communicator stack.
func TestShmWorldSendRecv(t *testing.T) {
	w := NewShmWorld(4)
	defer func() {
		for _, c := range w {
			c.Close()
		}
	}()
	for r := 1; r < 4; r++ {
		if err := w[0].Send(r, r, tensor.Vector{float64(r), float64(2 * r)}); err != nil {
			t.Fatal(err)
		}
		data, st, err := w[r].Recv(0, r)
		if err != nil || data[0] != float64(r) || st.Source != 0 {
			t.Fatalf("rank %d: %v %+v %v", r, data, st, err)
		}
		tensor.PutVector(data)
	}
}

// TestShmSelfSend: sending to self bypasses the rings entirely.
func TestShmSelfSend(t *testing.T) {
	w := NewShmWorld(2)
	defer func() {
		for _, c := range w {
			c.Close()
		}
	}()
	if err := w[1].Send(1, 5, tensor.Vector{42}); err != nil {
		t.Fatal(err)
	}
	data, st, err := w[1].Recv(1, 5)
	if err != nil || data[0] != 42 || st.Source != 1 {
		t.Fatalf("self send failed: %v %+v %v", data, st, err)
	}
	tensor.PutVector(data)
}

// TestShmFIFOPerPair: ring delivery preserves per-pair ordering under
// concurrent sends from multiple goroutines (the comm layer serializes
// nothing above the endpoint).
func TestShmFIFOPerPair(t *testing.T) {
	hub := NewShmHub(2)
	defer hub.Close()
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(1, comm.Message{Source: 0, Tag: i, Data: leasedVector(16, float64(i))}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case m := <-b.Inbox():
			if m.Tag != i {
				t.Fatalf("message %d arrived with tag %d (reordered)", i, m.Tag)
			}
			if m.Data[0] != float64(i) {
				t.Fatalf("message %d carries payload %v", i, m.Data[0])
			}
			tensor.PutVector(m.Data)
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

// TestShmLargeMessageStreams: a frame bigger than the whole ring must stream
// through it via fragmentation while the consumer drains concurrently.
func TestShmLargeMessageStreams(t *testing.T) {
	w := NewShmWorld(2)
	defer func() {
		for _, c := range w {
			c.Close()
		}
	}()
	payload := make(tensor.Vector, 1<<17) // 1 MiB of wire bytes vs a 512 KiB ring
	for i := range payload {
		payload[i] = float64(i)
	}
	go func() { _ = w[0].SendCopy(1, 0, payload, nil) }()
	data, _, err := w[1].Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !data.Equal(payload) {
		t.Fatal("large payload corrupted in transit")
	}
	tensor.PutVector(data)
}

// TestShmSendAfterClose mirrors the TCP/inproc contract: sends on a closed
// endpoint fail with ErrClosed and the inbox closes.
func TestShmSendAfterClose(t *testing.T) {
	hub := NewShmHub(2)
	ep := hub.Endpoint(0)
	ep.Close()
	if err := ep.Send(1, comm.Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	select {
	case _, ok := <-ep.Inbox():
		if ok {
			t.Fatal("expected closed inbox")
		}
	case <-time.After(time.Second):
		t.Fatal("inbox not closed")
	}
	if err := ep.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	hub.Close()
}

// TestShmPeerEOFIsReportedInBand: a peer closing its endpoint is a rank
// failure for the survivors, reported in the survivor's inbox after the
// frames the peer sent before closing — the surviving endpoint stays open,
// mirroring TCP EOF semantics. A clean exit is not a read error.
func TestShmPeerEOFIsReportedInBand(t *testing.T) {
	hub := NewShmHub(3)
	defer hub.Close()
	ep0 := hub.Endpoint(0)
	if err := hub.Endpoint(1).Send(0, comm.Message{Source: 1, Tag: 4, Data: leasedVector(8, 0)}); err != nil {
		t.Fatal(err)
	}
	hub.Endpoint(1).Close()
	expectFrame(t, nextMessage(t, ep0.Inbox()), 1, 4, 8)
	expectFailure(t, nextMessage(t, ep0.Inbox()), 1, io.EOF)
	if err := ep0.ReadError(); err != nil {
		t.Fatalf("ReadError = %v after a clean peer exit, want nil", err)
	}
	// Traffic with the healthy peer continues.
	if err := ep0.Send(2, comm.Message{Source: 0, Tag: 1, Data: leasedVector(4, 0)}); err != nil {
		t.Fatalf("send to healthy peer after EOF: %v", err)
	}
	m := <-hub.Endpoint(2).Inbox()
	tensor.PutVector(m.Data)
}

// TestShmCorruptRingFailsPeer: framing corruption in an incoming ring is
// recorded (ReadError), reported in band after the frames that preceded it,
// and aborts pending sends toward the corrupt peer — the shared-memory
// analogue of a TCP decode failure tearing down the connection.
func TestShmCorruptRingFailsPeer(t *testing.T) {
	hub := NewShmHub(2)
	defer hub.Close()
	ep0, ep1 := hub.Endpoint(0), hub.Endpoint(1)
	if err := ep0.Send(1, comm.Message{Source: 0, Tag: 4, Data: leasedVector(8, 0)}); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, nextMessage(t, ep1.Inbox()), 0, 4, 8)
	// Corrupt rank 0's ring toward rank 1 at its next record: an orphan
	// continuation record.
	r := ep0.out[1]
	r.prodMu.Lock()
	at := r.tail.Load()
	binary.LittleEndian.PutUint32(r.data[at&r.mask:], uint32(recCont)<<recTypeShift|8)
	r.tail.Store(at + uint64(recordSpan(8)))
	if r.consParked.Swap(0) != 0 {
		r.consWake.signal()
	}
	r.consWake.signal()
	r.prodMu.Unlock()

	expectFailure(t, nextMessage(t, ep1.Inbox()), 0, errRingCorrupt)
	if err := ep1.ReadError(); err == nil || !errors.Is(err, errRingCorrupt) {
		t.Fatalf("ReadError = %v, want wrapped errRingCorrupt", err)
	}
	// Sends toward the corrupt peer now fail instead of blocking forever.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := ep1.Send(0, comm.Message{Source: 1, Tag: 1, Data: leasedVector(4, 0)})
		if err != nil {
			if !errors.Is(err, ErrRingClosed) {
				t.Fatalf("send toward corrupt peer: err = %v, want ErrRingClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends toward the corrupt peer keep succeeding")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShmHubConnectsEveryPair pins what a ring allreduce's walk relies on at
// every world size: a hub connects each rank to every rank, itself included,
// so a frame sent along any (source, destination) pair arrives intact and
// attributed to its source.
func TestShmHubConnectsEveryPair(t *testing.T) {
	for size := 1; size <= 5; size++ {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			before := tensor.ReadPoolStats()
			hub := NewShmHub(size)
			var wg sync.WaitGroup
			for r := 0; r < size; r++ {
				ep := hub.Endpoint(r)
				wg.Add(1)
				go func() {
					defer wg.Done()
					seen := make([]bool, size)
					for i := 0; i < size; i++ {
						m := <-ep.Inbox()
						if m.Source < 0 || m.Source >= size || seen[m.Source] {
							t.Errorf("size %d rank %d: frame from rank %d, want one from each of the %d ranks", size, ep.Rank(), m.Source, size)
						} else {
							seen[m.Source] = true
						}
						if want := float64(m.Source*size + ep.Rank()); m.Tag != ep.Rank() || m.Data[0] != want || m.Data[3] != want+3 {
							t.Errorf("size %d rank %d: frame from %d has tag %d data %v, want tag %d data from %v",
								size, ep.Rank(), m.Source, m.Tag, m.Data, ep.Rank(), want)
						}
						tensor.PutVector(m.Data)
					}
				}()
			}
			for r := 0; r < size; r++ {
				ep := hub.Endpoint(r)
				for dest := 0; dest < size; dest++ {
					if err := ep.Send(dest, comm.Message{Source: r, Tag: dest, Data: leasedVector(4, float64(r*size+dest))}); err != nil {
						t.Fatalf("rank %d send to %d: %v", r, dest, err)
					}
				}
			}
			waitOrFatal(t, &wg, 10*time.Second, "all-pairs delivery")
			hub.Close()
			if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
				t.Errorf("%d leases leaked", n)
			}
		})
	}
}
