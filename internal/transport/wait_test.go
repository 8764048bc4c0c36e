package transport

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// TestWaiterIgnoresGOMAXPROCS is the regression test for budgets latched at
// package init: `go test -cpu` and callers set GOMAXPROCS after init, and a
// `-cpu 1` run on a multi-core box used to keep the 2048-sweep budget. A wait
// episode now costs the same few yields whatever GOMAXPROCS is or was.
func TestWaiterIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := &waiter{}
	for _, procs := range []int{1, 2, 1, 4} {
		runtime.GOMAXPROCS(procs)
		before, checks, atPark := w.counts, 0, false
		// Drive one whole episode without blocking: the ready re-check at the
		// park step reports work.
		for !atPark {
			checks++
			if !w.wait(func(uint32) {}, func() bool { atPark = true; return true }, nil) {
				t.Fatal("wait reported done on a nil channel")
			}
		}
		w.idle = 0
		if got := w.counts.Yields - before.Yields; got != ringYieldBudget || checks != ringYieldBudget+1 {
			t.Errorf("GOMAXPROCS=%d: episode took %d yields in %d steps, want %d yields then the park step", procs, got, checks, ringYieldBudget)
		}
	}
}

// settledStats polls ep.WaitStats until two reads 20 ms apart agree — every
// waiter of the endpoint has parked — and returns that snapshot.
func settledStats(t *testing.T, ep *ShmEndpoint) WaitStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	prev := ep.WaitStats()
	for {
		time.Sleep(20 * time.Millisecond)
		cur := ep.WaitStats()
		if cur == prev {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d wait stats never settled: %+v", ep.Rank(), cur)
		}
		prev = cur
	}
}

// TestWaitStatsOversubscribedPingPong is the count-based form of the
// oversubscription fix, independent of timing: with four ranks on two
// processors every frame costs a bounded number of yields, and an idle world
// stops counting. At the parent commit each delivered frame cost 2048 spin
// iterations and 64 yields per poller.
func TestWaitStatsOversubscribedPingPong(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	const frames = 500 // per rank, each direction
	before := tensor.ReadPoolStats()
	hub := NewShmHub(4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, peer := hub.Endpoint(r), r^1
			for i := 0; i < frames; i++ {
				if r < peer { // the lower rank serves, the higher returns
					if err := ep.Send(peer, comm.Message{Source: r, Tag: i, Data: leasedVector(8, float64(i))}); err != nil {
						t.Errorf("rank %d send %d: %v", r, i, err)
						return
					}
				}
				m := <-ep.Inbox()
				if m.Tag != i || m.Data[0] != float64(i) {
					t.Errorf("rank %d frame %d: got tag %d data %v", r, i, m.Tag, m.Data[0])
				}
				tensor.PutVector(m.Data)
				if r > peer {
					if err := ep.Send(peer, comm.Message{Source: r, Tag: i, Data: leasedVector(8, float64(i))}); err != nil {
						t.Errorf("rank %d send %d: %v", r, i, err)
						return
					}
				}
			}
		}(r)
	}
	waitOrFatal(t, &wg, 60*time.Second, "ping-pong")

	var total WaitStats
	for r := 0; r < 4; r++ {
		total.add(settledStats(t, hub.Endpoint(r)))
	}
	const delivered = 4 * frames
	if perFrame := float64(total.Yields) / delivered; perFrame > 8 {
		t.Errorf("%.1f yields per delivered frame (%+v), want <= 8", perFrame, total)
	}
	// One frame in flight per pair: every delivery is its own sweep, and at
	// rest every poller has parked.
	if total.Hits != delivered || total.Parks < 4 {
		t.Errorf("got %+v, want Hits = %d delivered frames and all 4 pollers parked", total, delivered)
	}
	time.Sleep(50 * time.Millisecond)
	var later WaitStats
	for r := 0; r < 4; r++ {
		later.add(hub.Endpoint(r).WaitStats())
	}
	if later != total {
		t.Errorf("idle world kept counting: %+v then %+v", total, later)
	}
	hub.Close()
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Errorf("%d leases leaked", n)
	}
}

// waitOrFatal is the liveness watchdog: wg must drain within limit.
func waitOrFatal(t *testing.T, wg *sync.WaitGroup, limit time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(limit):
		buf := make([]byte, 1<<16)
		t.Fatalf("%s made no progress for %v (lost wakeup?)\n%s", what, limit, buf[:runtime.Stack(buf, true)])
	}
}

// TestChaosShmWaitersOversubscribed stresses the park/wake contract where it
// is most exposed: processors fewer than, equal to and (on a small box)
// nominally above the rank count, over small rings so producers park on full
// rings as often as pollers park on empty ones, with both sides going idle on
// their own schedules. Pairwise and fan-in traffic each exercise a different
// flag set (ring prodParked/consParked, the poller's shared wake channel).
// The assertions are
// liveness (a watchdog, no wall-clock thresholds), per-source FIFO and lease
// balance.
func TestChaosShmWaitersOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const ranks = 4
	frames := 400
	if testing.Short() {
		frames = 100
	}
	// Payload sizes either side of the alias floor and the fragment threshold
	// of a 64 KiB ring (16 KiB records).
	sizes := []int{4, 700, 2048, 5000}

	// receive drains want frames from ep's inbox, checking that each source's
	// sequence numbers (carried in Data[0]) arrive in order, and goes idle on
	// its own schedule so producers meet full rings.
	receive := func(ep *ShmEndpoint, want int) {
		next := make([]float64, ranks)
		for i := 0; i < want; i++ {
			m, ok := <-ep.Inbox()
			if !ok {
				t.Errorf("rank %d inbox closed after %d of %d frames", ep.Rank(), i, want)
				return
			}
			if m.Data[0] != next[m.Source] {
				t.Errorf("rank %d: frame from %d carries seq %v, want %v", ep.Rank(), m.Source, m.Data[0], next[m.Source])
			}
			next[m.Source]++
			tensor.PutVector(m.Data)
			if i%29 == 28 {
				time.Sleep(300 * time.Microsecond)
			}
		}
	}
	// pause makes a producer go idle on a schedule coprime to the receivers',
	// so pollers meet empty rings.
	pause := func(i int) {
		if i%17 == 16 {
			time.Sleep(200 * time.Microsecond)
		}
	}

	patterns := []struct {
		name string
		run  func(hub *ShmHub, wg *sync.WaitGroup)
	}{
		{"pairwise", func(hub *ShmHub, wg *sync.WaitGroup) {
			for r := 0; r < ranks; r++ {
				wg.Add(2)
				go func(ep *ShmEndpoint) {
					defer wg.Done()
					for i := 0; i < frames; i++ {
						v := leasedVector(sizes[i%len(sizes)], float64(i))
						if err := ep.Send(ep.Rank()^1, comm.Message{Source: ep.Rank(), Tag: i, Data: v}); err != nil {
							t.Errorf("rank %d send %d: %v", ep.Rank(), i, err)
							return
						}
						pause(i)
					}
				}(hub.Endpoint(r))
				go func(ep *ShmEndpoint) { defer wg.Done(); receive(ep, frames) }(hub.Endpoint(r))
			}
		}},
		{"many-to-one", func(hub *ShmHub, wg *sync.WaitGroup) {
			for r := 1; r < ranks; r++ {
				wg.Add(1)
				go func(ep *ShmEndpoint) {
					defer wg.Done()
					for i := 0; i < frames; i++ {
						v := leasedVector(sizes[(i+ep.Rank())%len(sizes)], float64(i))
						if err := ep.SendBorrowed(0, comm.Message{Source: ep.Rank(), Tag: i, Data: v}); err != nil {
							t.Errorf("rank %d send %d: %v", ep.Rank(), i, err)
						}
						tensor.PutVector(v)
						pause(i + ep.Rank())
					}
				}(hub.Endpoint(r))
			}
			wg.Add(1)
			go func() { defer wg.Done(); receive(hub.Endpoint(0), (ranks-1)*frames) }()
		}},
		{"ring-relay", func(hub *ShmHub, wg *sync.WaitGroup) {
			// The allgather walk of a ring allreduce: per round each rank
			// sends its own frame to its successor, then forwards what its
			// predecessor sends for ranks-2 more hops — filled in place from
			// the incoming frame with Copy2, as the fused ring does, or
			// copied out when the frame is past one record.
			rounds := frames / (ranks - 1)
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(ep *ShmEndpoint) {
					defer wg.Done()
					rank := ep.Rank()
					next, prev := (rank+1)%ranks, (rank+ranks-1)%ranks
					local := make(tensor.Vector, sizes[len(sizes)-1])
					for i := 0; i < rounds; i++ {
						v := leasedVector(sizes[(i+rank)%len(sizes)], float64(i*ranks+rank))
						if err := ep.Send(next, comm.Message{Source: rank, Tag: i, Data: v}); err != nil {
							t.Errorf("rank %d send %d: %v", rank, i, err)
							return
						}
						for hop := 1; hop < ranks; hop++ {
							m, ok := <-ep.Inbox()
							if !ok {
								t.Errorf("rank %d inbox closed in round %d", rank, i)
								return
							}
							origin := (rank + ranks - hop) % ranks
							n, seed := sizes[(i+origin)%len(sizes)], float64(i*ranks+origin)
							if m.Source != prev || m.Tag != i || len(m.Data) != n || m.Data[0] != seed || m.Data[n-1] != seed+float64(n-1) {
								t.Errorf("rank %d round %d hop %d: frame from %d tag %d len %d, want origin %d's %d-element frame from %d",
									rank, i, hop, m.Source, m.Tag, len(m.Data), origin, n, prev)
								tensor.PutVector(m.Data)
								return
							}
							if hop < ranks-1 {
								handled, err := ep.SendFill(next, i, local[:n], m.Data, tensor.Copy2)
								if err == nil && !handled {
									err = ep.SendBorrowed(next, comm.Message{Source: rank, Tag: i, Data: m.Data})
								}
								if err != nil {
									t.Errorf("rank %d forward %d: %v", rank, i, err)
									tensor.PutVector(m.Data)
									return
								}
							}
							tensor.PutVector(m.Data)
						}
						pause(i + rank)
					}
				}(hub.Endpoint(r))
			}
		}},
	}

	for _, procs := range []int{1, 2, 4} {
		for _, p := range patterns {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, p.name), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				before := tensor.ReadPoolStats()
				hub := NewShmHubRing(ranks, 1<<16)
				var wg sync.WaitGroup
				p.run(hub, &wg)
				waitOrFatal(t, &wg, 2*time.Minute, p.name)
				var pollers, total WaitStats
				for r := 0; r < ranks; r++ {
					pollers.add(hub.Endpoint(r).poll.snapshot())
					total.add(hub.Endpoint(r).WaitStats())
				}
				// How often each side parked depends on the schedule the run
				// drew, so it is logged, not asserted.
				t.Logf("all waiters %+v, pollers alone %+v", total, pollers)
				hub.Close()
				if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
					t.Errorf("%d leases leaked", n)
				}
			})
		}
	}
}

// TestShmExitReportedAfterRingDrained: what a rank sent before closing
// reaches its peers before they are told it exited — a receive naming the
// peer must not fail with its data still in the ring. On one processor the
// consumer's poller cannot run between the send and the Close, so its next
// sweep meets the unread frame and the producer's close together.
func TestShmExitReportedAfterRingDrained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	before := tensor.ReadPoolStats()
	hub := NewShmHub(2)
	consumer := hub.Endpoint(0)
	inbox := consumer.Inbox()
	time.Sleep(10 * time.Millisecond) // both pollers park
	if err := hub.Endpoint(1).Send(0, comm.Message{Source: 1, Tag: 7, Data: leasedVector(64, 0)}); err != nil {
		t.Fatal(err)
	}
	hub.Endpoint(1).Close()
	expectFrame(t, nextMessage(t, inbox), 1, 7, 64)
	expectFailure(t, nextMessage(t, inbox), 1, io.EOF)
	if err := consumer.ReadError(); err != nil {
		t.Errorf("ReadError = %v after a clean peer exit, want nil", err)
	}
	hub.Close()
	for m := range inbox {
		tensor.PutVector(m.Data)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Errorf("%d leases leaked", n)
	}
}

// deafEndpoint is a ShmEndpoint whose communicator is never told a peer
// exited: its inbox never starts the poller, so it pins the window between a
// peer closing its rings and this rank's poller reporting the exit, in which
// a send must already fail typed.
type deafEndpoint struct {
	*ShmEndpoint
	silent chan comm.Message
}

func newDeafEndpoint(ep *ShmEndpoint) deafEndpoint {
	return deafEndpoint{ep, make(chan comm.Message)}
}

func (e deafEndpoint) Inbox() <-chan comm.Message { return e.silent }

func (e deafEndpoint) Close() error {
	err := e.ShmEndpoint.Close()
	close(e.silent)
	return err
}

// TestShmSendToClosedPeerIsPeerDown: a send that finds the destination's ring
// closed by its consumer carries comm.ErrPeerDown by itself, on every send
// path, whether or not the communicator has marked the peer down yet.
func TestShmSendToClosedPeerIsPeerDown(t *testing.T) {
	before := tensor.ReadPoolStats()
	hub := NewShmHub(2)
	c := comm.NewCommunicator(newDeafEndpoint(hub.Endpoint(0)))
	hub.Endpoint(1).Close()
	data := tensor.NewVector(64)
	copyInto := func(dst, a, _ tensor.Vector) { copy(dst, a) }
	for name, err := range map[string]error{
		"Send":     c.Send(1, 3, tensor.GetVectorCopy(data)),
		"SendCopy": c.SendCopy(1, 3, data, nil),
		"SendFrom": c.SendFrom(1, 3, data, data, copyInto),
	} {
		if !errors.Is(err, comm.ErrPeerDown) || !errors.Is(err, ErrRingClosed) {
			t.Errorf("%s to a closed peer: err = %v, want a PeerDownError wrapping ErrRingClosed", name, err)
		}
		var down *comm.PeerDownError
		if errors.As(err, &down) && down.Rank != 1 {
			t.Errorf("%s: PeerDownError names rank %d, want 1", name, down.Rank)
		}
	}
	if c.PeerError(1) != nil {
		t.Error("the send marked the peer down for receivers")
	}
	c.Close()
	hub.Close()
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Errorf("%d leases leaked", n)
	}
}
