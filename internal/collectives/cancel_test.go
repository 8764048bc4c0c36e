package collectives_test

import (
	"testing"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// stallEndpoint is rank 0 of a two-rank world whose Send blocks until release
// is closed and then, like the real transports, releases the payload it owns:
// a peer stuck on transport backpressure (a frozen TCP receiver).
type stallEndpoint struct {
	release chan struct{}
	inbox   chan comm.Message
}

func (s *stallEndpoint) Rank() int { return 0 }
func (s *stallEndpoint) Size() int { return 2 }
func (s *stallEndpoint) Send(dest int, m comm.Message) error {
	<-s.release
	tensor.PutVector(m.Data)
	return nil
}
func (s *stallEndpoint) Inbox() <-chan comm.Message { return s.inbox }
func (s *stallEndpoint) Close() error {
	close(s.inbox)
	return nil
}

// TestAllreduceCancelUnblocksStalledSend: a canceled collective whose send is
// stuck on a stalled peer returns comm.ErrCanceled promptly — on the combined
// exchange step (recursive doubling) and on the segment stream (the pipelined
// ring) — and once the stall clears and the communicator closes, the
// abandoned sends have returned every lease.
func TestAllreduceCancelUnblocksStalledSend(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		algo collectives.Algorithm
		cfg  collectives.Config
	}{
		{"recursive-doubling", 8, collectives.AlgoRecursiveDoubling, collectives.Config{}},
		{"ring-segmented", 64, collectives.AlgoRing, collectives.Config{SegmentElems: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := tensor.ReadPoolStats()
			ep := &stallEndpoint{release: make(chan struct{}), inbox: make(chan comm.Message)}
			c := comm.NewCommunicator(ep)
			cancel := make(chan struct{})
			time.AfterFunc(5*time.Millisecond, func() { close(cancel) })
			done := make(chan error, 1)
			go func() {
				done <- collectives.AllreduceWith(c, tensor.NewVector(tc.n), collectives.OpSum, tc.algo, tc.cfg, cancel)
			}()
			select {
			case err := <-done:
				if err != comm.ErrCanceled {
					t.Fatalf("err = %v, want comm.ErrCanceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("canceled allreduce hung on a stalled send")
			}
			close(ep.release)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
				t.Fatalf("%d pool lease(s) out after Close", leaked)
			}
		})
	}
}
