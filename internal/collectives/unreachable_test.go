package collectives_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// TestAllreduceSurfacesRankUnreachable: with one rank marked down, every
// algorithm returns a typed ErrRankUnreachable from the ranks that depend on
// it instead of blocking — and the PeerDownError cause stays in the chain.
// The deadline matters even with the dead rank pre-marked: a live rank that
// aborts (because IT depended on the dead one) goes silent toward its own
// partners, and only the failure detector turns that silence into an error.
func TestAllreduceSurfacesRankUnreachable(t *testing.T) {
	algos := map[string]collectives.Algorithm{
		"recursive-doubling": collectives.AlgoRecursiveDoubling,
		"ring":               collectives.AlgoRing,
		"rabenseifner":       collectives.AlgoRabenseifner,
	}
	for name, algo := range algos {
		t.Run(name, func(t *testing.T) {
			const size = 4
			w := transport.NewInprocWorld(size)
			defer w[0].Close()
			// Rank 3 is dead; every live rank's detector already knows.
			for r := 0; r < size-1; r++ {
				w[r].MarkPeerDown(size-1, errors.New("dead"))
			}
			errs := make([]error, size-1)
			var wg sync.WaitGroup
			for r := 0; r < size-1; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					data := tensor.NewVector(64)
					errs[r] = collectives.AllreduceWith(w[r], data, collectives.OpSum, algo,
						collectives.Config{PeerDeadline: 100 * time.Millisecond}, nil)
				}(r)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("allreduce with a dead rank hung")
			}
			sawTyped := false
			for r, err := range errs {
				if err == nil {
					continue // a rank may legitimately finish its part before needing the dead peer
				}
				if !errors.Is(err, collectives.ErrRankUnreachable) {
					t.Errorf("rank %d err = %v, want ErrRankUnreachable in the chain", r, err)
				}
				if errors.Is(err, comm.ErrPeerDown) {
					sawTyped = true
				}
			}
			if !sawTyped {
				t.Error("no rank surfaced the underlying PeerDownError")
			}
		})
	}
}

// TestAllreduceDeadlineDetectsSilentRank: without prior marking, the
// Config.PeerDeadline failure detector suspects the absent rank and the
// collective aborts typed.
func TestAllreduceDeadlineDetectsSilentRank(t *testing.T) {
	const size = 2
	w := transport.NewInprocWorld(size)
	defer w[0].Close()
	data := tensor.NewVector(16)
	err := collectives.AllreduceWith(w[0], data, collectives.OpSum, collectives.AlgoRecursiveDoubling,
		collectives.Config{PeerDeadline: 30 * time.Millisecond}, nil)
	if !errors.Is(err, collectives.ErrRankUnreachable) {
		t.Fatalf("err = %v, want ErrRankUnreachable", err)
	}
	if !errors.Is(err, comm.ErrPeerDeadline) {
		t.Fatalf("err = %v, want ErrPeerDeadline as the cause", err)
	}
}

// deafEndpoint is a shared-ring endpoint whose communicator is never told a
// peer exited — its inbox never starts the poller, pinning the window in
// which a survivor's send meets the dead rank's closed ring before its own
// poller has reported the exit.
type deafEndpoint struct {
	*transport.ShmEndpoint
	silent chan comm.Message
}

func (e deafEndpoint) Inbox() <-chan comm.Message { return e.silent }

func (e deafEndpoint) Close() error {
	err := e.ShmEndpoint.Close()
	close(e.silent)
	return err
}

// TestAllreduceSendIntoClosedRingIsRankUnreachable: the failed send alone
// types the collective's error; no peer-down mark is needed first.
func TestAllreduceSendIntoClosedRingIsRankUnreachable(t *testing.T) {
	for name, algo := range map[string]collectives.Algorithm{
		"recursive-doubling": collectives.AlgoRecursiveDoubling,
		"ring":               collectives.AlgoRing,
		"rabenseifner":       collectives.AlgoRabenseifner,
	} {
		t.Run(name, func(t *testing.T) {
			hub := transport.NewShmHub(2)
			defer hub.Close()
			c := comm.NewCommunicator(deafEndpoint{hub.Endpoint(0), make(chan comm.Message)})
			defer c.Close()
			hub.Endpoint(1).Close()
			err := collectives.AllreduceWith(c, tensor.NewVector(64), collectives.OpSum, algo,
				collectives.Config{PeerDeadline: 5 * time.Second}, nil)
			if !errors.Is(err, collectives.ErrRankUnreachable) || !errors.Is(err, comm.ErrPeerDown) {
				t.Fatalf("err = %v, want ErrRankUnreachable over a PeerDownError", err)
			}
		})
	}
}
