package collectives_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// plainEndpoint strips every optional capability from an endpoint by
// interface embedding: the struct satisfies comm.Endpoint and nothing else,
// so a communicator built over it takes only the staged send paths —
// retained copies instead of borrowed sends, staged frames instead of
// in-place fills. Wrapping every rank of a shared-ring hub yields a world
// that moves the same bytes over the same rings but exercises none of the
// communicator's send fast paths, which is exactly the baseline the
// equivalence tests below compare against.
type plainEndpoint struct{ comm.Endpoint }

// newPlainShmWorld builds a shared-ring world whose communicators see only
// the bare comm.Endpoint surface (see plainEndpoint).
func newPlainShmWorld(p int) []*comm.Communicator {
	hub := transport.NewShmHub(p)
	world := make([]*comm.Communicator, p)
	for r := 0; r < p; r++ {
		world[r] = comm.NewCommunicator(plainEndpoint{hub.Endpoint(r)})
	}
	return world
}

// runWorld drives body on every rank of a prebuilt world, fails the test on
// any rank error, and closes the world afterwards.
func runWorld(t *testing.T, world []*comm.Communicator, body func(c *comm.Communicator) error) {
	t.Helper()
	defer func() {
		for _, c := range world {
			c.Close()
		}
	}()
	p := len(world)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(world[r])
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective did not complete (deadlock)")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestAllreduceBorrowedAndFilledSendsMatchStaged: an allreduce over the send
// fast paths — borrowed sends and in-place fills — must produce results
// bit-for-bit identical to the same allreduce over staged sends on the same
// transport, for every algorithm and for
// Auto, the one the reducers run. The size sweep crosses every routing
// boundary: tiny fused chunks, chunks below and above the alias threshold, a
// non-divisible element count (unequal chunk bounds), and a chunk past the
// segment bound that must fall back to the segmented unfused path on both
// worlds.
func TestAllreduceBorrowedAndFilledSendsMatchStaged(t *testing.T) {
	algos := []struct {
		name string
		algo collectives.Algorithm
	}{
		{"ring", collectives.AlgoRing},
		{"recursive-doubling", collectives.AlgoRecursiveDoubling},
		{"rabenseifner", collectives.AlgoRabenseifner},
		{"auto", collectives.AlgoAuto},
	}
	for _, p := range []int{3, 4} {
		ns := []int{
			p + 3,                                 // tiny fused chunks, far below the alias threshold
			4096,                                  // mid-size, still copied out of the ring
			collectives.DefaultSegmentElems * p,   // max fused chunk: zero-copy alias
			collectives.DefaultSegmentElems*p - 7, // non-divisible: unequal chunk bounds
			4*collectives.DefaultSegmentElems + 5, // chunk past the segment bound: segmented fallback
		}
		for _, n := range ns {
			for _, ac := range algos {
				p, n, ac := p, n, ac
				t.Run(fmt.Sprintf("%s/p%d_n%d", ac.name, p, n), func(t *testing.T) {
					run := func(world []*comm.Communicator) []tensor.Vector {
						results := make([]tensor.Vector, p)
						runWorld(t, world, func(c *comm.Communicator) error {
							data := makeContribution(c.Rank(), n)
							if err := collectives.AllreduceWith(c, data, collectives.OpSum, ac.algo, collectives.Config{}, nil); err != nil {
								return err
							}
							results[c.Rank()] = data
							return nil
						})
						return results
					}
					staged := run(newPlainShmWorld(p))
					fast := run(transport.NewShmWorld(p))
					for r := 0; r < p; r++ {
						for i := range staged[r] {
							if staged[r][i] != fast[r][i] {
								t.Fatalf("rank %d elem %d: staged %v != fast %v (fast path diverged)",
									r, i, staged[r][i], fast[r][i])
							}
						}
					}
				})
			}
		}
	}
}
