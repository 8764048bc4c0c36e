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

// runSPMDShm is runSPMD over the shared-ring transport, where the ring
// allreduce takes the fused fill-send path (reduce-scatter partials computed
// straight into the outgoing ring frame).
func runSPMDShm(t *testing.T, p int, body func(c *comm.Communicator) error) {
	t.Helper()
	world := transport.NewShmWorld(p)
	defer func() {
		for _, c := range world {
			c.Close()
		}
	}()
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

// TestAllreduceRingFusedMatchesUnfused: the fused ring allreduce (shared
// rings, single-segment regime) must produce results bit-for-bit identical to
// the unfused path (in-process transport, same algorithm) — the fill kernel
// adds operands in the same order tensor.AddVec would, and the fused wire
// stream is the unfused one. Sizes cross the fused gate: n >= p with the
// per-rank chunk within one default segment, plus a chunk straddling the
// segment bound (> DefaultSegmentElems per chunk) that must fall back to the
// segmented unfused path and still agree.
func TestAllreduceRingFusedMatchesUnfused(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8} {
		for _, n := range []int{p, 64, 1000, 4*collectives.DefaultSegmentElems + 5} {
			p, n := p, n
			t.Run(fmt.Sprintf("p%d_n%d", p, n), func(t *testing.T) {
				run := func(spmd func(*testing.T, int, func(c *comm.Communicator) error)) []tensor.Vector {
					results := make([]tensor.Vector, p)
					spmd(t, p, func(c *comm.Communicator) error {
						data := makeContribution(c.Rank(), n)
						if err := collectives.AllreduceWith(c, data, collectives.OpSum, collectives.AlgoRing, collectives.Config{}, nil); err != nil {
							return err
						}
						results[c.Rank()] = data
						return nil
					})
					return results
				}
				unfused := run(runSPMD)
				fused := run(runSPMDShm)
				for r := 0; r < p; r++ {
					for i := range unfused[r] {
						if unfused[r][i] != fused[r][i] {
							t.Fatalf("rank %d elem %d: inproc %v != shm %v (fused path diverged)",
								r, i, unfused[r][i], fused[r][i])
						}
					}
				}
			})
		}
	}
}
