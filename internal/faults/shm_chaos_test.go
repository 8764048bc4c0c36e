// Chaos scenario for the shared-ring fast paths: a rank dies while the world
// is mid fused-ring allreduce. Unlike the scripted scenarios in
// chaos_test.go, this one runs over a bare shared-ring world — no fault
// injector wrapping — because the injector hides the endpoint's optional
// capabilities (borrowed and in-place sends) and would silently route every
// rank onto the staged send paths, leaving the fast paths untested.
package faults_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// TestChaosShmRingRankCrash: four shared-ring ranks loop large fused ring
// allreduces — 16Ki-element chunks, so every hop's frame is filled in place
// and delivered to the next rank as a zero-copy alias of the ring span, and
// the allgather relays those aliased frames — and one rank closes its
// communicator between steps. The liveness and hygiene contract of the
// staged paths must hold on the fast paths too: every survivor surfaces a
// typed ErrRankUnreachable instead of hanging (the dead rank's rings read
// EOF, and sends toward it fail typed), and no pool lease leaks — aliased
// ring spans pinned by undelivered messages are released when the closing
// communicator drains its queues.
func TestChaosShmRingRankCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios take seconds")
	}
	const (
		size      = 4
		n         = 1 << 16 // 16Ki-element chunks: fused ring + aliased ring frames
		steps     = 8
		crashRank = 2
		crashStep = 3
	)
	leaseBalanced(t, func() {
		world := transport.NewShmWorld(size)
		defer func() {
			for _, c := range world {
				c.Close()
			}
		}()
		cfg := collectives.Config{PeerDeadline: 200 * time.Millisecond}
		errs := make([]error, size)
		stepsDone := make([]int, size)
		var wg sync.WaitGroup
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				data := make(tensor.Vector, n)
				for s := 0; s < steps; s++ {
					if r == crashRank && s == crashStep {
						world[r].Close() // crash: tears down its rings mid-world
						return
					}
					for i := range data {
						data[i] = float64(r + 1)
					}
					if err := collectives.AllreduceWith(world[r], data, collectives.OpSum,
						collectives.AlgoRing, cfg, nil); err != nil {
						errs[r] = err
						return
					}
					stepsDone[r]++
				}
			}(r)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(chaosWatchdog):
			t.Fatal("shared-ring crash scenario hung: a survivor neither completed nor failed (liveness violated)")
		}
		for r := 0; r < size; r++ {
			if r == crashRank {
				if errs[r] != nil {
					t.Errorf("crashing rank %d returned %v before its scripted close", r, errs[r])
				}
				continue
			}
			// Survivors completed every pre-crash step, then the collective
			// after the crash must abort typed: the failure detector turns
			// the dead rank's silence into ErrRankUnreachable.
			if stepsDone[r] < crashStep {
				t.Errorf("survivor %d completed %d steps before failing, want at least %d (pre-crash rounds must succeed)",
					r, stepsDone[r], crashStep)
			}
			if errs[r] == nil {
				t.Errorf("survivor %d completed all %d steps; the crash at step %d should have aborted it", r, steps, crashStep)
			} else if !errors.Is(errs[r], collectives.ErrRankUnreachable) {
				t.Errorf("survivor %d err = %v, want ErrRankUnreachable in the chain", r, errs[r])
			}
		}
	})
}
