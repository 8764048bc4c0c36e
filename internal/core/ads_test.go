package core_test

import (
	"sync"
	"testing"
	"time"

	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// adsResponse is the response tuple of one invocation of the asynchronous
// distributed sum (ADS), the round-indexed shared object the convergence proof
// of §5.1 reasons about: U_t, the averaged update decided for the round, and
// what partial.Allreducer.Exchange reports about it (s_t^i is info.Included,
// the quorum size info.ActiveProcesses).
type adsResponse struct {
	update tensor.Vector
	info   partial.RoundInfo
}

// invoke proposes one update through the allreducer and averages the decided
// sum over the world size (Algorithm 2, line 6).
func invoke(a *partial.Allreducer, size int, proposal tensor.Vector) (adsResponse, error) {
	sum, info, err := a.Exchange(proposal)
	if err != nil {
		return adsResponse{}, err
	}
	sum.Scale(1 / float64(size))
	return adsResponse{update: sum, info: info}, nil
}

// TestADSLemma51Properties exercises the shared-object guarantees the
// convergence proof relies on (Lemma 5.1), directly on partial.Allreducer:
// liveness (every invocation returns), per-round agreement, quorum >= 1 fresh
// proposal per round, and the staleness-bound property that rejected
// proposals are folded into later rounds rather than dropped.
func TestADSLemma51Properties(t *testing.T) {
	const p = 4
	const dim = 3
	const rounds = 8
	world := transport.NewInprocWorld(p)
	defer world[0].Close()
	objs := make([]*partial.Allreducer, p)
	for r := 0; r < p; r++ {
		objs[r] = partial.New(world[r], dim, partial.Options{Mode: partial.Solo})
		defer objs[r].Close()
	}

	totalProposed := tensor.NewVector(dim)
	totalObserved := tensor.NewVector(dim) // rank 0's per-round updates, scaled back by P

	for round := 0; round < rounds; round++ {
		responses := make([]adsResponse, p)
		proposals := make([]tensor.Vector, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			proposals[r] = tensor.Vector{float64(round + 1), float64(r), 1}
			totalProposed.Add(proposals[r])
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				// Stagger arrivals so some proposals are rejected.
				time.Sleep(time.Duration(r*(round%3)) * time.Millisecond)
				resp, err := invoke(objs[r], p, proposals[r])
				if err != nil {
					t.Errorf("rank %d round %d: %v", r, round, err)
					return
				}
				responses[r] = resp
			}(r)
		}
		wg.Wait()

		// Liveness held (all invocations returned). Agreement: every rank
		// observed the same update for the same observed round (with
		// lockstep rounds there is exactly one observed round).
		for r := 1; r < p; r++ {
			if !responses[r].update.Equal(responses[0].update) {
				t.Fatalf("round %d: rank %d observed a different update", round, r)
			}
		}
		// Quorum >= 1 and the update equals the average of the included
		// proposals.
		included := tensor.NewVector(dim)
		q := 0
		for r := 0; r < p; r++ {
			if responses[r].info.Included {
				included.Add(proposals[r])
				q++
			}
		}
		if q < 1 {
			t.Fatalf("round %d: quorum of zero", round)
		}
		if responses[0].info.ActiveProcesses != q {
			t.Fatalf("round %d: reported quorum %d, counted %d", round, responses[0].info.ActiveProcesses, q)
		}
		// The update may also carry stale proposals from earlier rounds, so
		// compare the cumulative sums at the end instead of per round; here
		// we only check the update is consistent in scale.
		scaled := responses[0].update.Clone()
		scaled.Scale(float64(p))
		totalObserved.Add(scaled)
	}

	// Staleness bound / conservation: after a final drain round everything
	// proposed has been delivered exactly once.
	var wg sync.WaitGroup
	drain := make([]adsResponse, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			resp, err := invoke(objs[r], p, tensor.NewVector(dim))
			if err != nil {
				t.Errorf("drain rank %d: %v", r, err)
				return
			}
			drain[r] = resp
		}(r)
	}
	wg.Wait()
	scaled := drain[0].update.Clone()
	scaled.Scale(float64(p))
	totalObserved.Add(scaled)
	if !totalObserved.AllClose(totalProposed, 1e-9) {
		t.Fatalf("conservation violated: observed %v, proposed %v", totalObserved, totalProposed)
	}
	for r := 0; r < p; r++ {
		if objs[r].PendingStale() != 0 {
			t.Fatalf("rank %d still holds undelivered proposals after drain", r)
		}
	}
}
