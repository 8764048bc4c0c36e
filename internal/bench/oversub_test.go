package bench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/race"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// TestAllreduceShmOversubscribedNearInproc is the same-run ratio gate for the
// rings' waiting rule: with more ranks than processors (4 and 8 ranks on
// GOMAXPROCS=2) a 1Ki-element ring allreduce over shm must stay within 8x of
// the in-process channel transport measured in the same process. Both sides
// pay the same scheduler hand-offs, so the ratio is what the rings add; with
// waiters that busy-wait while their peers need the processor it is ~100x.
func TestAllreduceShmOversubscribedNearInproc(t *testing.T) {
	if race.Enabled {
		t.Skip("timing ratio is meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	const n = 1024
	// perRound is the best of three 100-round batches, after warm-up.
	perRound := func(w []*comm.Communicator) time.Duration {
		data := make([]tensor.Vector, len(w))
		for r := range data {
			data[r] = tensor.NewVector(n)
		}
		d := newRoundDriver(len(w), func(rank int) error {
			return collectives.AllreduceWith(w[rank], data[rank], collectives.OpSum, collectives.AlgoRing, collectives.Config{}, nil)
		})
		defer d.stop()
		best := time.Duration(math.MaxInt64)
		for batch := 0; batch < 4; batch++ {
			start := time.Now()
			for i := 0; i < 100; i++ {
				if err := d.round(); err != nil {
					t.Fatalf("round: %v", err)
				}
			}
			if el := time.Since(start) / 100; batch > 0 && el < best {
				best = el
			}
		}
		return best
	}
	for _, size := range []int{4, 8} {
		inproc := transport.NewInprocWorld(size)
		base := perRound(inproc)
		inproc[0].Close()
		shm := transport.NewShmWorld(size)
		got := perRound(shm)
		for _, c := range shm {
			c.Close()
		}
		t.Logf("%d ranks on 2 processors: shm %v, inproc %v per 1Ki ring allreduce (%.1fx)", size, got, base, float64(got)/float64(base))
		if got > 8*base {
			t.Errorf("%d ranks on 2 processors: shm ring allreduce takes %v, inproc %v: %.1fx, want <= 8x",
				size, got, base, float64(got)/float64(base))
		}
	}
}
