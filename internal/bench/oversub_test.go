package bench

import (
	"fmt"
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

// perRound times ring allreduces of n elements over w and returns the best
// per-round mean of five batches of rounds, after one warm-up batch. Load from
// outside the process can only slow a batch down, so the best one is the
// closest to what the transport itself costs.
func perRound(tb testing.TB, w []*comm.Communicator, n, rounds int) time.Duration {
	tb.Helper()
	data := make([]tensor.Vector, len(w))
	for r := range data {
		data[r] = tensor.NewVector(n)
	}
	d := newRoundDriver(len(w), func(rank int) error {
		return collectives.AllreduceWith(w[rank], data[rank], collectives.OpSum, collectives.AlgoRing, collectives.Config{}, nil)
	})
	defer d.stop()
	best := time.Duration(math.MaxInt64)
	for batch := 0; batch < 6; batch++ {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := d.round(); err != nil {
				tb.Fatalf("round: %v", err)
			}
		}
		if el := time.Since(start) / time.Duration(rounds); batch > 0 && el < best {
			best = el
		}
	}
	return best
}

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
	for _, size := range []int{4, 8} {
		inproc := transport.NewInprocWorld(size)
		base := perRound(t, inproc, n, 100)
		inproc[0].Close()
		shm := transport.NewShmWorld(size)
		got := perRound(t, shm, n, 100)
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

// BenchmarkTransportFloors is the blocking transport gate CI's bench-smoke job
// runs at GOMAXPROCS 1 and 2: same-process throughput ratios of the 4-rank
// ring allreduce, so the runner's speed cancels out. The shared rings must
// beat TCP loopback at bandwidth-bound sizes — by less on two processors,
// where TCP's kernel half runs beside the ranks (DESIGN.md, "Park/wake
// protocol": 2.7-3.1x on one, 2.3-2.8x on two) — and at a latency-bound size
// they may not fall below 0.3x the in-process channel transport (0.5-0.8x; it
// was 0.01x when ring ends busy-waited on fixed spin budgets). One iteration
// is one full measurement with fixed round counts; it is a benchmark, not a
// test, so `go test ./...` never asserts on the wall clock.
func BenchmarkTransportFloors(b *testing.B) {
	if testing.Short() || race.Enabled {
		b.Skip("wall-clock ratios need a full, uninstrumented measurement")
	}
	shmOverTCP := 2.6
	if runtime.GOMAXPROCS(0) > 1 {
		shmOverTCP = 2.0
	}
	floors := []struct {
		num, den  string
		n, rounds int
		min       float64
	}{
		{"shm", "tcp", 1 << 16, 100, shmOverTCP},
		{"shm", "tcp", 1 << 20, 20, shmOverTCP},
		{"shm", "inproc", 1 << 10, 300, 0.3},
	}
	worlds := make(map[string]worldFactory)
	for _, tr := range transports() {
		worlds[tr.name] = tr
	}
	for i := 0; i < b.N; i++ {
		for _, f := range floors {
			// One world at a time: two live worlds evict each other's rings
			// and vectors from the cache between batches.
			measure := func(name string) time.Duration {
				w, cleanup := worlds[name].make(b, benchRanks)
				defer cleanup()
				return perRound(b, w, f.n, f.rounds)
			}
			den, num := measure(f.den), measure(f.num)
			ratio := float64(den) / float64(num)
			b.ReportMetric(ratio, fmt.Sprintf("%s/%s@%d", f.num, f.den, f.n))
			b.Logf("GOMAXPROCS=%d n=%d: %s %v, %s %v per round: %.2fx (floor %.1fx)",
				runtime.GOMAXPROCS(0), f.n, f.num, num, f.den, den, ratio, f.min)
			if ratio < f.min {
				b.Errorf("%s ring allreduce at n=%d reaches %.2fx the %s throughput, want >= %.1fx", f.num, f.n, ratio, f.den, f.min)
			}
		}
	}
}
