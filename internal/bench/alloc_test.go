package bench

import (
	"fmt"
	"testing"

	"eagersgd/internal/collectives"
	"eagersgd/internal/partial"
	"eagersgd/internal/race"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// These tests are the allocation-regression gate of the zero-copy message
// substrate (run by plain `go test ./...`): a steady-state in-process
// allreduce round must allocate exactly zero heap objects per operation, for
// every algorithm, on power-of-two and folded (non-power-of-two) world sizes.
// Any defensive clone, per-exchange goroutine, or unpooled wire buffer
// reintroduced anywhere on the path tensor -> transport -> comm -> collectives
// shows up here as a failure.

// roundDriver runs one multi-rank round per call via persistent workers, so
// AllocsPerRun measures only the steady-state collective, not goroutine spawns.
type roundDriver struct {
	size  int
	start []chan struct{}
	done  chan error
}

func newRoundDriver(size int, body func(rank int) error) *roundDriver {
	d := &roundDriver{size: size, start: make([]chan struct{}, size), done: make(chan error, size)}
	for r := 0; r < size; r++ {
		d.start[r] = make(chan struct{})
		go func(r int) {
			for range d.start[r] {
				d.done <- body(r)
			}
		}(r)
	}
	return d
}

func (d *roundDriver) round() error {
	for r := 0; r < d.size; r++ {
		d.start[r] <- struct{}{}
	}
	var first error
	for r := 0; r < d.size; r++ {
		if err := <-d.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (d *roundDriver) stop() {
	for r := 0; r < d.size; r++ {
		close(d.start[r])
	}
}

func TestAllreduceInprocAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if tensor.LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	const n = 2048
	for _, ac := range allreduceAlgos {
		for _, size := range []int{4, 3} { // power-of-two and folded sizes
			t.Run(fmt.Sprintf("%s/p=%d", ac.name, size), func(t *testing.T) {
				w := transport.NewInprocWorld(size)
				defer w[0].Close()
				data := make([]tensor.Vector, size)
				for r := range data {
					data[r] = tensor.NewVector(n)
					data[r].Fill(1)
				}
				d := newRoundDriver(size, func(rank int) error {
					return collectives.AllreduceWith(w[rank], data[rank], collectives.OpSum, ac.algo, collectives.Config{}, nil)
				})
				defer d.stop()
				// Warm the vector pool, the box pool, the unexpected-queue
				// capacities, and the demux scheduling before measuring.
				for i := 0; i < 32; i++ {
					if err := d.round(); err != nil {
						t.Fatalf("warmup round: %v", err)
					}
				}
				avg := testing.AllocsPerRun(100, func() {
					if err := d.round(); err != nil {
						t.Fatalf("round: %v", err)
					}
				})
				if avg > 0 {
					t.Errorf("steady-state inproc allreduce (%s, %d ranks) allocates %.2f objects per round, want 0",
						ac.name, size, avg)
				}
			})
		}
	}
}

// TestAllreduceShmAllocFree is the same gate for the shared-ring transport: a
// steady-state allreduce round over per-pair SPSC rings — frames encoded in
// place into a reserved ring span on send, decoded into pooled vectors on
// receive — must allocate zero heap objects per round, like inproc. The
// 64Ki-element ring case gives each of 4 ranks a 16Ki-element (128 KiB)
// chunk: the fused ring, its Copy2 ring-walk allgather, and ring frames
// delivered as zero-copy aliases, which the 2048-element cases never reach
// (they stay below the 16 KiB alias floor).
func TestAllreduceShmAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if tensor.LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	type shmCase struct {
		name    string
		algo    collectives.Algorithm
		size, n int
	}
	var cases []shmCase
	for _, ac := range allreduceAlgos {
		for _, size := range []int{4, 3} { // power-of-two and folded sizes
			cases = append(cases, shmCase{fmt.Sprintf("%s/p=%d", ac.name, size), ac.algo, size, 2048})
		}
	}
	cases = append(cases, shmCase{"ring/p=4/n=65536", collectives.AlgoRing, 4, 1 << 16})
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			w := transport.NewShmWorld(sc.size)
			defer func() {
				for _, c := range w {
					c.Close()
				}
			}()
			data := make([]tensor.Vector, sc.size)
			for r := range data {
				data[r] = tensor.NewVector(sc.n)
				data[r].Fill(1)
			}
			d := newRoundDriver(sc.size, func(rank int) error {
				return collectives.AllreduceWith(w[rank], data[rank], collectives.OpSum, sc.algo, collectives.Config{}, nil)
			})
			defer d.stop()
			// Warm the pools and the alias table before measuring.
			for i := 0; i < 32; i++ {
				if err := d.round(); err != nil {
					t.Fatalf("warmup round: %v", err)
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if err := d.round(); err != nil {
					t.Fatalf("round: %v", err)
				}
			})
			if avg > 0 {
				t.Errorf("steady-state shm allreduce (%s) allocates %.2f objects per round, want 0", sc.name, avg)
			}
		})
	}
}

// TestAllreducePipelinedInprocAllocFree is the same gate for the pipelined
// paths: at 256Ki elements the ring moves 4 segments per chunk exchange and
// Rabenseifner 8 per first halving (default 16Ki-element segments), so this
// exercises the windowed multi-segment stream — which must recycle its
// double-buffered leases through the pool without allocating.
func TestAllreducePipelinedInprocAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if tensor.LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	const n = 1 << 18
	for _, ac := range allreduceAlgos {
		if ac.algo == collectives.AlgoRecursiveDoubling {
			continue // not segmented: covered by the plain gate above
		}
		t.Run(ac.name, func(t *testing.T) {
			const size = 4
			w := transport.NewInprocWorld(size)
			defer w[0].Close()
			data := make([]tensor.Vector, size)
			for r := range data {
				data[r] = tensor.NewVector(n)
				data[r].Fill(1)
			}
			d := newRoundDriver(size, func(rank int) error {
				return collectives.AllreduceWith(w[rank], data[rank], collectives.OpSum, ac.algo, collectives.Config{}, nil)
			})
			defer d.stop()
			for i := 0; i < 16; i++ {
				if err := d.round(); err != nil {
					t.Fatalf("warmup round: %v", err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := d.round(); err != nil {
					t.Fatalf("round: %v", err)
				}
			})
			if avg > 0 {
				t.Errorf("steady-state pipelined inproc allreduce (%s) allocates %.2f objects per round, want 0", ac.name, avg)
			}
		})
	}
}

// TestModelComputeAllocFree gates the batched model compute: once a warm-up
// call has sized the model's workspaces, a minibatch gradient at each
// eagerbench model shape, and a classification Evaluate, allocate nothing.
func TestModelComputeAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	for _, mc := range modelCases() {
		t.Run(mc.name, func(t *testing.T) {
			mc.grad(0)
			if avg := testing.AllocsPerRun(10, func() { mc.grad(0) }); avg > 0 {
				t.Errorf("steady-state BatchGradient allocates %.2f objects per call, want 0", avg)
			}
			if mc.evaluate == nil {
				return
			}
			mc.evaluate()
			if avg := testing.AllocsPerRun(10, func() { mc.evaluate() }); avg > 0 {
				t.Errorf("steady-state Evaluate allocates %.2f objects per call, want 0", avg)
			}
		})
	}
}

// partialRoundAllocBudget bounds the per-round allocations of one eager
// (solo) partial-allreduce round across 4 ranks. An eager round inherently
// allocates: each round builds a fresh schedule DAG and executor and spawns
// the operations' goroutines (§4.1.1 persistent schedules re-instantiate per
// round). The data buffers themselves are pooled, so the budget is bounded by
// the DAG size and independent of the gradient dimension — at the time the
// substrate landed a round measured ~244 objects (down from ~290 before
// pooling, with B/op dominated by gradient-sized clones). The budget
// leaves headroom for scheduling jitter while still catching any reintroduced
// per-element or per-hop allocation.
const partialRoundAllocBudget = 400

func TestPartialRoundAllocBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if tensor.LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	const (
		size = 4
		n    = 16384
	)
	w := transport.NewInprocWorld(size)
	defer w[0].Close()
	ars := make([]*partial.Allreducer, size)
	for r := range ars {
		ars[r] = partial.New(w[r], n, partial.Options{Mode: partial.Solo, Seed: 3})
	}
	grads := make([]tensor.Vector, size)
	for r := range grads {
		grads[r] = tensor.NewVector(n)
		grads[r].Fill(1)
	}
	d := newRoundDriver(size, func(rank int) error {
		sum, _, err := ars[rank].Exchange(grads[rank])
		if err == nil {
			tensor.PutVector(sum)
		}
		return err
	})
	defer d.stop()
	for i := 0; i < 16; i++ {
		if err := d.round(); err != nil {
			t.Fatalf("warmup round: %v", err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := d.round(); err != nil {
			t.Fatalf("round: %v", err)
		}
	})
	if avg > partialRoundAllocBudget {
		t.Errorf("eager round allocates %.0f objects across %d ranks, budget %d", avg, size, partialRoundAllocBudget)
	}
}
