package collective

import (
	"context"
	"fmt"
	"testing"

	"eagersgd/internal/race"
	"eagersgd/internal/tensor"
)

// TestReducerAllocFree is the allocation gate of the exchange path: once the
// vector pool and the reducers' step records are warm, a Reduce and a
// four-bucket step allocate nothing, in every Sync style and in the eager
// modes. Reduce is a one-step exchange over the reducer's one-shot layout, so
// any per-step record, handle, layout copy, closure or channel on the step
// path shows up here.
func TestReducerAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	const ranks = 4
	for _, dim := range []int{1 << 10, 1 << 16} {
		four := []int{dim / 4, dim / 4, dim / 4, dim - 3*(dim/4)}
		for _, row := range []struct {
			name string
			opts []Option
			step []int // nil: Reduce; otherwise a bucketed step with these lengths
		}{
			{"reduce/sync", nil, nil},
			{"reduce/deep500", []Option{WithChunks(4)}, nil},
			{"reduce/horovod", []Option{WithNegotiation()}, nil},
			{"reduce/solo", []Option{WithMode(Solo)}, nil},
			{"reduce/majority", []Option{WithMode(Majority), WithSeed(3)}, nil},
			{"step4/sync", nil, four},
			{"step4/solo", []Option{WithMode(Solo), WithBucketLayout(four...)}, four},
			{"step4/majority", []Option{WithMode(Majority), WithSeed(3)}, four},
		} {
			t.Run(fmt.Sprintf("%s/%d", row.name, dim), func(t *testing.T) {
				world, err := NewWorld(ranks, row.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				ops := make([]func() error, ranks)
				for r := range ops {
					red, err := world.Node(r).Reducer(dim)
					if err != nil {
						t.Fatal(err)
					}
					grad := tensor.NewVector(dim)
					grad.Fill(float64(r + 1))
					if row.step == nil {
						ops[r] = reduceOp(red, grad)
					} else {
						ops[r] = stepOp(red.(BucketReducer), grad, row.step)
					}
				}
				round := lockstepDriver(t, ops)
				for i := 0; i < 50; i++ {
					round() // warm the pool, the step records and the runtime's caches
				}
				if perRank := testing.AllocsPerRun(100, round) / ranks; perRank != 0 {
					t.Fatalf("%.2f allocations per rank per operation, want 0", perRank)
				}
			})
		}
	}
}

// reduceOp is one Reduce whose result is returned to the pool.
func reduceOp(red Reducer, grad tensor.Vector) func() error {
	ctx := context.Background()
	return func() error {
		res, err := red.Reduce(ctx, grad)
		tensor.PutVector(res.Sum)
		return err
	}
}

// stepOp is one bucketed step: the buckets submitted in backward-pass order,
// every result claimed and returned to the pool, then WaitStep.
func stepOp(br BucketReducer, grad tensor.Vector, lens []int) func() error {
	ctx := context.Background()
	handles := make([]*BucketHandle, 0, len(lens))
	return func() error {
		if err := br.BeginStep(ctx, lens); err != nil {
			return err
		}
		handles = handles[:0]
		off := len(grad)
		for b := len(lens) - 1; b >= 0; b-- {
			off -= lens[b]
			h, err := br.SubmitBucket(ctx, off, grad[off:off+lens[b]])
			if err != nil {
				return err
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			sum, err := h.Wait(ctx)
			if err != nil {
				return err
			}
			tensor.PutVector(sum)
		}
		_, err := br.WaitStep(ctx)
		return err
	}
}

// lockstepDriver runs ops[r] on a persistent goroutine per rank and returns a
// function that runs one operation on every rank and waits for all of them,
// so that AllocsPerRun measures no goroutine start. The goroutines exit at
// the test's cleanup.
func lockstepDriver(t *testing.T, ops []func() error) func() {
	start := make([]chan struct{}, len(ops))
	done := make(chan error, len(ops))
	for r, op := range ops {
		start[r] = make(chan struct{})
		go func(start <-chan struct{}, op func() error) {
			for range start {
				done <- op()
			}
		}(start[r], op)
	}
	t.Cleanup(func() {
		for _, ch := range start {
			close(ch)
		}
	})
	return func() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}
