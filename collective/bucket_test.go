package collective

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
)

// partialOf reaches through a Node.Reducer reducer of an eager mode to its
// current epoch's partial allreducer, for the engine diagnostics (designated
// initiators, pending stale norm).
func partialOf(red Reducer) *partial.Allreducer {
	return red.(*elasticReducer).inner.(*eagerReducer).ar
}

// runBucketedStep drives one bucketed step on every rank concurrently: each
// rank submits the layout's buckets in reverse order (the backward-pass
// order), waits the handles, then waits the step. It returns rank 0's
// assembled full vector and per-rank step results.
func runBucketedStep(t *testing.T, reducers []Reducer, lens []int, fill func(rank int, full tensor.Vector)) ([]tensor.Vector, []Result) {
	t.Helper()
	ranks := len(reducers)
	dim := 0
	offs := make([]int, len(lens))
	for b, l := range lens {
		offs[b] = dim
		dim += l
	}
	fulls := make([]tensor.Vector, ranks)
	results := make([]Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			br := reducers[r].(BucketReducer)
			grad := tensor.NewVector(dim)
			fill(r, grad)
			if err := br.BeginStep(ctx, lens); err != nil {
				errs[r] = err
				return
			}
			handles := make([]*BucketHandle, 0, len(lens))
			for b := len(lens) - 1; b >= 0; b-- {
				h, err := br.SubmitBucket(ctx, offs[b], grad[offs[b]:offs[b]+lens[b]])
				if err != nil {
					errs[r] = err
					return
				}
				handles = append(handles, h)
			}
			out := tensor.NewVector(dim)
			for _, h := range handles {
				sum, err := h.Wait(ctx)
				if err != nil {
					errs[r] = err
					return
				}
				out[h.Offset() : h.Offset()+h.Len()].CopyFrom(sum)
				tensor.PutVector(sum)
			}
			res, err := br.WaitStep(ctx)
			if err != nil {
				errs[r] = err
				return
			}
			fulls[r] = out
			results[r] = res
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return fulls, results
}

// TestSyncBucketedBitForBitSingleShot is the numerical-equivalence gate of
// the overlapped exchange: at these lengths Auto runs recursive doubling
// (whose per-element reduction tree does not depend on the vector length), so
// a bucketed step must produce bit-for-bit the sums of one allreduce over the
// full vector on the in-process transport. The reference calls
// collectives.AllreduceWith directly, not Reduce, which is itself a step. The
// bucket worker reduces the buckets one at a time in submit order; the
// 9-bucket row queues more buckets than a step has ever had in flight, and
// the TCP runs put them on the transport balanced-large uses.
func TestSyncBucketedBitForBitSingleShot(t *testing.T) {
	const ranks = 4
	const dim = 64
	rows := [][]int{
		{5, 17, 42},
		{3, 7, 1, 12, 9, 4, 15, 2, 11},
	}
	fill := func(rank int, full tensor.Vector) {
		for i := range full {
			full[i] = float64(rank+1) * (1.0 + float64(i)*0.37)
		}
	}
	refSums := directAllreduce(t, ranks, dim, fill, []int{dim})

	for li, lens := range rows {
		for _, transport := range []Transport{Inproc, TCP} {
			t.Run(fmt.Sprintf("%dbuckets/%v", len(lens), transport), func(t *testing.T) {
				opts := []Option{WithOverlap(), WithTransport(transport)}
				if transport == TCP {
					opts = append(opts, WithBasePort(30460+10*li))
				}
				world, err := NewWorld(ranks, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				reducers := make([]Reducer, ranks)
				for r := 0; r < ranks; r++ {
					if reducers[r], err = world.Node(r).Reducer(dim); err != nil {
						t.Fatal(err)
					}
				}
				fulls, results := runBucketedStep(t, reducers, lens, fill)
				for r := 0; r < ranks; r++ {
					for i := range fulls[r] {
						if fulls[r][i] != refSums[r][i] {
							t.Fatalf("rank %d element %d: bucketed %v != whole-vector allreduce %v (must be bit-for-bit)", r, i, fulls[r][i], refSums[r][i])
						}
					}
					if res := results[r]; res.ActiveRanks != ranks || !res.Included {
						t.Fatalf("rank %d: sync bucketed result %+v, want full participation", r, res)
					}
				}
			})
		}
	}
}

// directAllreduce is the independent reference of the Sync tests: it sums
// every rank's fill over a fresh in-process world with one
// collectives.AllreduceWith call per chunk of lens (AlgoAuto, default tag
// block, no Reducer involved) and returns every rank's result.
func directAllreduce(t *testing.T, ranks, dim int, fill func(rank int, full tensor.Vector), lens []int) []tensor.Vector {
	t.Helper()
	world, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	sums := make([]tensor.Vector, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sums[r] = tensor.NewVector(dim)
			fill(r, sums[r])
			off := 0
			for _, l := range lens {
				if err := collectives.AllreduceWith(world.Node(r).Communicator(), sums[r][off:off+l], collectives.OpSum, collectives.AlgoAuto, collectives.Config{}, nil); err != nil {
					errs[r] = err
					return
				}
				off += l
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	return sums
}

// TestDeep500ChunksBitForBit: WithChunks(4) is a layout — Reduce runs the
// four tensor.ChunkBounds chunks as the buckets of one step — and must
// produce bit for bit the sums of one AllreduceWith per chunk. At 32Ki
// elements over four ranks AlgoAuto reduces each 8Ki chunk with Rabenseifner
// and the whole vector with the pipelined ring, whose sums differ in the
// last place: a Reduce that ran one allreduce over the whole vector fails
// here.
func TestDeep500ChunksBitForBit(t *testing.T) {
	const ranks, dim, chunks = 4, 1 << 15, 4
	fill := func(rank int, full tensor.Vector) {
		for i := range full {
			full[i] = float64(rank+1)*(1.0+float64(i)*0.37) + 1/float64(3+rank+i%7)
		}
	}
	lens := make([]int, chunks)
	for i := range lens {
		lo, hi := tensor.ChunkBounds(dim, chunks, i)
		lens[i] = hi - lo
	}
	want := directAllreduce(t, ranks, dim, fill, lens)
	whole := directAllreduce(t, ranks, dim, fill, []int{dim})
	if slices.Equal(want[0], whole[0]) {
		t.Fatal("per-chunk and whole-vector allreduce agree bit for bit: the fill cannot tell them apart")
	}
	for ti, transport := range []Transport{Inproc, TCP} {
		t.Run(transport.String(), func(t *testing.T) {
			world, err := NewWorld(ranks, WithChunks(chunks), WithTransport(transport), WithBasePort(30500+10*ti))
			if err != nil {
				t.Fatal(err)
			}
			defer world.Close()
			got := make([]tensor.Vector, ranks)
			errs := make([]error, ranks)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					red, err := world.Node(r).Reducer(dim)
					if err != nil {
						errs[r] = err
						return
					}
					grad := tensor.NewVector(dim)
					fill(r, grad)
					res, err := red.Reduce(context.Background(), grad)
					got[r], errs[r] = res.Sum, err
				}(r)
			}
			wg.Wait()
			for r := 0; r < ranks; r++ {
				if errs[r] != nil {
					t.Fatalf("rank %d: %v", r, errs[r])
				}
				for i := range got[r] {
					if got[r][i] != want[r][i] {
						t.Fatalf("rank %d element %d: chunked Reduce %v != per-chunk allreduce %v (must be bit-for-bit)", r, i, got[r][i], want[r][i])
					}
				}
			}
		})
	}
}

// TestStragglerAccountingMatchesAcrossEntryPoints: a rank two rounds behind
// gets the same accounting from Reduce and from a two-bucket step, and it is
// the one RoundInfo states — the latest completed round (round 1, not its
// own round 0) and that round's NAP, with its own gradient not included.
func TestStragglerAccountingMatchesAcrossEntryPoints(t *testing.T) {
	const ranks, dim = 2, 16
	lens := []int{8, 8}
	type accounting struct {
		Round, ActiveRanks int
		Included           bool
	}
	straggle := func(t *testing.T, opts []Option, exchange func(red Reducer, grad tensor.Vector) (tensor.Vector, Result, error)) accounting {
		world, err := NewWorld(ranks, append([]Option{WithMode(Solo)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer world.Close()
		reds := make([]Reducer, ranks)
		for r := range reds {
			if reds[r], err = world.Node(r).Reducer(dim); err != nil {
				t.Fatal(err)
			}
		}
		fast := tensor.NewVector(dim)
		fast.Fill(1)
		for round := 0; round < 2; round++ { // rank 0 runs rounds 0 and 1 alone
			res, err := reds[0].Reduce(context.Background(), fast)
			if err != nil {
				t.Fatal(err)
			}
			tensor.PutVector(res.Sum)
		}
		slow := partialOf(reds[1])
		deadline := time.Now().Add(5 * time.Second)
		for slow.LastRound() < 1 {
			if time.Now().After(deadline) {
				t.Fatal("rank 1's engine never completed round 1")
			}
			time.Sleep(time.Millisecond)
		}
		grad := tensor.NewVector(dim)
		grad.Fill(10)
		sum, res, err := exchange(reds[1], grad)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range sum {
			if v != 1 {
				t.Fatalf("element %d = %v, want round 1's sum 1 (rank 0's gradient alone)", i, v)
			}
		}
		if slow.PendingStale() == 0 {
			t.Fatal("the straggler's gradient should stay buffered for a later round")
		}
		return accounting{res.Round, res.ActiveRanks, res.Included}
	}
	reduce := straggle(t, nil, func(red Reducer, grad tensor.Vector) (tensor.Vector, Result, error) {
		res, err := red.Reduce(context.Background(), grad)
		return res.Sum, res, err
	})
	step := straggle(t, []Option{WithBucketLayout(lens...)}, func(red Reducer, grad tensor.Vector) (tensor.Vector, Result, error) {
		fulls, results := runBucketedStep(t, []Reducer{red}, lens, func(_ int, full tensor.Vector) { full.CopyFrom(grad) })
		return fulls[0], results[0], nil
	})
	want := accounting{Round: 1, ActiveRanks: 1, Included: false}
	if reduce != want || step != want {
		t.Fatalf("straggler two rounds behind: Reduce reports %+v, a two-bucket step %+v; want both %+v", reduce, step, want)
	}
}

// TestEagerBucketedAllRanksArrive checks the eager bucketed step when every
// rank submits promptly: the participant accounting must report one
// consistent decision for the whole step.
func TestEagerBucketedAllRanksArrive(t *testing.T) {
	const ranks = 4
	lens := []int{8, 24}
	dim := 32
	world, err := NewWorld(ranks, WithMode(Solo), WithOverlap(), WithBucketLayout(lens...))
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	reducers := make([]Reducer, ranks)
	for r := 0; r < ranks; r++ {
		if reducers[r], err = world.Node(r).Reducer(dim); err != nil {
			t.Fatal(err)
		}
	}
	fulls, results := runBucketedStep(t, reducers, lens, func(rank int, full tensor.Vector) {
		full.Fill(1)
	})
	for r := 0; r < ranks; r++ {
		if results[r].ActiveRanks < 1 || results[r].ActiveRanks > ranks {
			t.Fatalf("rank %d: active ranks %d out of range", r, results[r].ActiveRanks)
		}
		// Every element of every bucket must reflect the same number of
		// contributions (step consistency at the value level: a solo round
		// sums whatever subset was snapshotted, identically per bucket).
		first := fulls[r][0]
		for i, v := range fulls[r] {
			if v != first {
				t.Fatalf("rank %d: element %d = %v differs from element 0 = %v; buckets observed different participant sets", r, i, v, first)
			}
		}
	}
}

// TestEagerStepsTakeAnyLayout: an eager reducer minted without
// WithBucketLayout steps {3,5}, then {8}, then {1,7}, and two zero steps
// flush the stale gradients. Given the Included flag each rank reports, every
// round's sum is fully determined (the serial carry model of internal/partial's
// differential test): an included gradient is in it, and so is whatever that
// rank failed to get included before. Every element of every rank's
// reassembled sum must hold it exactly.
func TestEagerStepsTakeAnyLayout(t *testing.T) {
	const ranks, dim = 3, 8
	layouts := [][]int{{3, 5}, {8}, {1, 7}}
	for _, mode := range []Mode{Solo, Majority} {
		t.Run(mode.String(), func(t *testing.T) {
			world, err := NewWorld(ranks, WithMode(mode), WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			defer world.Close()
			reducers := make([]Reducer, ranks)
			for r := range reducers {
				if reducers[r], err = world.Node(r).Reducer(dim); err != nil {
					t.Fatal(err)
				}
			}
			carry := make([]float64, ranks) // per rank: contributed, not yet taken by a round
			var contributed, received float64
			for k := 0; k < len(layouts)+2; k++ {
				grad := func(rank int) float64 {
					if k < len(layouts) {
						return float64(1 + rank + 10*k)
					}
					return 0
				}
				fulls, results := runBucketedStep(t, reducers, layouts[k%len(layouts)], func(rank int, full tensor.Vector) {
					full.Fill(grad(rank))
				})
				want, included := 0.0, 0
				for r, res := range results {
					contributed += grad(r)
					want += carry[r]
					carry[r] = grad(r)
					if res.Included {
						want += carry[r]
						carry[r] = 0
						included++
					}
				}
				for r := range fulls {
					for i, got := range fulls[r] {
						if got != want {
							t.Fatalf("step %d rank %d element %d: got %v, serial model says %v", k, r, i, got, want)
						}
					}
					if results[r].ActiveRanks != included {
						t.Fatalf("step %d rank %d: %d active ranks, but %d ranks report Included", k, r, results[r].ActiveRanks, included)
					}
				}
				received += want
			}
			if received != contributed {
				t.Fatalf("received %v of %v contributed after two flush steps", received, contributed)
			}
		})
	}
}

// TestSubmitBucketRejectsUnknownOffset covers layout validation.
func TestSubmitBucketRejectsUnknownOffset(t *testing.T) {
	world, err := NewWorld(1, WithOverlap())
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	red, err := world.Node(0).Reducer(10)
	if err != nil {
		t.Fatal(err)
	}
	br := red.(BucketReducer)
	ctx := context.Background()
	if err := br.BeginStep(ctx, []int{4, 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := br.SubmitBucket(ctx, 2, tensor.NewVector(4)); err == nil {
		t.Fatal("submit at non-bucket offset should fail")
	}
	if _, err := br.SubmitBucket(ctx, 0, tensor.NewVector(3)); err == nil {
		t.Fatal("submit with wrong length should fail")
	}
	if _, err := br.SubmitBucket(ctx, 0, tensor.NewVector(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.SubmitBucket(ctx, 0, tensor.NewVector(4)); err == nil {
		t.Fatal("duplicate submit should fail")
	}
	if _, err := br.SubmitBucket(ctx, 4, tensor.NewVector(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.WaitStep(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWorldCloseDuringOverlappedStep is the shutdown regression test: closing
// the world while a bucketed step is stuck waiting on ranks that never
// submit must neither deadlock nor leak — the blocked handle waits and
// WaitStep return errors promptly.
func TestWorldCloseDuringOverlappedStep(t *testing.T) {
	const ranks = 2
	dim := 1 << 15 // large enough that the allreduce genuinely blocks on the peer
	world, err := NewWorld(ranks, WithOverlap())
	if err != nil {
		t.Fatal(err)
	}
	red, err := world.Node(0).Reducer(dim)
	if err != nil {
		t.Fatal(err)
	}
	br := red.(BucketReducer)
	ctx := context.Background()
	if err := br.BeginStep(ctx, []int{dim}); err != nil {
		t.Fatal(err)
	}
	h, err := br.SubmitBucket(ctx, 0, tensor.NewVector(dim))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := h.Wait(ctx)
		if err == nil {
			done <- errors.New("handle resolved without a peer")
			return
		}
		_, err = br.WaitStep(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the bucket reach the wire
	if err := world.Close(); err != nil {
		t.Fatalf("world close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("WaitStep after world close should report an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bucketed step did not unblock after World.Close")
	}
}

// TestStepConsistencyAcrossBuckets is the step-consistency property test of
// the bucketed partial collectives: because the participation decision is
// made once per step and every rank's contribution is committed atomically,
// all buckets of one step must observe the identical participant set. Every
// rank contributes uniform vectors, so any fragmentation of the decision
// would show up as different values across buckets of one result. Runs on
// both transports with staggered rank arrivals over several steps.
func TestStepConsistencyAcrossBuckets(t *testing.T) {
	const ranks = 4
	const steps = 6
	lens := []int{6, 10, 16}
	dim := 32
	for ti, transport := range []Transport{Inproc, TCP} {
		transport := transport
		t.Run(transport.String(), func(t *testing.T) {
			opts := []Option{
				WithMode(Majority), WithSeed(11),
				WithOverlap(), WithBucketLayout(lens...),
				WithTransport(transport),
			}
			if transport == TCP {
				opts = append(opts, WithBasePort(30400+10*ti))
			}
			world, err := NewWorld(ranks, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer world.Close()

			offs := []int{0, 6, 16}
			errs := make([]error, ranks)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ctx := context.Background()
					red, err := world.Node(r).Reducer(dim)
					if err != nil {
						errs[r] = err
						return
					}
					br := red.(BucketReducer)
					grad := tensor.NewVector(dim)
					grad.Fill(1)
					for s := 0; s < steps; s++ {
						// Staggered arrivals: different ranks are fresh in
						// different rounds, so participant sets vary.
						time.Sleep(time.Duration(((r+s)%ranks)*3) * time.Millisecond)
						if err := br.BeginStep(ctx, lens); err != nil {
							errs[r] = err
							return
						}
						handles := make([]*BucketHandle, 0, len(lens))
						for b := len(lens) - 1; b >= 0; b-- {
							h, err := br.SubmitBucket(ctx, offs[b], grad[offs[b]:offs[b]+lens[b]])
							if err != nil {
								errs[r] = err
								return
							}
							handles = append(handles, h)
						}
						out := tensor.NewVector(dim)
						for _, h := range handles {
							sum, err := h.Wait(ctx)
							if err != nil {
								errs[r] = err
								return
							}
							out[h.Offset() : h.Offset()+h.Len()].CopyFrom(sum)
							tensor.PutVector(sum)
						}
						if _, err := br.WaitStep(ctx); err != nil {
							errs[r] = err
							return
						}
						first := out[0]
						for i, v := range out {
							if v != first {
								errs[r] = fmt.Errorf("step %d element %d = %v differs from element 0 = %v: buckets observed different participant sets", s, i, v, first)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}

// TestSubmitBucketCancellation covers context cancellation on the Sync
// bucketed path: with the peer absent, the bucket's allreduce can never
// complete; canceling the submission context must resolve the handle and
// WaitStep with the context's error instead of hanging.
func TestSubmitBucketCancellation(t *testing.T) {
	world, err := NewWorld(2, WithOverlap())
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	red, err := world.Node(0).Reducer(64)
	if err != nil {
		t.Fatal(err)
	}
	br := red.(BucketReducer)
	ctx, cancel := context.WithCancel(context.Background())
	if err := br.BeginStep(ctx, []int{64}); err != nil {
		t.Fatal(err)
	}
	h, err := br.SubmitBucket(ctx, 0, tensor.NewVector(64))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan error, 1)
	go func() {
		if _, err := h.Wait(ctx); !errors.Is(err, context.Canceled) {
			done <- fmt.Errorf("handle Wait error = %v, want context.Canceled", err)
			return
		}
		if _, err := br.WaitStep(ctx); !errors.Is(err, context.Canceled) {
			done <- fmt.Errorf("WaitStep error = %v, want context.Canceled", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled bucketed step did not unblock")
	}
}

// TestFailedBucketFailsLaterBuckets: the bucket worker runs every bucket in
// one tag block, so a bucket whose collective failed leaves the block
// mid-protocol, and a later bucket must fail without touching the wire
// instead of pairing with the failed bucket's stray messages. The peer never
// takes part here: bucket 0's context is canceled, and bucket 1, submitted on
// a live context, must still resolve with an error rather than block.
func TestFailedBucketFailsLaterBuckets(t *testing.T) {
	before := tensor.ReadPoolStats()
	world, err := NewWorld(2, WithOverlap())
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close() // idempotent; the lease check below closes it first
	red, err := world.Node(0).Reducer(64)
	if err != nil {
		t.Fatal(err)
	}
	br := red.(BucketReducer)
	if err := br.BeginStep(context.Background(), []int{32, 32}); err != nil {
		t.Fatal(err)
	}
	ctx0, cancel := context.WithCancel(context.Background())
	if _, err := br.SubmitBucket(ctx0, 0, tensor.NewVector(32)); err != nil {
		t.Fatal(err)
	}
	cancel()
	h1, err := br.SubmitBucket(context.Background(), 32, tensor.NewVector(32))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := h1.Wait(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("bucket after a failed bucket reported a sum")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bucket after a failed bucket blocked on the wire")
	}
	if _, err := br.WaitStep(context.Background()); err == nil {
		t.Fatal("WaitStep after a failed bucket succeeded")
	}
	if err := world.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("failed bucketed step leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
}

// TestSyncBucketedStepTimeoutReportsDeadlineExceeded: a bucket worker must
// report the error of the context it was submitted under, not a blanket
// context.Canceled — under context.WithTimeout both the handle and WaitStep
// return context.DeadlineExceeded, whichever of "the worker resolved the
// handle" and "the waiter saw ctx.Done()" happens first.
func TestSyncBucketedStepTimeoutReportsDeadlineExceeded(t *testing.T) {
	world, err := NewWorld(2, WithOverlap())
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	red, err := world.Node(0).Reducer(64)
	if err != nil {
		t.Fatal(err)
	}
	br := red.(BucketReducer)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := br.BeginStep(ctx, []int{64}); err != nil {
		t.Fatal(err)
	}
	// The peer never joins, so the bucket's allreduce ends only by timeout.
	h, err := br.SubmitBucket(ctx, 0, tensor.NewVector(64))
	if err != nil {
		t.Fatal(err)
	}
	awaitWorkerVerdict(t, red, h)
	// The worker has resolved the handle: waiting under a live context returns
	// the worker's own verdict, with no ctx.Done() arm to mask it.
	if _, err := h.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("handle Wait error = %v, want context.DeadlineExceeded", err)
	}
	if _, err := br.WaitStep(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitStep error = %v, want context.DeadlineExceeded", err)
	}
}

// awaitWorkerVerdict polls until the Sync bucket worker has resolved h,
// without waiting on any context.
func awaitWorkerVerdict(t *testing.T, red Reducer, h *BucketHandle) {
	t.Helper()
	s := red.(*elasticReducer).inner.(*syncReducer)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		done := h.done
		s.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed-out bucket never resolved")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitStepCancellationEager covers context cancellation on the eager
// bucketed path: in Majority mode with the designated initiator absent, the
// round cannot complete; WaitStep must return the context's error, and per
// eager-SGD cancellation semantics the reducer stays usable (the
// contribution remains buffered as a stale gradient).
func TestWaitStepCancellationEager(t *testing.T) {
	// Find a seed whose round-0 designated initiator is rank 1 (who never
	// arrives in this test).
	var seed int64
	for s := int64(0); ; s++ {
		world, err := NewWorld(2, WithMode(Majority), WithSeed(s), WithOverlap(), WithBucketLayout(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		red, err := world.Node(0).Reducer(16)
		if err != nil {
			t.Fatal(err)
		}
		inits := partialOf(red).DesignatedInitiators(0)
		world.Close()
		if len(inits) == 1 && inits[0] == 1 {
			seed = s
			break
		}
	}
	world, err := NewWorld(2, WithMode(Majority), WithSeed(seed), WithOverlap(), WithBucketLayout(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	red, err := world.Node(0).Reducer(16)
	if err != nil {
		t.Fatal(err)
	}
	br := red.(BucketReducer)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := br.BeginStep(ctx, []int{8, 8}); err != nil {
		t.Fatal(err)
	}
	grad := tensor.NewVector(16)
	grad.Fill(1)
	if _, err := br.SubmitBucket(ctx, 8, grad[8:]); err != nil {
		t.Fatal(err)
	}
	if _, err := br.SubmitBucket(ctx, 0, grad[:8]); err != nil {
		t.Fatal(err)
	}
	if _, err := br.WaitStep(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitStep error = %v, want context.DeadlineExceeded", err)
	}
	// The canceled wait only abandoned the result: the contribution stays
	// buffered as a stale gradient, visible in the engine's diagnostics.
	ar := partialOf(red)
	if ar.PendingStale() == 0 {
		t.Fatal("canceled step's contribution should remain buffered as stale gradient")
	}
}

// TestCloseRacesSubmitBucket closes the world from another goroutine while a
// rank is still submitting buckets: every submission must either enqueue and
// later resolve with an error or fail cleanly with ErrReducerClosed — never
// panic or deadlock.
func TestCloseRacesSubmitBucket(t *testing.T) {
	for round := 0; round < 20; round++ {
		world, err := NewWorld(2, WithOverlap())
		if err != nil {
			t.Fatal(err)
		}
		const buckets = 16
		lens := make([]int, buckets)
		for i := range lens {
			lens[i] = 64
		}
		red, err := world.Node(0).Reducer(buckets * 64)
		if err != nil {
			t.Fatal(err)
		}
		br := red.(BucketReducer)
		ctx := context.Background()
		if err := br.BeginStep(ctx, lens); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			world.Close()
		}()
		var handles []*BucketHandle
		for b := 0; b < buckets; b++ {
			h, err := br.SubmitBucket(ctx, b*64, tensor.NewVector(64))
			if err != nil {
				break // reducer closed underneath us: fine
			}
			handles = append(handles, h)
		}
		<-closed
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, h := range handles {
				if sum, err := h.Wait(ctx); err == nil {
					tensor.PutVector(sum)
				}
			}
			_, _ = br.WaitStep(ctx)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("step did not unblock after racing Close")
		}
	}
}

// TestEagerOpenStepLeaseBalanceAtClose: an eager step whose buckets never all
// arrive never reaches Contribute, so its stage, a pool lease, stays with the
// engine; World.Close joins the engine, which returns it.
func TestEagerOpenStepLeaseBalanceAtClose(t *testing.T) {
	before := tensor.ReadPoolStats()
	world, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close() // idempotent; the lease check below closes it first
	red, err := world.Node(0).Reducer(64, WithMode(Solo))
	if err != nil {
		t.Fatal(err)
	}
	br := red.(BucketReducer)
	if err := br.BeginStep(context.Background(), []int{32, 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := br.SubmitBucket(context.Background(), 0, tensor.NewVector(32)); err != nil {
		t.Fatal(err)
	}
	if err := world.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("eager step left open at close leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
}
