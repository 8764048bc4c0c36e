package partial_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
)

// stepRead is one bucketed step that reads the whole result twice: BeginStep,
// stage, Contribute, the reads, WaitStep. It returns the first read, the
// step's accounting and the second read's error.
func stepRead(t *testing.T, a *partial.Allreducer, grad tensor.Vector) (tensor.Vector, partial.RoundInfo, error) {
	t.Helper()
	ctx := context.Background()
	round, stage, err := a.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	stage.CopyFrom(grad)
	seq, err := a.Contribute(round)
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.WaitBucket(ctx, round, 0, len(grad))
	if err != nil {
		t.Fatalf("round %d: first read: %v", round, err)
	}
	second, secondErr := a.WaitBucket(ctx, round, 0, len(grad))
	tensor.PutVector(second)
	info, err := a.WaitStep(ctx, round, seq)
	if err != nil {
		t.Fatal(err)
	}
	return first, info, secondErr
}

// TestHandOverSecondReadFails: a whole-vector read of the latest round hands
// the receive buffer over, so any later read of that round — the whole vector
// again, a sub-range, or Exchange's — fails instead of returning whatever the
// replacement lease holds. The round's accounting still completes, the
// handed-over vector is the caller's to write, and the next round is read
// normally. A step's stage is committed once: a second Contribute fails
// instead of committing a stage the pool has taken back.
func TestHandOverSecondReadFails(t *testing.T) {
	_, reducers := makeWorld(t, 1, 4, partial.Options{Mode: partial.Solo})
	a := reducers[0]
	ctx := context.Background()
	round, stage, err := a.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	stage.CopyFrom(tensor.Vector{1, 2, 3, 4})
	seq, err := a.Contribute(round)
	if err != nil {
		t.Fatal(err)
	}
	// The stage went back into the rotation: a second commit has none.
	if _, err := a.Contribute(round); err == nil {
		t.Fatal("second Contribute of one step succeeded")
	}
	sum, err := a.WaitBucket(ctx, round, 0, 4)
	if err != nil || !sum.Equal(tensor.Vector{1, 2, 3, 4}) {
		t.Fatalf("first read = %v, %v; want [1 2 3 4]", sum, err)
	}
	for _, r := range [][2]int{{0, 4}, {1, 3}} {
		part, err := a.WaitBucket(ctx, round, r[0], r[1])
		if err == nil || !strings.Contains(err.Error(), "handed over") {
			t.Fatalf("read [%d,%d) after the handover = %v, %v; want a handed-over error", r[0], r[1], part, err)
		}
	}
	if info, err := a.WaitStep(ctx, round, seq); err != nil || !info.Included || info.Round != round {
		t.Fatalf("WaitStep after the handover = %+v, %v; want round %d included", info, err, round)
	}
	sum.Fill(999)
	tensor.PutVector(sum)

	next, info, err := a.Exchange(tensor.Vector{5, 6, 7, 8})
	if err != nil || !next.Equal(tensor.Vector{5, 6, 7, 8}) || info.Round != round+1 {
		t.Fatalf("next Exchange = %v, %+v, %v; want [5 6 7 8] in round %d", next, info, err, round+1)
	}
	tensor.PutVector(next)
	if part, err := a.WaitBucket(ctx, round+1, 0, 4); err == nil {
		t.Fatalf("read after Exchange's handover = %v; want an error", part)
	}
}

// TestEngineBuffersHaveLeaseCapacity: the engine's three rotating buffers
// of n+1 elements are allocated at the capacity the pool leases n+1 at, so
// the buffers a handover trades for leases go back to the class those leases
// come from, and the rotation keeps that capacity round after round.
func TestEngineBuffersHaveLeaseCapacity(t *testing.T) {
	const n = 1024 // n+1 elements are leased from the 2048-element class
	_, reducers := makeWorld(t, 1, n, partial.Options{Mode: partial.Solo})
	a := reducers[0]
	want := [3]int{2 * n, 2 * n, 2 * n}
	if got := a.BufferCaps(); got != want {
		t.Fatalf("new engine's buffer capacities %v, want %v", got, want)
	}
	grad := tensor.NewVector(n)
	for k := 0; k < 8; k++ {
		sum, _, err := a.Exchange(grad) // takes the result by handover
		if err != nil {
			t.Fatal(err)
		}
		tensor.PutVector(sum)
	}
	if got := a.BufferCaps(); got != want {
		t.Fatalf("buffer capacities %v after 8 handovers, want %v", got, want)
	}
}

// TestStragglerReadsLatestByCopyThenHandOver pins Fig. 7's straggler path
// under the handover: rank 1 runs one round behind rank 0, so at its step 0
// the latest completed round is 1, which it reads by copy (a second read
// succeeds), and at its step 1 it reads the same round again, now by
// handover (a second read fails). The two reads are bit-identical, and both
// steps report the latest round with rank 1's gradient left stale.
func TestStragglerReadsLatestByCopyThenHandOver(t *testing.T) {
	const n = 5
	_, reducers := makeWorld(t, 2, n, partial.Options{Mode: partial.Solo})
	for round := 0; round < 2; round++ {
		grad := tensor.NewVector(n)
		for i := range grad {
			grad[i] = 0.1*float64(i+1) + 1/3.0*float64(round+1)
		}
		sum, _, err := reducers[0].Exchange(grad)
		if err != nil {
			t.Fatal(err)
		}
		tensor.PutVector(sum)
	}
	eventually(t, "rank 1 to complete round 1", func() bool { return reducers[1].LastRound() == 1 })

	late := tensor.NewVector(n)
	late.Fill(7)
	byCopy, info, secondErr := stepRead(t, reducers[1], late)
	if secondErr != nil {
		t.Fatalf("step 0 (behind the latest round): second read failed: %v", secondErr)
	}
	if info.Round != 1 || info.Included {
		t.Fatalf("step 0 info %+v; want round 1, not included", info)
	}
	byHandOver, info, secondErr := stepRead(t, reducers[1], late)
	if secondErr == nil {
		t.Fatal("step 1 (the latest round): second read succeeded; want the handover's error")
	}
	if info.Round != 1 || info.Included {
		t.Fatalf("step 1 info %+v; want round 1, not included", info)
	}
	for i := range byCopy {
		if math.Float64bits(byCopy[i]) != math.Float64bits(byHandOver[i]) {
			t.Fatalf("element %d: copy at step 0 read %v, handover at step 1 read %v", i, byCopy[i], byHandOver[i])
		}
	}
	tensor.PutVector(byCopy)
	tensor.PutVector(byHandOver)
	if reducers[1].PendingStale() == 0 {
		t.Fatal("the straggler's gradients must stay in its send buffer")
	}
}

// TestLeaseBalanceWithoutJoin: every step takes its stage and the
// handover's replacement from the pool and returns as many buffers to it, so
// allreducers that are never joined — the way a benchmark ladder drives them
// — hold the pool's lease count at zero once every result is released. The
// rounds mix Exchange, one-bucket and four-bucket steps, with a rotating
// straggler, in Solo and Majority.
func TestLeaseBalanceWithoutJoin(t *testing.T) {
	const p, n, rounds = 4, 64, 24
	for _, opts := range []partial.Options{{Mode: partial.Solo}, {Mode: partial.Majority, Seed: 5}} {
		t.Run(opts.Mode.String(), func(t *testing.T) {
			before := tensor.ReadPoolStats()
			_, reducers := makeWorld(t, p, n, opts)
			grads := make([]tensor.Vector, p)
			for r := range grads {
				grads[r] = tensor.NewVector(n)
				grads[r].Fill(float64(r + 1))
			}
			for k := 0; k < rounds; k++ {
				var layout []int
				switch k % 3 {
				case 1:
					layout = []int{n}
				case 2:
					layout = bucketLayout(n)
				}
				straggler := k % p
				onAllRanks(p, func(r int) {
					if r == straggler {
						time.Sleep(2 * time.Millisecond)
					}
					out := lockstepRound(reducers[r:r+1], grads[r:r+1], layout...)[0]
					if out.err != nil {
						t.Errorf("round %d rank %d: %v", k, r, out.err)
					}
					if len(layout) == 0 {
						tensor.PutVector(out.sum) // Exchange's lease; a bucketed step's sum is the helper's own
					}
				})
			}
			eventually(t, "the pool's lease count to settle at zero", func() bool {
				return tensor.ReadPoolStats().OutstandingSince(before) == 0
			})
		})
	}
}

// TestLeaseBalanceStageReturnedByJoin: the stage of a step begun but never
// contributed is a lease the allreducer holds, and Join returns it.
func TestLeaseBalanceStageReturnedByJoin(t *testing.T) {
	world := newWorld(t, "inproc", 1)
	before := tensor.ReadPoolStats()
	a := partial.New(world[0], 8, partial.Options{Mode: partial.Solo})
	if _, _, err := a.BeginStep(); err != nil {
		t.Fatal(err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 1 {
		t.Fatalf("%d leases outstanding with a stage open, want 1", n)
	}
	world[0].Close()
	a.Join()
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("%d leases outstanding after Join, want 0%s", n, tensor.FormatLeaseReport())
	}
}
