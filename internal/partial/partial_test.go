package partial_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// makeWorld builds a world of p allreducers over an in-process transport. The
// cleanup closes the transport, which also releases the background engines.
func makeWorld(t *testing.T, p, n int, opts partial.Options) ([]*comm.Communicator, []*partial.Allreducer) {
	t.Helper()
	world := newWorld(t, "inproc", p)
	return world, newReducers(t, world, n, opts)
}

func TestModeString(t *testing.T) {
	if partial.Solo.String() != "solo" || partial.Majority.String() != "majority" || partial.Quorum.String() != "quorum" {
		t.Fatal("unexpected mode names")
	}
	if partial.Mode(42).String() == "" {
		t.Fatal("unknown mode must still produce a name")
	}
}

func TestExchangeWrongLength(t *testing.T) {
	_, reducers := makeWorld(t, 1, 4, partial.Options{Mode: partial.Solo})
	if _, _, err := reducers[0].Exchange(tensor.Vector{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestExchangeAfterClose(t *testing.T) {
	_, reducers := makeWorld(t, 1, 2, partial.Options{Mode: partial.Solo})
	reducers[0].Close()
	if _, _, err := reducers[0].Exchange(tensor.Vector{1, 2}); err != partial.ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestWaitBucketRejectsBadRange: a range that is negative, empty or past the
// vector is an error naming it, and it costs the allreducer nothing: the step
// still completes and the next Exchange succeeds.
func TestWaitBucketRejectsBadRange(t *testing.T) {
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
	for _, r := range [][2]int{{-1, 2}, {2, 2}, {3, 1}, {2, 5}} {
		part, err := a.WaitBucket(ctx, round, r[0], r[1])
		if want := fmt.Sprintf("[%d,%d)", r[0], r[1]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("WaitBucket(%d, %d) = %v, %v; want an error naming %s", r[0], r[1], part, err, want)
		}
	}
	part, err := a.WaitBucket(ctx, round, 1, 3)
	if err != nil || !part.Equal(tensor.Vector{2, 3}) {
		t.Fatalf("WaitBucket(1, 3) = %v, %v; want [2 3]", part, err)
	}
	tensor.PutVector(part)
	if _, err := a.WaitStep(ctx, round, seq); err != nil {
		t.Fatal(err)
	}
	sum, _, err := a.Exchange(tensor.Vector{5, 6, 7, 8})
	if err != nil || !sum.Equal(tensor.Vector{5, 6, 7, 8}) {
		t.Fatalf("Exchange after bad ranges = %v, %v; want [5 6 7 8]", sum, err)
	}
	tensor.PutVector(sum)
}

func TestSoloSingleRoundConsistency(t *testing.T) {
	// With solo allreduce, which contributions are included depends on timing
	// (the fastest rank triggers immediately). The invariants that must hold
	// regardless: every rank observes the identical result, the result equals
	// exactly the sum of the contributions reported as included, and the
	// number of active processes matches the number of included ranks, with
	// the quorum lower bound of one.
	const p = 4
	const n = 8
	_, reducers := makeWorld(t, p, n, partial.Options{Mode: partial.Solo})

	contribs := make([]tensor.Vector, p)
	for r := 0; r < p; r++ {
		contribs[r] = tensor.NewVector(n)
		for i := range contribs[r] {
			contribs[r][i] = float64(r + i + 1)
		}
	}
	results, infos := exchangeAll(t, reducers, contribs, nil)

	includedSum := tensor.NewVector(n)
	includedCount := 0
	for r := 0; r < p; r++ {
		if infos[r].Included {
			includedSum.Add(contribs[r])
			includedCount++
		}
	}
	if includedCount < 1 {
		t.Fatal("quorum lower bound violated: no contribution included")
	}
	for r := 0; r < p; r++ {
		if !results[r].Equal(results[0]) {
			t.Fatalf("rank %d observed a different result than rank 0", r)
		}
		if !results[r].AllClose(includedSum, 1e-9) {
			t.Fatalf("rank %d result %v, want sum of included contributions %v", r, results[r], includedSum)
		}
		if infos[r].ActiveProcesses != includedCount {
			t.Fatalf("rank %d NAP %d, want %d (number of included ranks)", r, infos[r].ActiveProcesses, includedCount)
		}
	}
}

func TestSoloFastRankDoesNotWaitForSlow(t *testing.T) {
	const p = 2
	const n = 4
	_, reducers := makeWorld(t, p, n, partial.Options{Mode: partial.Solo})

	slowDelay := 300 * time.Millisecond
	var fastLatency time.Duration
	var slowInfo partial.RoundInfo
	var fastResult, slowResult tensor.Vector
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // fast rank 0
		defer wg.Done()
		start := time.Now()
		res, _, err := reducers[0].Exchange(tensor.Vector{1, 1, 1, 1})
		if err != nil {
			t.Errorf("fast rank: %v", err)
			return
		}
		fastLatency = time.Since(start)
		fastResult = res
	}()
	go func() { // slow rank 1
		defer wg.Done()
		time.Sleep(slowDelay)
		res, info, err := reducers[1].Exchange(tensor.Vector{10, 10, 10, 10})
		if err != nil {
			t.Errorf("slow rank: %v", err)
			return
		}
		slowResult = res
		slowInfo = info
	}()
	wg.Wait()

	if fastLatency > slowDelay/2 {
		t.Fatalf("fast rank waited %v: solo allreduce must not wait for the slow rank", fastLatency)
	}
	// Round 0 completed with only the fast contribution.
	if !fastResult.AllClose(tensor.Vector{1, 1, 1, 1}, 1e-9) {
		t.Fatalf("fast result %v, want only its own contribution", fastResult)
	}
	// The slow rank arrived after completion: it sees the same result and its
	// own gradient is parked as a stale contribution.
	if !slowResult.AllClose(tensor.Vector{1, 1, 1, 1}, 1e-9) {
		t.Fatalf("slow result %v, want the round-0 receive buffer", slowResult)
	}
	if slowInfo.Included {
		t.Fatal("slow rank reported Included although it arrived late")
	}
	if reducers[1].PendingStale() == 0 {
		t.Fatal("slow rank should hold a stale gradient in its send buffer")
	}

	// Two more rounds (one regular, one drain with zero contributions). By
	// gradient conservation the per-element totals observed by rank 0 across
	// its rounds must equal everything ever contributed: the stale gradient
	// is folded into a later round, never lost and never duplicated.
	cumulative := fastResult.Clone()
	round1, _ := exchangeAll(t, reducers, []tensor.Vector{{2, 2, 2, 2}, {20, 20, 20, 20}}, nil)
	cumulative.Add(round1[0])
	drain, _ := exchangeAll(t, reducers, []tensor.Vector{{0, 0, 0, 0}, {0, 0, 0, 0}}, nil)
	cumulative.Add(drain[0])
	want := tensor.Vector{33, 33, 33, 33} // 1+10 + 2+20 + 0+0
	if !cumulative.AllClose(want, 1e-9) {
		t.Fatalf("cumulative observed %v, want %v (stale gradient lost or duplicated)", cumulative, want)
	}
	if reducers[0].PendingStale() != 0 || reducers[1].PendingStale() != 0 {
		t.Fatalf("stale buffers not drained: %v / %v", reducers[0].PendingStale(), reducers[1].PendingStale())
	}
}

// exchangeAll runs one Exchange on every rank with the given per-rank delay
// and returns results and infos.
func exchangeAll(t *testing.T, reducers []*partial.Allreducer, contribs []tensor.Vector, delays []time.Duration) ([]tensor.Vector, []partial.RoundInfo) {
	t.Helper()
	p := len(reducers)
	results := make([]tensor.Vector, p)
	infos := make([]partial.RoundInfo, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if delays != nil && delays[r] > 0 {
				time.Sleep(delays[r])
			}
			results[r], infos[r], errs[r] = reducers[r].Exchange(contribs[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results, infos
}

func TestGradientConservationUnderSkew(t *testing.T) {
	// Every contributed gradient must end up in exactly one round's result —
	// either the round it was produced for or a later round, as a stale
	// gradient (Fig. 7) — and never be duplicated or lost. Rounds are run in
	// lockstep (the test waits for all ranks before starting the next round),
	// so no round result is overwritten and rank 0's per-round observations,
	// plus one final drain round, must sum to exactly the total contributed.
	const p = 4
	const rounds = 12
	_, reducers := makeWorld(t, p, 1, partial.Options{Mode: partial.Solo})

	totalContributed := 0.0
	observed := 0.0
	for round := 0; round < rounds; round++ {
		contribs := make([]tensor.Vector, p)
		delays := make([]time.Duration, p)
		for r := 0; r < p; r++ {
			v := float64(round*10 + r + 1)
			contribs[r] = tensor.Vector{v}
			totalContributed += v
			delays[r] = time.Duration((r*round)%3) * 3 * time.Millisecond
		}
		results, _ := exchangeAll(t, reducers, contribs, delays)
		observed += results[0][0]
	}
	// Drain: one final round with zero contributions flushes any stale
	// gradients still parked in send buffers.
	contribs := make([]tensor.Vector, p)
	for r := 0; r < p; r++ {
		contribs[r] = tensor.Vector{0}
	}
	finalResults, _ := exchangeAll(t, reducers, contribs, nil)
	observed += finalResults[0][0]

	for r := 0; r < p; r++ {
		if reducers[r].PendingStale() != 0 {
			t.Fatalf("rank %d still has stale gradients after the drain round", r)
		}
	}
	if diff := observed - totalContributed; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("observed gradient mass %v != contributed %v (lost or duplicated gradients)", observed, totalContributed)
	}
}

func TestMajorityInitiatorsAgreeAcrossRanks(t *testing.T) {
	const p = 5
	_, reducers := makeWorld(t, p, 1, partial.Options{Mode: partial.Majority, Seed: 7})
	for round := 0; round < 50; round++ {
		want := reducers[0].DesignatedInitiators(round)
		if len(want) != 1 || want[0] < 0 || want[0] >= p {
			t.Fatalf("round %d: invalid initiator set %v", round, want)
		}
		for r := 1; r < p; r++ {
			got := reducers[r].DesignatedInitiators(round)
			if len(got) != 1 || got[0] != want[0] {
				t.Fatalf("round %d: rank %d designates %v, rank 0 designates %v", round, r, got, want)
			}
		}
	}
	// Over many rounds the designated initiator must spread over the ranks
	// (roughly uniform random selection).
	seen := make(map[int]bool)
	for round := 0; round < 100; round++ {
		seen[reducers[0].DesignatedInitiators(round)[0]] = true
	}
	if len(seen) < p-1 {
		t.Fatalf("initiator selection covered only %d of %d ranks over 100 rounds", len(seen), p)
	}
}

func TestSoloHasNoDesignatedInitiator(t *testing.T) {
	_, reducers := makeWorld(t, 2, 1, partial.Options{Mode: partial.Solo})
	if got := reducers[0].DesignatedInitiators(3); got != nil {
		t.Fatalf("solo mode returned designated initiators %v", got)
	}
}

func TestMajorityAllIncludedWhenInitiatorArrivesLast(t *testing.T) {
	// Holding the designated initiator back until every other rank has
	// contributed guarantees that all contributions are included: the round
	// cannot activate before the initiator arrives.
	const p = 4
	const n = 2
	_, reducers := makeWorld(t, p, n, partial.Options{Mode: partial.Majority, Seed: 7})

	for round := 0; round < 4; round++ {
		initiator := reducers[0].DesignatedInitiators(round)[0]
		contribs := make([]tensor.Vector, p)
		delays := make([]time.Duration, p)
		want := tensor.NewVector(n)
		for r := 0; r < p; r++ {
			contribs[r] = tensor.Vector{float64(round + 1), float64(r + 1)}
			want.Add(contribs[r])
			if r == initiator {
				delays[r] = 60 * time.Millisecond
			}
		}
		results, infos := exchangeAll(t, reducers, contribs, delays)
		for r := 0; r < p; r++ {
			if !results[r].AllClose(want, 1e-9) {
				t.Fatalf("round %d rank %d result %v, want %v", round, r, results[r], want)
			}
			if !infos[r].Included {
				t.Fatalf("round %d rank %d not included although the initiator arrived last", round, r)
			}
			if infos[r].ActiveProcesses != p {
				t.Fatalf("round %d rank %d NAP %d, want %d", round, r, infos[r].ActiveProcesses, p)
			}
		}
	}
}

func TestMajorityWaitsForInitiatorNotForAll(t *testing.T) {
	// With linear skew and many rounds, majority allreduce must include on
	// average about half the ranks — strictly more than solo under the same
	// skew — and never fewer than one.
	const p = 8
	const n = 1
	const rounds = 30
	_, majReducers := makeWorld(t, p, n, partial.Options{Mode: partial.Majority, Seed: 3})
	_, soloReducers := makeWorld(t, p, n, partial.Options{Mode: partial.Solo})

	napSum := func(reducers []*partial.Allreducer) int {
		total := 0
		for round := 0; round < rounds; round++ {
			contribs := make([]tensor.Vector, p)
			delays := make([]time.Duration, p)
			for r := 0; r < p; r++ {
				contribs[r] = tensor.Vector{1}
				delays[r] = time.Duration(r) * 2 * time.Millisecond // linear skew
			}
			_, infos := exchangeAll(t, reducers, contribs, delays)
			// Use the NAP observed by the last rank (it always sees the
			// completed round's record).
			nap := 0
			for r := 0; r < p; r++ {
				if infos[r].ActiveProcesses > nap {
					nap = infos[r].ActiveProcesses
				}
			}
			if nap < 1 {
				t.Fatalf("round %d: NAP %d < 1 violates the quorum lower bound", round, nap)
			}
			total += nap
		}
		return total
	}

	soloNAP := napSum(soloReducers)
	majNAP := napSum(majReducers)
	soloAvg := float64(soloNAP) / rounds
	majAvg := float64(majNAP) / rounds
	if majAvg <= soloAvg {
		t.Fatalf("majority average NAP %.2f should exceed solo average NAP %.2f under linear skew", majAvg, soloAvg)
	}
	if majAvg < 2.0 {
		t.Fatalf("majority average NAP %.2f is implausibly low for p=%d", majAvg, p)
	}
}

func TestQuorumAllCandidatesBehavesLikeSolo(t *testing.T) {
	const p = 4
	const n = 2
	_, reducers := makeWorld(t, p, n, partial.Options{Mode: partial.Quorum, Candidates: p, Seed: 1})
	// With every rank a candidate, nobody is "designated": any rank may
	// initiate, exactly like solo.
	if got := reducers[0].DesignatedInitiators(0); got != nil {
		t.Fatalf("candidates=p should behave like solo, got designated initiators %v", got)
	}
	contribs := make([]tensor.Vector, p)
	for r := 0; r < p; r++ {
		contribs[r] = tensor.Vector{1, 2}
	}
	results, infos := exchangeAll(t, reducers, contribs, nil)
	// Same consistency invariants as solo: identical results everywhere,
	// equal to the sum of included contributions.
	included := 0
	for r := 0; r < p; r++ {
		if infos[r].Included {
			included++
		}
	}
	if included < 1 {
		t.Fatal("no contribution included")
	}
	want := tensor.Vector{float64(included), float64(2 * included)}
	for r := 0; r < p; r++ {
		if !results[r].AllClose(want, 1e-9) {
			t.Fatalf("rank %d result %v, want %v", r, results[r], want)
		}
	}
}

func TestManyRoundsStaySane(t *testing.T) {
	// Stress the per-round tag allocation, record pruning, and duplicate
	// purging over a few hundred rounds.
	const p = 4
	const n = 3
	const rounds = 300
	_, reducers := makeWorld(t, p, n, partial.Options{Mode: partial.Solo})
	contribs := make([]tensor.Vector, p)
	for r := 0; r < p; r++ {
		contribs[r] = tensor.Vector{1, 1, 1}
	}
	for round := 0; round < rounds; round++ {
		results, _ := exchangeAll(t, reducers, contribs, nil)
		for r := 0; r < p; r++ {
			if results[r].Sum() <= 0 || results[r].Sum() > float64(p*n*2) {
				t.Fatalf("round %d rank %d implausible result %v", round, r, results[r])
			}
		}
	}
	for r := 0; r < p; r++ {
		if got := reducers[r].LastRound(); got < rounds-1 {
			t.Fatalf("rank %d completed only %d rounds, want at least %d", r, got+1, rounds)
		}
	}
}

func TestRankAndSizeAccessors(t *testing.T) {
	const p = 3
	_, reducers := makeWorld(t, p, 1, partial.Options{Mode: partial.Majority, Seed: 2})
	for r := 0; r < p; r++ {
		if reducers[r].Rank() != r || reducers[r].Size() != p {
			t.Fatalf("rank %d accessors wrong: %d/%d", r, reducers[r].Rank(), reducers[r].Size())
		}
		if reducers[r].Mode() != partial.Majority {
			t.Fatalf("mode accessor wrong")
		}
	}
}

func TestLockstepRoundsExactResults(t *testing.T) {
	// Results must track per-round contributions exactly when every
	// designated initiator is held back until the other ranks have
	// contributed, for both majority and quorum modes.
	cases := []struct {
		name string
		opts partial.Options
	}{
		{"majority", partial.Options{Mode: partial.Majority, Seed: 11}},
		// A single-candidate quorum is semantically majority; it exercises the
		// Quorum code path with a deterministic initiator. (With two or more
		// candidates "everyone included" cannot be forced by delaying the
		// candidates: whichever candidate arrives first excludes the others.)
		{"quorum1", partial.Options{Mode: partial.Quorum, Candidates: 1, Seed: 11}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const p = 4
			const n = 2
			const rounds = 8
			_, reducers := makeWorld(t, p, n, tc.opts)
			for round := 0; round < rounds; round++ {
				initiators := reducers[0].DesignatedInitiators(round)
				contribs := make([]tensor.Vector, p)
				delays := make([]time.Duration, p)
				want := tensor.NewVector(n)
				for r := 0; r < p; r++ {
					contribs[r] = tensor.Vector{float64(round), float64(r)}
					want.Add(contribs[r])
				}
				for _, init := range initiators {
					delays[init] = 40 * time.Millisecond
				}
				results, infos := exchangeAll(t, reducers, contribs, delays)
				for r := 0; r < p; r++ {
					if !results[r].AllClose(want, 1e-9) {
						t.Fatalf("%s round %d rank %d: %v want %v", tc.name, round, r, results[r], want)
					}
					if !infos[r].Included {
						t.Fatalf("%s round %d rank %d not included although initiators arrived last", tc.name, round, r)
					}
				}
			}
		})
	}
}

func TestExchangeResultIsACopy(t *testing.T) {
	// Single-rank world (also exercises the size-1 edge case): mutating a
	// returned result must not corrupt the allreducer's internal receive
	// buffer.
	_, reducers := makeWorld(t, 1, 2, partial.Options{Mode: partial.Solo})
	res, info, err := reducers[0].Exchange(tensor.Vector{1, 1})
	if err != nil || !res.Equal(tensor.Vector{1, 1}) || !info.Included || info.ActiveProcesses != 1 {
		t.Fatalf("single-rank exchange: %v %+v %v", res, info, err)
	}
	res[0] = 999
	res2, _, err := reducers[0].Exchange(tensor.Vector{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Equal(tensor.Vector{3, 4}) {
		t.Fatalf("round 1 result %v polluted by caller mutation of round 0 result", res2)
	}
}

func ExampleAllreducer() {
	world := transport.NewInprocWorld(2)
	defer world[0].Close()
	a0 := partial.New(world[0], 3, partial.Options{Mode: partial.Solo})
	a1 := partial.New(world[1], 3, partial.Options{Mode: partial.Solo})
	defer a0.Close()
	defer a1.Close()

	var wg sync.WaitGroup
	results := make([]tensor.Vector, 2)
	wg.Add(2)
	go func() { defer wg.Done(); results[0], _, _ = a0.Exchange(tensor.Vector{1, 2, 3}) }()
	go func() { defer wg.Done(); results[1], _, _ = a1.Exchange(tensor.Vector{10, 20, 30}) }()
	wg.Wait()
	fmt.Println(results[0].Equal(results[1]))
	// Output: true
}

// exchangeContext runs Exchange's one-bucket step with a context on its wait.
func exchangeContext(ctx context.Context, a *partial.Allreducer, grad tensor.Vector) (partial.RoundInfo, error) {
	round, stage, err := a.BeginStep()
	if err != nil {
		return partial.RoundInfo{}, err
	}
	stage.CopyFrom(grad)
	seq, err := a.Contribute(round)
	if err != nil {
		return partial.RoundInfo{}, err
	}
	return a.WaitStep(ctx, round, seq)
}

// TestWaitStepCancellation proves a blocked step wait returns promptly when
// the context expires, and that the contribution survives as a stale
// gradient: in majority mode with the designated initiator held back, a
// non-initiator's exchange cannot complete — canceling it must not lose the
// gradient, which is folded into the next round once the initiator arrives.
func TestWaitStepCancellation(t *testing.T) {
	const p = 2
	const n = 3
	_, reducers := makeWorld(t, p, n, partial.Options{Mode: partial.Majority, Seed: 8})

	initiator := reducers[0].DesignatedInitiators(0)[0]
	waiter := (initiator + 1) % p

	grad := tensor.NewVector(n)
	grad.Fill(1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := exchangeContext(ctx, reducers[waiter], grad); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked exchange returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if reducers[waiter].PendingStale() == 0 {
		t.Fatal("canceled contribution must stay buffered as a stale gradient")
	}

	// The reducer stays usable: once every rank participates again the
	// canceled rank's stale gradient is delivered in a later round.
	var wg sync.WaitGroup
	results := make([]tensor.Vector, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				g := tensor.NewVector(n)
				out, _, err := reducers[r].Exchange(g)
				if err != nil {
					t.Errorf("rank %d round %d: %v", r, round, err)
					return
				}
				results[r] = out
			}
		}(r)
	}
	wg.Wait()
	if results[waiter] == nil {
		t.Fatal("no result after cancellation")
	}
	if reducers[waiter].PendingStale() != 0 {
		t.Fatal("stale gradient was never contributed after cancellation")
	}
}

// TestDrainPendingTakesStaleGradients checks the atomic take of the send
// buffer.
func TestDrainPendingTakesStaleGradients(t *testing.T) {
	_, reducers := makeWorld(t, 2, 2, partial.Options{Mode: partial.Majority, Seed: 8})
	waiter := (reducers[0].DesignatedInitiators(0)[0] + 1) % 2
	grad := tensor.Vector{2, 3}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := exchangeContext(ctx, reducers[waiter], grad)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("setup exchange returned %v", err)
	}
	drained := reducers[waiter].DrainPending()
	if !drained.Equal(grad) {
		t.Fatalf("drained %v, want %v", drained, grad)
	}
	if reducers[waiter].PendingStale() != 0 {
		t.Fatal("send buffer must be empty after drain")
	}
}
