package partial

import (
	"slices"
	"testing"

	"eagersgd/internal/transport"
)

// TestInitiatorGolden pins Initiator's values: every rank's consensus on a
// round's initiators and every curve internal/sweep writes depend on them.
func TestInitiatorGolden(t *testing.T) {
	for _, tc := range []struct {
		seed                   int64
		round, idx, size, want int
	}{
		{0, 0, 0, 8, 4},
		{42, 0, 0, 1000, 291},
		{42, 17, 2, 1000, 155},
		{99, 5, 1, 8, 1},
		{-1, 3, 0, 64, 60},
		{7, 123456, 4, 5, 3},
		{1 << 40, 9, 3, 2, 0},
	} {
		if got := Initiator(tc.seed, tc.round, tc.idx, tc.size); got != tc.want {
			t.Errorf("Initiator(%d, %d, %d, %d) = %d, want %d", tc.seed, tc.round, tc.idx, tc.size, got, tc.want)
		}
	}
}

// TestInitiatorAgreesWithEngine checks that the engine activates the ranks
// Initiator names: under Majority and Quorum(k), DesignatedInitiators lists
// Initiator(seed, round, idx, size) for idx < k without duplicates in
// first-seen order (nil once k covers the world), and isInitiator holds at
// exactly those ranks.
func TestInitiatorAgreesWithEngine(t *testing.T) {
	const size, seed = 8, 99
	for _, opts := range []Options{
		{Mode: Majority, Seed: seed},
		{Mode: Quorum, Seed: seed, Candidates: 2},
		{Mode: Quorum, Seed: seed, Candidates: 4},
		{Mode: Quorum, Seed: seed, Candidates: size},
	} {
		world := transport.NewInprocWorld(size)
		ars := make([]*Allreducer, size)
		for r, c := range world {
			ars[r] = New(c, 4, opts)
		}
		k := max(opts.Candidates, 1)
		for round := 0; round < 100; round++ {
			var want []int
			for idx := 0; idx < k && k < size; idx++ {
				if r := Initiator(seed, round, idx, size); !slices.Contains(want, r) {
					want = append(want, r)
				}
			}
			if got := ars[0].DesignatedInitiators(round); !slices.Equal(got, want) {
				t.Fatalf("%v k=%d round %d: DesignatedInitiators = %v, Initiator gives %v", opts.Mode, k, round, got, want)
			}
			for r, a := range ars {
				if got := a.act.isInitiator(round); got != (want == nil || slices.Contains(want, r)) {
					t.Fatalf("%v k=%d round %d: rank %d isInitiator = %v, Initiator gives %v", opts.Mode, k, round, r, got, want)
				}
			}
		}
		for r, a := range ars {
			a.Close()
			world[r].Close()
		}
	}
}

// TestCandidatesWalk pins the participation rule every mode resolves to:
// Solo, and a Quorum of k ≥ size, walk every rank once in rank order;
// Majority, and a Quorum below size, walk Initiator's first k draws in draw
// order (Majority k = 1, a Quorum k below 1 counts as 1, a collision is
// yielded twice); the walk stops as soon as yield returns false.
func TestCandidatesWalk(t *testing.T) {
	walk := func(mode Mode, k, size, stopAfter int) []int {
		var got []int
		Candidates(mode, k, 42, 17, size, func(r int) bool {
			got = append(got, r)
			return len(got) < stopAfter
		})
		return got
	}
	if got := walk(Solo, 0, 5, 100); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("Solo of 5: candidates %v, want every rank", got)
	}
	for _, k := range []int{5, 6, 1000} {
		if got := walk(Quorum, k, 5, 100); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
			t.Errorf("Quorum k=%d of 5: candidates %v, want every rank", k, got)
		}
	}
	var draws []int
	for i := 0; i < 12; i++ {
		draws = append(draws, Initiator(42, 17, i, 20))
	}
	distinct := slices.Clone(draws)
	slices.Sort(distinct)
	if len(slices.Compact(distinct)) == len(draws) {
		t.Fatalf("the draws %v hold no collision, so they do not show one yielded twice", draws)
	}
	for _, m := range []struct {
		mode Mode
		k    int
	}{{Majority, 7}, {Quorum, 1}, {Quorum, 0}, {Quorum, -3}} {
		if got := walk(m.mode, m.k, 20, 100); !slices.Equal(got, draws[:1]) {
			t.Errorf("%v k=%d of 20: candidates %v, want Initiator's first draw %v", m.mode, m.k, got, draws[:1])
		}
	}
	if got := walk(Quorum, 12, 20, 100); !slices.Equal(got, draws) {
		t.Errorf("Quorum k=12 of 20: candidates %v, want Initiator's draws %v", got, draws)
	}
	if got := walk(Quorum, 12, 20, 2); !slices.Equal(got, draws[:2]) {
		t.Errorf("walk stopped after 2: candidates %v, want %v", got, draws[:2])
	}
}
