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
				if got := a.isInitiator(round); got != (want == nil || slices.Contains(want, r)) {
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
