// Package collective_test exercises the public API exactly as an external
// program would: only public packages are imported.
package collective_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/tensor"
)

// runRanks calls fn concurrently for every rank and fails the test on error
// or on a deadlock (no completion within the timeout).
func runRanks(t *testing.T, size int, fn func(rank int) error) {
	t.Helper()
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("ranks did not finish (deadlock)")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestReduceRoundTripEveryModeAndTransport drives every reduction mode over
// every transport through the one Reducer interface: several eager (or sync)
// rounds, with every rank contributing an all-ones vector each round.
func TestReduceRoundTripEveryModeAndTransport(t *testing.T) {
	const (
		ranks  = 4
		dim    = 6
		rounds = 6
	)
	modes := []struct {
		name string
		mode collective.Mode
	}{
		{"sync", collective.Sync},
		{"solo", collective.Solo},
		{"majority", collective.Majority},
		{"quorum", collective.Quorum(2)},
	}
	transports := []struct {
		name string
		opts []collective.Option
	}{
		{"inproc", []collective.Option{collective.WithTransport(collective.Inproc)}},
		{"tcp", []collective.Option{collective.WithTransport(collective.TCP)}},
		{"shm", []collective.Option{collective.WithTransport(collective.Shm)}},
	}
	for ti, tr := range transports {
		for mi, m := range modes {
			t.Run(tr.name+"/"+m.name, func(t *testing.T) {
				opts := append([]collective.Option{
					collective.WithMode(m.mode),
					collective.WithSeed(42),
					// Distinct ports per subtest so TCP listeners never collide.
					collective.WithBasePort(30100 + 100*ti + 10*mi),
				}, tr.opts...)
				world, err := collective.NewWorld(ranks, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()

				// results[round][rank] collects every observation for the
				// cross-rank checks on synchronous rounds.
				results := make([][]collective.Result, rounds)
				for i := range results {
					results[i] = make([]collective.Result, ranks)
				}
				runRanks(t, ranks, func(rank int) error {
					red, err := world.Node(rank).Reducer(dim)
					if err != nil {
						return err
					}
					defer red.Close()
					for round := 0; round < rounds; round++ {
						grad := tensor.NewVector(dim)
						grad.Fill(1)
						res, err := red.Reduce(context.Background(), grad)
						if err != nil {
							return fmt.Errorf("round %d: %w", round, err)
						}
						if len(res.Sum) != dim {
							return fmt.Errorf("round %d: sum length %d, want %d", round, len(res.Sum), dim)
						}
						if res.Ranks != ranks {
							return fmt.Errorf("round %d: ranks %d, want %d", round, res.Ranks, ranks)
						}
						for i := 1; i < dim; i++ {
							if res.Sum[i] != res.Sum[0] {
								return fmt.Errorf("round %d: non-uniform sum %v of uniform contributions", round, res.Sum)
							}
						}
						if res.Sum[0] < 1 || res.Sum[0] > float64(rounds*ranks) {
							return fmt.Errorf("round %d: sum %v out of range", round, res.Sum[0])
						}
						if res.ActiveRanks < 0 || res.ActiveRanks > ranks {
							return fmt.Errorf("round %d: active ranks %d out of range", round, res.ActiveRanks)
						}
						results[round][rank] = res
					}
					return nil
				})

				for round := 0; round < rounds && m.mode == collective.Sync; round++ {
					// Synchronous rounds include every rank's fresh
					// contribution and agree bit-exactly across ranks.
					for rank := 0; rank < ranks; rank++ {
						res := results[round][rank]
						if res.ActiveRanks != ranks {
							t.Fatalf("round %d rank %d: sync round active=%d, want %d", round, rank, res.ActiveRanks, ranks)
						}
						if !res.Included {
							t.Fatalf("round %d rank %d: sync round must include every contribution", round, rank)
						}
						if !res.Sum.Equal(results[round][0].Sum) {
							t.Fatalf("round %d: rank %d result %v differs from rank 0's %v",
								round, rank, res.Sum, results[round][0].Sum)
						}
					}
				}
				if err := world.Close(); err != nil {
					t.Fatalf("world close: %v", err)
				}
			})
		}
	}
}

// TestSyncReduceMatchesExactSum checks the arithmetic of the Sync mode in
// each of its styles: with rank r contributing the value r+1 everywhere,
// every rank must see the exact total, every round. The dimensions steer
// Auto to each wire algorithm in turn for the fused style at this world size
// (the Deep500 style reduces a third of each in one call).
func TestSyncReduceMatchesExactSum(t *testing.T) {
	const ranks = 5 // non-power-of-two exercises the fold paths
	want := 0.0
	for r := 0; r < ranks; r++ {
		want += float64(r + 1)
	}
	for _, tc := range []struct {
		algo string
		dim  int
	}{
		{"recursive-doubling", 9},
		{"rabenseifner", 5000},
		{"ring", 40000},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			for _, style := range []struct {
				name string
				opt  collective.Option
			}{
				{"fused", collective.WithChunks(1)},
				{"deep500", collective.WithChunks(3)},
				{"horovod", collective.WithNegotiation()},
			} {
				t.Run(style.name, func(t *testing.T) {
					world, err := collective.NewWorld(ranks, style.opt)
					if err != nil {
						t.Fatal(err)
					}
					defer world.Close()
					runRanks(t, ranks, func(rank int) error {
						red, err := world.Node(rank).Reducer(tc.dim)
						if err != nil {
							return err
						}
						defer red.Close()
						for round := 0; round < 3; round++ {
							grad := tensor.NewVector(tc.dim)
							grad.Fill(float64(rank + 1))
							res, err := red.Reduce(context.Background(), grad)
							if err != nil {
								return err
							}
							for i, x := range res.Sum {
								if x != want {
									return fmt.Errorf("round %d elem %d: got %v, want %v", round, i, x, want)
								}
							}
						}
						return nil
					})
				})
			}
		})
	}
}

// TestReducerRejectsBadArguments: Node.Reducer refuses a non-positive
// dimension and a bucket layout that does not partition it, in the sync and
// the eager modes alike, and a refused call enrols nothing — the next epoch
// transition, which re-mints every enrolled reducer, still commits.
func TestReducerRejectsBadArguments(t *testing.T) {
	for _, mode := range []collective.Mode{collective.Sync, collective.Solo} {
		for _, tc := range []struct {
			name string
			dim  int
			opts []collective.Option
		}{
			{"zero-dim", 0, nil},
			{"negative-dim", -1, nil},
			{"layout-short-of-dim", 10, []collective.Option{collective.WithBucketLayout(4, 5)}},
			{"zero-length-bucket", 10, []collective.Option{collective.WithBucketLayout(4, 0, 6)}},
		} {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				world, err := collective.NewWorld(2, collective.WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				if _, err := world.Node(0).Reducer(tc.dim, tc.opts...); err == nil {
					t.Fatalf("Reducer(%d) succeeded, want an error", tc.dim)
				}
				if _, err := world.Join("joiner"); err != nil {
					t.Fatalf("Join after a refused Reducer: %v", err)
				}
				if got := world.Membership().Number; got != 1 {
					t.Fatalf("epoch %d after Join, want 1", got)
				}
			})
		}
	}
}

// TestReduceContextCancellation proves a blocked Reduce returns promptly when
// its context expires: rank 1 never joins the synchronous collective, so rank
// 0 would hang forever without the cancellation plumbing.
func TestReduceContextCancellation(t *testing.T) {
	world, err := collective.NewWorld(2, collective.WithMode(collective.Sync))
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	red, err := world.Node(0).Reducer(4)
	if err != nil {
		t.Fatal(err)
	}
	defer red.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		grad := tensor.NewVector(4)
		grad.Fill(1)
		_, err := red.Reduce(ctx, grad)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("blocked Reduce returned %v, want context.DeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v, want prompt return", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Reduce ignored context cancellation")
	}
}

// TestWorldValidation covers the construction error paths and Close
// idempotency.
func TestWorldValidation(t *testing.T) {
	if _, err := collective.NewWorld(0); err == nil {
		t.Fatal("expected error for empty world")
	}
	world, err := collective.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if world.Size() != 2 || world.Node(1).Rank() != 1 || world.Node(0).Size() != 2 {
		t.Fatal("world shape wrong")
	}
	if len(world.Nodes()) != 2 {
		t.Fatal("Nodes() length wrong")
	}
	if _, err := world.Node(0).Reducer(0); err == nil {
		t.Fatal("expected error for non-positive dimension")
	}
	if err := world.Close(); err != nil {
		t.Fatal(err)
	}
	if err := world.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTransportStrings pins the name of each of the three transports and
// the fallback for a value outside them.
func TestTransportStrings(t *testing.T) {
	for _, tc := range []struct {
		tr   collective.Transport
		want string
	}{
		{collective.Inproc, "inproc"},
		{collective.TCP, "tcp"},
		{collective.Shm, "shm"},
		{collective.Shm + 1, fmt.Sprintf("transport(%d)", int(collective.Shm)+1)},
	} {
		t.Run(tc.want, func(t *testing.T) {
			if got := tc.tr.String(); got != tc.want {
				t.Fatalf("Transport(%d).String() = %q, want %q", int(tc.tr), got, tc.want)
			}
		})
	}
}

// TestModeAndNameStrings pins the naming surface reports rely on.
func TestModeAndNameStrings(t *testing.T) {
	if collective.Sync.String() != "sync" || collective.Solo.String() != "solo" ||
		collective.Majority.String() != "majority" || collective.Quorum(3).String() != "quorum" {
		t.Fatal("mode names wrong")
	}
	if collective.Quorum(3).Candidates() != 3 || collective.Quorum(0).Candidates() != 1 {
		t.Fatal("quorum candidates wrong")
	}
	if collective.Inproc.String() != "inproc" || collective.TCP.String() != "tcp" {
		t.Fatal("transport names wrong")
	}
	world, err := collective.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	for _, tc := range []struct {
		opts []collective.Option
		want string
	}{
		{nil, "synch-sgd"},
		{[]collective.Option{collective.WithChunks(4)}, "synch-sgd (deep500)"},
		{[]collective.Option{collective.WithNegotiation()}, "synch-sgd (horovod)"},
		{[]collective.Option{collective.WithMode(collective.Solo)}, "eager-sgd (solo)"},
		{[]collective.Option{collective.WithMode(collective.Quorum(2))}, "eager-sgd (quorum)"},
	} {
		red, err := world.Node(0).Reducer(3, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := collective.ReducerName(red); got != tc.want {
			t.Fatalf("name %q, want %q", got, tc.want)
		}
		red.Close()
	}
}
