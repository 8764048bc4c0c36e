package collective_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/tensor"
)

// TestChaosChurnScenarios is the elastic-membership leg of the chaos matrix:
// the three churn shapes (crash→replace, join-under-load, lowest-rank-kill)
// run over {inproc, tcp} × seeds with jittery delaying links. Every scenario
// asserts liveness — all post-transition members complete reductions over the
// new epoch's schedule — and leak-freedom; there are no wall-clock thresholds
// to flake on. Scenarios run sequentially because the lease accounting reads
// the process-global pool counters.
func TestChaosChurnScenarios(t *testing.T) {
	const (
		dim  = 48
		size = 3
	)
	type scenario struct {
		name      string
		victim    collective.RankID // rank to crash and replace; -1 joins instead
		wantSize  int
		wantRanks int
	}
	scenarios := []scenario{
		// A middle rank dies and is replaced in one transition.
		{name: "crash-replace", victim: 1, wantSize: size, wantRanks: size},
		// A fresh member joins while every rank is mid-reduction.
		{name: "join-under-load", victim: -1, wantSize: size + 1, wantRanks: size + 1},
		// The lowest rank dies and is replaced: every survivor's dense rank
		// shifts, and the state comes from the next live rank.
		{name: "lowest-rank-kill", victim: 0, wantSize: size, wantRanks: size},
	}
	transports := []struct {
		name string
		opts func(block int) []collective.Option
	}{
		{name: "inproc", opts: func(int) []collective.Option { return nil }},
		{name: "tcp", opts: func(block int) []collective.Option {
			// Each subtest gets its own port block; an epoch transition
			// advances the world's internal cursor past basePort+size, so
			// leave headroom between blocks.
			return []collective.Option{
				collective.WithTransport(collective.TCP),
				collective.WithBasePort(26200 + block*32),
				collective.WithDialRetry(5 * time.Second),
			}
		}},
	}
	seeds := []int64{3, 17}

	block := 0
	for _, sc := range scenarios {
		for _, tp := range transports {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/%s/seed=%d", sc.name, tp.name, seed)
				opts := append(tp.opts(block), chaosChurnFaults(seed)...)
				block++
				t.Run(name, func(t *testing.T) {
					runChurnScenario(t, dim, size, sc.victim, sc.wantSize, sc.wantRanks, opts)
				})
			}
		}
	}
}

// chaosChurnFaults builds the seed-varied fault options every churn scenario
// runs under: mildly delaying links (so seeds genuinely change message
// interleavings) and deadline-based failure detection.
func chaosChurnFaults(seed int64) []collective.Option {
	return []collective.Option{
		collective.WithFaults(collective.FaultScenario{
			Name: "churn-chaos",
			Seed: seed,
			Default: collective.FaultLinkRule{
				DelayProb: 0.2,
				DelayMin:  100 * time.Microsecond,
				DelayMax:  2 * time.Millisecond,
			},
		}),
		collective.WithPeerDeadline(500 * time.Millisecond),
	}
}

// runChurnScenario executes one churn shape against a fresh world: start a
// reduce loop per founding rank, inject the scripted change (crash+Replace or
// Join), and require every member of the committed epoch to reduce over the
// new schedule.
func runChurnScenario(t *testing.T, dim, size int, victim collective.RankID, wantSize, wantRanks int, opts []collective.Option) {
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(size, opts...)
	if err != nil {
		t.Fatalf("world: %v", err)
	}

	params := []float64{1.5, -2.25, 4}
	epochCh := make(chan struct{})
	w.OnMembershipChange(func(collective.Epoch) { close(epochCh) })

	var sawWant sync.WaitGroup
	sawWant.Add(wantRanks)
	var loops sync.WaitGroup
	for r := 0; r < size; r++ {
		n := w.Node(r)
		n.SetStateProvider(func() []float64 { return append([]float64(nil), params...) })
		red, err := n.Reducer(dim)
		if err != nil {
			t.Fatalf("reducer %d: %v", r, err)
		}
		isVictim := victim >= 0 && n.ID() == victim
		loops.Add(1)
		go func() {
			defer loops.Done()
			if isVictim {
				// The victim reduces until its crash error, then stops like
				// a dead process would.
				grad := make(tensor.Vector, dim)
				for {
					res, err := red.Reduce(context.Background(), grad)
					if err != nil {
						return
					}
					tensor.PutVector(res.Sum)
				}
			}
			reduceLoop(t, red, dim, wantRanks, epochCh, &sawWant)
		}()
	}

	time.Sleep(10 * time.Millisecond) // let a few rounds run

	var joiner *collective.Node
	if victim >= 0 {
		w.FaultInjector().Crash(int(victim))
		awaitDown(t, w, victim)
		joiner, err = w.Replace(victim, "replacement")
		if err != nil {
			t.Fatalf("Replace(%d): %v", victim, err)
		}
	} else {
		joiner, err = w.Join("joiner")
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if got := len(joiner.InitialState()); got != len(params) {
		t.Fatalf("joiner adopted %d state elements, want %d", got, len(params))
	}
	red, err := joiner.Reducer(dim)
	if err != nil {
		t.Fatalf("joiner reducer: %v", err)
	}
	loops.Add(1)
	go func() {
		defer loops.Done()
		reduceLoop(t, red, dim, wantRanks, epochCh, &sawWant)
	}()

	waitDone(t, &sawWant, 20*time.Second, "not every member reduced over the new schedule")
	if got := w.Size(); got != wantSize {
		t.Fatalf("world size after churn = %d, want %d", got, wantSize)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	loops.Wait()
	if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
		t.Fatalf("%d pool leases leaked", leaked)
	}
}

// awaitDown blocks until the world's health view marks the victim down.
func awaitDown(t *testing.T, w *collective.World, victim collective.RankID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, p := range w.Peers() {
			if p.ID == victim && !p.Up {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("health view never marked the victim down")
}

// waitDone waits for wg with a deadline, failing the test on timeout.
func waitDone(t *testing.T, wg *sync.WaitGroup, d time.Duration, msg string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal(msg)
	}
}
