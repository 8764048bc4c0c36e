// Elastic: membership reconfiguration while training runs, through the
// public API.
//
// Three founding ranks reduce synchronously while the world is reconfigured
// under them twice: first a fresh member joins (3 → 4), then a scripted
// crash kills one rank and a fresh member replaces it. Each change is one
// epoch transition — drain, a fresh transport generation, an in-memory copy
// of one survivor's state for the newcomer, re-mint, commit — and the
// training loops never rebuild their reducers: a reducer minted through
// Node.Reducer is an epoch-stable handle that follows the member across
// epochs. Joiners adopt the model state of a live survivor, so they start
// from the current parameters, not from scratch.
//
// Run with: go run ./examples/elastic
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"eagersgd/collective"
	"eagersgd/tensor"
)

const (
	founders  = 3
	dim       = 8
	victim    = collective.RankID(1)
	finalSize = 4 // founders + joiner + replacement - victim
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// An empty scenario arms the injector without scripting any faults; the
	// crash below is triggered at runtime. The peer deadline is the failure
	// detector that lets survivors notice the death.
	world, err := collective.NewWorld(founders,
		collective.WithFaults(collective.FaultScenario{Name: "elastic-demo", Seed: 7}),
		collective.WithPeerDeadline(500*time.Millisecond),
	)
	if err != nil {
		return err
	}
	defer world.Close()

	var mu sync.Mutex
	printf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(out, format, args...)
	}

	// Every epoch commit fires the observers; the broadcast channel below is
	// what parks a training loop whose reduce failed mid-transition.
	epochChanged := make(chan struct{})
	world.OnMembershipChange(func(e collective.Epoch) {
		printf("epoch %d committed: %d members\n", e.Number, len(e.Members))
		mu.Lock()
		close(epochChanged)
		epochChanged = make(chan struct{})
		mu.Unlock()
	})
	waitEpoch := func() <-chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		return epochChanged
	}

	// The model state joiners adopt: in a real trainer this is the parameter
	// vector. The world copies what the provider returns for each joiner, so
	// the provider may hand over the live slice.
	params := []float64{0.5, -1.25, 2}

	// One training loop per member. Loops run until the world closes; a
	// reduce that fails because a peer died parks until the repairing epoch
	// commits (or shutdown), then continues on the re-minted schedule.
	shutdown := make(chan struct{})
	sawFinal := make(chan struct{}, 16)
	var loops sync.WaitGroup
	train := func(n *collective.Node, red collective.Reducer) {
		defer loops.Done()
		grad := make(tensor.Vector, dim)
		for i := range grad {
			grad[i] = 1
		}
		signalled := false
		for {
			wait := waitEpoch()
			res, err := red.Reduce(context.Background(), grad)
			if err != nil {
				if errors.Is(err, collective.ErrReducerClosed) {
					return
				}
				if world.FaultInjector().Crashed(n.Rank()) || !stillMember(world, n) {
					printf("member %d: stopped (%v)\n", n.ID(), err)
					return
				}
				select {
				case <-wait: // a peer died mid-collective; the repair committed
					continue
				case <-shutdown: // close racing the failed reduce: no repair coming
					return
				}
			}
			if !signalled && res.Ranks == finalSize {
				signalled = true
				sawFinal <- struct{}{}
			}
			tensor.PutVector(res.Sum)
		}
	}
	start := func(n *collective.Node) error {
		n.SetStateProvider(func() []float64 { return params })
		red, err := n.Reducer(dim)
		if err != nil {
			return err
		}
		loops.Add(1)
		go train(n, red)
		return nil
	}
	for r := 0; r < founders; r++ {
		if err := start(world.Node(r)); err != nil {
			return err
		}
	}
	time.Sleep(5 * time.Millisecond) // let the founding epoch reduce a little

	// Grow: a fresh member joins mid-run and adopts a survivor's state.
	joiner, err := world.Join("worker-4.example:7777")
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	printf("joiner got ID %d, dense rank %d, %d state elements\n",
		joiner.ID(), joiner.Rank(), len(joiner.InitialState()))
	if err := start(joiner); err != nil {
		return err
	}

	// Repair: kill a member at runtime, wait for the failure detector, and
	// replace it. The replacement gets a fresh stable ID — identities are
	// never reused — so it takes the last dense rank.
	world.FaultInjector().Crash(int(victim))
	awaitDown(world, victim)
	printf("rank %d is down; replacing\n", victim)
	repl, err := world.Replace(victim, "worker-5.example:7777")
	if err != nil {
		return fmt.Errorf("replace: %w", err)
	}
	printf("replacement got ID %d, dense rank %d, %d state elements\n",
		repl.ID(), repl.Rank(), len(repl.InitialState()))
	if err := start(repl); err != nil {
		return err
	}

	// Wait until every live member has reduced over the final 4-rank
	// schedule, then shut down; Close joins every loop leak-free.
	for seen := 0; seen < finalSize; seen++ {
		select {
		case <-sawFinal:
		case <-time.After(30 * time.Second):
			return errors.New("members never reduced over the final schedule")
		}
	}
	printf("\nfinal membership (epoch %d):\n", world.Membership().Number)
	for _, p := range world.Peers() {
		printf("  ID %d at dense rank %d (up=%v)\n", p.ID, p.Rank, p.Up)
	}
	close(shutdown)
	if err := world.Close(); err != nil {
		return err
	}
	loops.Wait()
	return nil
}

// stillMember reports whether the node's stable ID is in the current epoch.
func stillMember(w *collective.World, n *collective.Node) bool {
	for _, m := range w.Membership().Members {
		if m.ID == n.ID() {
			return true
		}
	}
	return false
}

// awaitDown polls the health view until the victim is marked down.
func awaitDown(w *collective.World, victim collective.RankID) {
	for {
		for _, p := range w.Peers() {
			if p.ID == victim && !p.Up {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}
