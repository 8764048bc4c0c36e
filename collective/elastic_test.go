package collective_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/membership"
	"eagersgd/internal/tensor"
)

// reduceLoop runs one member's training loop: reduce, release, repeat. On a
// peer-failure error it parks until the next committed epoch (the reducer is
// re-minted there) and resumes; on ErrReducerClosed (world closing or the
// member departed) it exits. sawRanks is signalled the first time a result
// covers the wanted rank count.
func reduceLoop(t *testing.T, r collective.Reducer, dim, wantRanks int, epochChanged <-chan struct{}, sawRanks *sync.WaitGroup) {
	t.Helper()
	grad := make(tensor.Vector, dim)
	for i := range grad {
		grad[i] = 1
	}
	signalled := false
	for {
		res, err := r.Reduce(context.Background(), grad)
		if err != nil {
			if errors.Is(err, collective.ErrReducerClosed) {
				return
			}
			// A peer died mid-collective: wait out the reconfiguration, then
			// continue on the re-minted epoch.
			select {
			case <-epochChanged:
				continue
			case <-time.After(10 * time.Second):
				t.Errorf("no epoch transition after failure: %v", err)
				return
			}
		}
		if !signalled && res.Ranks == wantRanks {
			signalled = true
			sawRanks.Done()
		}
		tensor.PutVector(res.Sum)
	}
}

// TestJoinGrowsWorldUnderLoad grows a 4-rank world to 6 in one epoch
// transition while every rank is actively reducing, and asserts that all six
// members then reduce over the 6-rank schedule with zero leaked leases.
func TestJoinGrowsWorldUnderLoad(t *testing.T) {
	const (
		dim      = 96
		oldSize  = 4
		newSize  = 6
		paramDim = 33
	)
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(oldSize)
	if err != nil {
		t.Fatalf("world: %v", err)
	}

	params := make([]float64, paramDim)
	for i := range params {
		params[i] = float64(i) * 0.25
	}
	epochCh := make(chan struct{})
	w.OnMembershipChange(func(collective.Epoch) { close(epochCh) })

	var sawSix sync.WaitGroup
	sawSix.Add(newSize)
	var loops sync.WaitGroup
	for r := 0; r < oldSize; r++ {
		n := w.Node(r)
		n.SetStateProvider(func() []float64 { return append([]float64(nil), params...) })
		red, err := n.Reducer(dim)
		if err != nil {
			t.Fatalf("reducer %d: %v", r, err)
		}
		loops.Add(1)
		go func() {
			defer loops.Done()
			reduceLoop(t, red, dim, newSize, epochCh, &sawSix)
		}()
	}

	joiners, err := collective.Transition(w, []membership.Change{
		{Kind: membership.ChangeJoin, Addr: "j1"},
		{Kind: membership.ChangeJoin, Addr: "j2"},
	})
	if err != nil {
		t.Fatalf("Transition: %v", err)
	}
	if len(joiners) != 2 {
		t.Fatalf("got %d joiner nodes, want 2", len(joiners))
	}
	if ep := w.Membership(); ep.Number != 1 || len(ep.Members) != newSize {
		t.Fatalf("membership after growth = %+v, want epoch 1 with %d members", ep, newSize)
	}
	for _, j := range joiners {
		state := j.InitialState()
		if len(state) != paramDim {
			t.Fatalf("joiner %d received %d state elems, want %d", j.ID(), len(state), paramDim)
		}
		for i := range state {
			if state[i] != params[i] {
				t.Fatalf("joiner %d state[%d] = %v, want %v", j.ID(), i, state[i], params[i])
			}
		}
		red, err := j.Reducer(dim)
		if err != nil {
			t.Fatalf("joiner reducer: %v", err)
		}
		loops.Add(1)
		go func() {
			defer loops.Done()
			reduceLoop(t, red, dim, newSize, epochCh, &sawSix)
		}()
	}

	done := make(chan struct{})
	go func() { sawSix.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("not every member reduced over the 6-rank schedule")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	loops.Wait()
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("grow-under-load leaked %d pool leases", n)
	}
}

// TestReplaceCrashedRank kills a rank mid-run via the deterministic injector,
// Replaces it, and asserts the survivors plus the replacement reduce over the
// new epoch with the dead member's handle retired.
func TestReplaceCrashedRank(t *testing.T) {
	const (
		dim  = 64
		size = 3
	)
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(size,
		collective.WithFaults(collective.FaultScenario{Seed: 7}),
		collective.WithPeerDeadline(300*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("world: %v", err)
	}

	epochCh := make(chan struct{})
	w.OnMembershipChange(func(collective.Epoch) { close(epochCh) })
	var sawThree sync.WaitGroup
	sawThree.Add(size) // two survivors + the replacement
	var loops sync.WaitGroup
	crashedErrs := make(chan error, 1)
	for r := 0; r < size; r++ {
		red, err := w.Node(r).Reducer(dim)
		if err != nil {
			t.Fatalf("reducer %d: %v", r, err)
		}
		r := r
		loops.Add(1)
		go func() {
			defer loops.Done()
			if r == 1 {
				// The victim: reduce until the crash error, then stop like a
				// dead process would.
				grad := make(tensor.Vector, dim)
				for {
					res, err := red.Reduce(context.Background(), grad)
					if err != nil {
						select {
						case crashedErrs <- err:
						default:
						}
						return
					}
					tensor.PutVector(res.Sum)
				}
			}
			reduceLoop(t, red, dim, size, epochCh, &sawThree)
		}()
	}

	time.Sleep(20 * time.Millisecond) // let a few rounds run
	w.FaultInjector().Crash(1)

	// Wait until the health view agrees before reconfiguring, as an external
	// scheduler would.
	deadline := time.Now().Add(5 * time.Second)
	for {
		peers := w.Peers()
		if !peers[1].Up {
			if peers[1].ID != 1 || peers[1].Epoch != 0 {
				t.Fatalf("peer status = %+v, want stable ID 1 at epoch 0", peers[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health view never marked the crashed rank down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	repl, err := w.Replace(1, "fresh")
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if repl.ID() != membership.RankID(size) {
		t.Fatalf("replacement ID = %d, want %d (identities are never reused)", repl.ID(), size)
	}
	if ep := w.Membership(); ep.Number != 1 || len(ep.Members) != size {
		t.Fatalf("membership after replace = %+v", ep)
	}
	red, err := repl.Reducer(dim)
	if err != nil {
		t.Fatalf("replacement reducer: %v", err)
	}
	loops.Add(1)
	go func() {
		defer loops.Done()
		reduceLoop(t, red, dim, size, epochCh, &sawThree)
	}()

	done := make(chan struct{})
	go func() { sawThree.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("post-replacement collectives never covered the full new epoch")
	}
	select {
	case err := <-crashedErrs:
		if err == nil {
			t.Fatal("crashed rank's reduce returned nil error")
		}
	default:
		t.Fatal("crashed rank never observed its crash")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	loops.Wait()
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("crash-and-replace leaked %d pool leases", n)
	}
}

// TestLeaveShrinksWorld removes a live member at an epoch boundary: the
// departed handle goes dead and the survivors continue over the smaller
// schedule.
func TestLeaveShrinksWorld(t *testing.T) {
	const dim = 32
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(3)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	leaver := w.Node(2)
	if err := w.Leave(leaver.ID()); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if w.Size() != 2 {
		t.Fatalf("size after leave = %d, want 2", w.Size())
	}
	if _, err := leaver.Reducer(dim); !errors.Is(err, collective.ErrNotMember) {
		t.Fatalf("departed member minted a reducer: %v", err)
	}
	var wg sync.WaitGroup
	results := make([]collective.Result, 2)
	for r := 0; r < 2; r++ {
		red, err := w.Node(r).Reducer(dim)
		if err != nil {
			t.Fatalf("reducer: %v", err)
		}
		wg.Add(1)
		go func(r int, red collective.Reducer) {
			defer wg.Done()
			grad := make(tensor.Vector, dim)
			res, err := red.Reduce(context.Background(), grad)
			if err != nil {
				t.Errorf("post-leave reduce: %v", err)
				return
			}
			tensor.PutVector(res.Sum)
			results[r] = res
		}(r, red)
	}
	wg.Wait()
	for r, res := range results {
		if res.Ranks != 2 {
			t.Fatalf("rank %d post-leave Ranks = %d, want 2", r, res.Ranks)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("leave leaked %d pool leases", n)
	}
}

// TestCloseRacingDrain closes the world while a transition is parked in the
// drain phase behind a wedged reduction: the close must unwedge the step,
// abort the transition with ErrWorldClosed, and leak nothing. Run with
// -tags leasedebug to name any leaked lease's minting site.
func TestCloseRacingDrain(t *testing.T) {
	const dim = 16
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	red, err := w.Node(0).Reducer(dim)
	if err != nil {
		t.Fatalf("reducer: %v", err)
	}
	// Rank 0 reduces alone — with rank 1 never participating the collective
	// wedges on the wire, so the Join's drain cannot complete on its own.
	reduceErr := make(chan error, 1)
	go func() {
		_, err := red.Reduce(context.Background(), make(tensor.Vector, dim))
		reduceErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reduction reach the wire

	joinErr := make(chan error, 1)
	go func() {
		_, err := w.Join("late")
		joinErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the transition enter its drain

	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-joinErr:
		if !errors.Is(err, collective.ErrWorldClosed) {
			t.Fatalf("join racing close returned %v, want ErrWorldClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join did not abort after close")
	}
	select {
	case err := <-reduceErr:
		if err == nil {
			t.Fatal("wedged reduce completed successfully against a closed world")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wedged reduce never unblocked")
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("close-during-drain leaked %d pool leases", n)
	}
}

// TestReducerOnClosedWorld: once a world's Close has begun, Node.Reducer
// fails with ErrWorldClosed and leaves nothing running. Close closes and
// joins only the reducers enrolled when it snapshots them, so a reducer
// minted later — or racing the snapshot — would keep its engine's goroutines
// alive with no owner. The racing mints here either land before the snapshot
// (and Close closes them) or fail.
func TestReducerOnClosedWorld(t *testing.T) {
	for _, mode := range []collective.Mode{collective.Sync, collective.Solo} {
		t.Run(mode.String(), func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			w, err := collective.NewWorld(2, collective.WithMode(mode))
			if err != nil {
				t.Fatalf("world: %v", err)
			}
			racing := make(chan error, 1)
			go func() {
				for i := 0; i < 20; i++ {
					if _, err := w.Node(1).Reducer(4); err != nil {
						racing <- err
						return
					}
				}
				racing <- nil
			}()
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := <-racing; err != nil && !errors.Is(err, collective.ErrWorldClosed) {
				t.Errorf("Reducer racing Close returned %v, want nil or ErrWorldClosed", err)
			}
			if _, err := w.Node(0).Reducer(4); !errors.Is(err, collective.ErrWorldClosed) {
				t.Errorf("Reducer on a closed world returned %v, want ErrWorldClosed", err)
			}
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the world closed, %d before it opened", runtime.NumGoroutine(), goroutines)
				}
			}
		})
	}
}

// TestCloseRacingStateTransfer closes the world from inside the state
// provider, so the shutdown lands during the handoff to the joiner. The
// transition must finish (committed or aborted, both are legal at this race)
// without hanging and without leaking. Run with -tags leasedebug to name any
// leaked lease's minting site.
func TestCloseRacingStateTransfer(t *testing.T) {
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	params := make([]float64, 20000)
	closeDone := make(chan error, 1)
	var once sync.Once
	w.Node(0).SetStateProvider(func() []float64 {
		once.Do(func() {
			go func() { closeDone <- w.Close() }()
		})
		return params
	})

	_, joinErr := w.Join("late")
	if joinErr != nil && !errors.Is(joinErr, collective.ErrWorldClosed) {
		t.Fatalf("join racing close returned %v, want nil or ErrWorldClosed", joinErr)
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close deadlocked against the state handoff")
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("close-during-handoff leaked %d pool leases", n)
	}
}

// TestTCPWorldGrows runs one join on the TCP transport: the new epoch's
// generation listens on a fresh port block and the joiner's dials ride the
// retry/backoff path.
func TestTCPWorldGrows(t *testing.T) {
	const dim = 24
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(2,
		collective.WithTransport(collective.TCP),
		collective.WithBasePort(25540),
	)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	reds := make([]collective.Reducer, 2)
	for r := 0; r < 2; r++ {
		if reds[r], err = w.Node(r).Reducer(dim); err != nil {
			t.Fatalf("reducer: %v", err)
		}
	}
	joiner, err := w.Join("tcp-late")
	if err != nil {
		t.Fatalf("Join over TCP: %v", err)
	}
	jr, err := joiner.Reducer(dim)
	if err != nil {
		t.Fatalf("joiner reducer: %v", err)
	}
	var wg sync.WaitGroup
	for _, red := range append(reds, jr) {
		wg.Add(1)
		go func(red collective.Reducer) {
			defer wg.Done()
			res, err := red.Reduce(context.Background(), make(tensor.Vector, dim))
			if err != nil {
				t.Errorf("post-join tcp reduce: %v", err)
				return
			}
			if res.Ranks != 3 {
				t.Errorf("post-join Ranks = %d, want 3", res.Ranks)
			}
			tensor.PutVector(res.Sum)
		}(red)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("tcp growth leaked %d pool leases", n)
	}
}

// TestReplaceHandsOverOneSurvivorsState pins where a joiner's state comes
// from: the provider of the first live survivor in the outgoing rank order,
// called once. Rank 0 is crashed and replaced, so rank 1 is the source; the
// replacement owns a copy, so rank 1 mutating its live slice afterwards does
// not reach it.
func TestReplaceHandsOverOneSurvivorsState(t *testing.T) {
	const size = 3
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(size, collective.WithFaults(collective.FaultScenario{Seed: 1}))
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	snaps := make([][]float64, size)
	var calls [size]atomic.Int32
	for r := 0; r < size; r++ {
		snaps[r] = []float64{float64(r), float64(r) + 0.5, -float64(r) * 3}
		w.Node(r).SetStateProvider(func() []float64 {
			calls[r].Add(1)
			return snaps[r] // live state, not a copy
		})
	}
	w.FaultInjector().Crash(0)
	awaitDown(t, w, 0)
	repl, err := w.Replace(0, "fresh")
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	want := append([]float64(nil), snaps[1]...)
	got := repl.InitialState()
	if len(got) != len(want) {
		t.Fatalf("InitialState = %v, want rank 1's snapshot %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InitialState[%d] = %v, want rank 1's %v", i, got[i], want[i])
		}
	}
	for i := range snaps[1] {
		snaps[1][i] = 1e9
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mutating rank 1's state changed InitialState[%d] to %v", i, got[i])
		}
	}
	total := 0
	for r := range calls {
		total += int(calls[r].Load())
	}
	if total != 1 || calls[1].Load() != 1 {
		t.Fatalf("provider calls per rank = [%d %d %d], want exactly one, on rank 1",
			calls[0].Load(), calls[1].Load(), calls[2].Load())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("replace leaked %d pool leases", n)
	}
}

// TestHandoverSkipsSurvivorsWithoutProvider: a live survivor with no state
// provider does not serve state, so the next one in rank order does.
func TestHandoverSkipsSurvivorsWithoutProvider(t *testing.T) {
	w, err := collective.NewWorld(3)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	var calls [3]atomic.Int32
	for r := 1; r < 3; r++ {
		w.Node(r).SetStateProvider(func() []float64 {
			calls[r].Add(1)
			return []float64{float64(r)}
		})
	}
	j, err := w.Join("late")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got := j.InitialState(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("InitialState = %v, want rank 1's [1]", got)
	}
	if calls[1].Load() != 1 || calls[2].Load() != 0 {
		t.Fatalf("provider calls = [- %d %d], want exactly one, on rank 1", calls[1].Load(), calls[2].Load())
	}
}

// TestJoinWithoutStateProviders: a world nobody serves state from still
// admits members; they start with no initial state.
func TestJoinWithoutStateProviders(t *testing.T) {
	w, err := collective.NewWorld(2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	j, err := w.Join("late")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got := j.InitialState(); got != nil {
		t.Fatalf("InitialState = %v, want nil", got)
	}
	if got := w.Node(0).InitialState(); got != nil {
		t.Fatalf("founding member's InitialState = %v, want nil", got)
	}
}

// TestTransitionWithEveryMemberDownFails: with the whole outgoing epoch down
// nobody can drain or hand state over, so the change is refused and the
// committed epoch stays in force.
func TestTransitionWithEveryMemberDownFails(t *testing.T) {
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(2, collective.WithFaults(collective.FaultScenario{Seed: 3}))
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	w.FaultInjector().Crash(0)
	w.FaultInjector().Crash(1)
	if _, err := w.Replace(0, "fresh"); err == nil {
		t.Fatal("Replace with every member down succeeded")
	}
	if err := w.Leave(1); err == nil {
		t.Fatal("Leave with every member down succeeded")
	}
	if ep := w.Membership(); ep.Number != 0 || len(ep.Members) != 2 {
		t.Fatalf("membership after refused changes = %+v, want epoch 0 with 2 members", ep)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("refused transitions leaked %d pool leases", n)
	}
}

// TestRejectedChangeKeepsEpochAndIDs: a change membership.Next rejects
// commits nothing and mints no stable ID.
func TestRejectedChangeKeepsEpochAndIDs(t *testing.T) {
	w, err := collective.NewWorld(2)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	if err := w.Leave(9); !errors.Is(err, collective.ErrNotMember) {
		t.Fatalf("Leave(9) = %v, want ErrNotMember", err)
	}
	if _, err := w.Replace(9, "x"); !errors.Is(err, collective.ErrNotMember) {
		t.Fatalf("Replace(9) = %v, want ErrNotMember", err)
	}
	if ep := w.Membership(); ep.Number != 0 || len(ep.Members) != 2 {
		t.Fatalf("membership after rejected changes = %+v, want epoch 0 with 2 members", ep)
	}
	j, err := w.Join("late")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if j.ID() != 2 {
		t.Fatalf("joiner ID = %d, want 2 (rejected changes mint no ID)", j.ID())
	}
}

// TestConcurrentJoinsSerialize: transitions never overlap, so concurrent
// Joins each commit their own epoch, in order, with distinct stable IDs.
func TestConcurrentJoinsSerialize(t *testing.T) {
	const (
		size  = 2
		joins = 4
	)
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(size)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	var mu sync.Mutex
	var epochs []uint64
	w.OnMembershipChange(func(ep collective.Epoch) {
		mu.Lock()
		epochs = append(epochs, ep.Number)
		mu.Unlock()
	})
	ids := make(chan collective.RankID, joins)
	var wg sync.WaitGroup
	for i := 0; i < joins; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := w.Join("late")
			if err != nil {
				t.Errorf("Join: %v", err)
				return
			}
			ids <- j.ID()
		}()
	}
	waitDone(t, &wg, 10*time.Second, "concurrent joins did not finish")
	close(ids)
	seen := make(map[collective.RankID]bool)
	for id := range ids {
		if id < size || id >= size+joins || seen[id] {
			t.Fatalf("joiner ID %d duplicated or outside [%d,%d)", id, size, size+joins)
		}
		seen[id] = true
	}
	if ep := w.Membership(); ep.Number != joins || len(ep.Members) != size+joins {
		t.Fatalf("membership = %+v, want epoch %d with %d members", ep, joins, size+joins)
	}
	mu.Lock()
	if len(epochs) != joins {
		t.Fatalf("committed epochs = %v, want %d notifications", epochs, joins)
	}
	for i, e := range epochs {
		if e != uint64(i+1) {
			t.Fatalf("committed epochs = %v, want 1..%d in order", epochs, joins)
		}
	}
	mu.Unlock()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("concurrent joins leaked %d pool leases", n)
	}
}

// TestJoinFencesTheOldGeneration pins what keeps epochs apart: every
// transition builds a fresh transport generation and retires the old one, so
// a communicator held across a Join can no longer send, and a frame left
// queued on the old generation never reaches the new one.
func TestJoinFencesTheOldGeneration(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []collective.Option
	}{
		{"inproc", nil},
		{"shm", []collective.Option{collective.WithTransport(collective.Shm)}},
		{"tcp", []collective.Option{
			collective.WithTransport(collective.TCP),
			collective.WithBasePort(25560),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := tensor.ReadPoolStats()
			w, err := collective.NewWorld(3, tc.opts...)
			if err != nil {
				t.Fatalf("world: %v", err)
			}
			old := w.Node(1).Communicator()
			// Leave a frame queued on the old generation: sent, never received.
			if err := old.Send(0, 7, tensor.GetVector(4)); err != nil {
				t.Fatalf("send before join: %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for w.Node(0).Communicator().Pending() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("the frame never arrived on the old generation")
				}
				time.Sleep(time.Millisecond)
			}
			if _, err := w.Join("late"); err != nil {
				t.Fatalf("Join: %v", err)
			}
			if err := old.Send(0, 7, tensor.GetVector(4)); err == nil {
				t.Fatal("send on the retired generation succeeded")
			}
			for r, n := range w.Nodes() {
				if n.Communicator() == old {
					t.Fatalf("rank %d still holds the retired communicator", r)
				}
				if p := n.Communicator().Pending(); p != 0 {
					t.Fatalf("rank %d's new communicator has %d pending frames, want 0", r, p)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
				t.Fatalf("join leaked %d pool leases", n)
			}
		})
	}
}

// TestStepMisuseOnLiveReducer calls SubmitBucket and WaitStep without a
// BeginStep on a live reducer: each must fail with its own misuse error, not
// ErrReducerClosed, which trainers read as the member having departed. Once
// the reducer is closed, both report ErrReducerClosed.
func TestStepMisuseOnLiveReducer(t *testing.T) {
	for _, mode := range []collective.Mode{collective.Sync, collective.Solo} {
		t.Run(mode.String(), func(t *testing.T) {
			w, err := collective.NewWorld(1, collective.WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			red, err := w.Node(0).Reducer(4)
			if err != nil {
				t.Fatal(err)
			}
			br := red.(collective.BucketReducer)
			ctx := context.Background()
			check := func(call string, err error, want string) {
				t.Helper()
				if err == nil || errors.Is(err, collective.ErrReducerClosed) || err.Error() != want {
					t.Fatalf("%s without BeginStep on a live reducer: %v, want %q", call, err, want)
				}
			}
			_, err = br.SubmitBucket(ctx, 0, make(tensor.Vector, 4))
			check("SubmitBucket", err, "collective: SubmitBucket without BeginStep")
			_, err = br.WaitStep(ctx)
			check("WaitStep", err, "collective: WaitStep without BeginStep")
			// The reducer still works: the misuse admitted nothing at the gate.
			res, err := red.Reduce(ctx, make(tensor.Vector, 4))
			if err != nil {
				t.Fatalf("reduce after misuse: %v", err)
			}
			tensor.PutVector(res.Sum)

			if err := red.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := br.SubmitBucket(ctx, 0, make(tensor.Vector, 4)); !errors.Is(err, collective.ErrReducerClosed) {
				t.Fatalf("SubmitBucket on a closed reducer: %v, want ErrReducerClosed", err)
			}
			if _, err := br.WaitStep(ctx); !errors.Is(err, collective.ErrReducerClosed) {
				t.Fatalf("WaitStep on a closed reducer: %v, want ErrReducerClosed", err)
			}
		})
	}
}

// TestCloseRacingCommit closes the world at every point of a Join's commit,
// sweeping the delay between the two calls. A Close that lands between the
// transition's last closing check and a reducer's remint reaches only the
// engine the remint replaces; the fresh engine must then be closed by the
// remint itself, or Close waits forever to join it. The drain explorer's
// "remint forgets a close" mutation is this defect.
func TestCloseRacingCommit(t *testing.T) {
	for it := 0; it < 400; it++ {
		w, err := collective.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for k := 0; k < 4; k++ {
				if _, err := w.Node(r).Reducer(8); err != nil {
					t.Fatal(err)
				}
			}
		}
		joined := make(chan error, 1)
		go func() {
			_, err := w.Join("late")
			joined <- err
		}()
		delay := time.Duration(it%80) * time.Microsecond
		time.Sleep(delay)
		closed := make(chan error, 1)
		go func() { closed <- w.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("close: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d (close %v after the join): World.Close hung", it, delay)
		}
		if err := <-joined; err != nil && !errors.Is(err, collective.ErrWorldClosed) {
			t.Fatalf("join racing close returned %v, want nil or ErrWorldClosed", err)
		}
	}
}
