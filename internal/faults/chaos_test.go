// Chaos suite: seeded fault scenarios swept over {mode × transport × seed},
// asserting liveness (every step of every surviving rank terminates),
// participation invariants (active-rank counts stay within the surviving
// set), typed failure surfaces (no hang is ever the answer), and clean
// shutdown with zero leaked pool leases. Assertions never compare against
// wall-clock thresholds; timers only bound how long the whole test may run
// before it is declared hung.
package faults_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/tensor"
)

// chaosWatchdog bounds a whole scenario run: if the scenario has not
// terminated by then, the fault-tolerance machinery failed its liveness
// guarantee (this is a hang detector, not a performance assertion).
const chaosWatchdog = 120 * time.Second

// rankOutcome records one rank's run through a scenario.
type rankOutcome struct {
	steps       int   // completed reductions
	err         error // first error, if the rank stopped early
	lastActive  int   // ActiveRanks of the final completed reduction
	activeStats []int // ActiveRanks per completed step
}

// runChaosTraining drives size ranks through steps partial reductions over a
// faulty world, advancing each rank's crash-at-step counter once per step.
// Every rank goroutine terminates or the watchdog fails the test.
func runChaosTraining(t *testing.T, w *collective.World, dim, steps int) []rankOutcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), chaosWatchdog)
	defer cancel()
	size := w.Size()
	inj := w.FaultInjector()
	out := make([]rankOutcome, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		red, err := w.Node(r).Reducer(dim)
		if err != nil {
			t.Fatalf("rank %d reducer: %v", r, err)
		}
		wg.Add(1)
		go func(r int, red collective.Reducer) {
			defer wg.Done()
			grad := make(tensor.Vector, dim)
			for s := 0; s < steps; s++ {
				for i := range grad {
					grad[i] = float64(r + 1)
				}
				res, err := red.Reduce(ctx, grad)
				if err != nil {
					out[r].err = err
					return
				}
				tensor.PutVector(res.Sum)
				out[r].steps++
				out[r].lastActive = res.ActiveRanks
				out[r].activeStats = append(out[r].activeStats, res.ActiveRanks)
				if inj != nil {
					inj.AdvanceStep(r)
				}
			}
		}(r, red)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("chaos scenario hung: a rank's reduction neither completed nor failed (liveness violated)")
	}
	return out
}

// leaseBalanced runs fn between two pool snapshots and asserts no pool lease
// leaked across it.
func leaseBalanced(t *testing.T, fn func()) {
	t.Helper()
	before := tensor.ReadPoolStats()
	fn()
	after := tensor.ReadPoolStats()
	if n := after.OutstandingSince(before); n != 0 {
		t.Errorf("pool lease accounting off by %d across the scenario (positive = leaked leases)%s", n, tensor.FormatLeaseReport())
	}
}

// chaosPort hands out disjoint TCP base ports so subtests never collide.
var chaosPort = 24000

func nextChaosPort() int {
	p := chaosPort
	chaosPort += 16
	return p
}

// TestChaosRankCrashPartialTraining is the acceptance scenario: a scripted
// crash of one rank at step k, on both transports, with both detection models
// (an immediate crash signal — the TCP-reset analogue — and pure per-peer
// deadlines). Solo and majority training must complete every remaining step
// with the surviving participant set.
func TestChaosRankCrashPartialTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios take seconds")
	}
	const (
		size      = 4
		dim       = 96
		steps     = 6
		crashRank = 2
		crashStep = 2
	)
	modes := map[string]collective.Mode{"solo": collective.Solo, "majority": collective.Majority}
	transports := map[string]collective.Transport{"inproc": collective.Inproc, "tcp": collective.TCP}
	for modeName, mode := range modes {
		for trName, tr := range transports {
			for _, signal := range []bool{true, false} {
				for _, seed := range []int64{1, 2} {
					if (trName == "tcp" || !signal) && seed != 1 {
						continue // keep the slow variants to one seed
					}
					detect := "signal"
					deadline := 5 * time.Second
					if !signal {
						detect = "deadline"
						deadline = 700 * time.Millisecond
					}
					name := fmt.Sprintf("%s/%s/%s/seed%d", modeName, trName, detect, seed)
					t.Run(name, func(t *testing.T) {
						sc := collective.FaultScenario{
							Name:          "crash",
							Seed:          seed,
							CrashAtStep:   map[int]int{crashRank: crashStep},
							SignalCrashes: signal,
						}
						leaseBalanced(t, func() {
							opts := []collective.Option{
								collective.WithTransport(tr),
								collective.WithMode(mode),
								collective.WithSeed(seed),
								collective.WithPeerDeadline(deadline),
								collective.WithFaults(sc),
							}
							if tr == collective.TCP {
								opts = append(opts, collective.WithBasePort(nextChaosPort()))
							}
							w, err := collective.NewWorld(size, opts...)
							if err != nil {
								t.Skipf("world unavailable: %v", err)
							}
							out := runChaosTraining(t, w, dim, steps)

							// Survivors complete every step; the crashed rank
							// completes its scripted steps and then observes
							// its own death as an error, never a hang.
							for r, o := range out {
								if r == crashRank {
									if o.steps < crashStep {
										t.Errorf("crashed rank completed %d steps, scripted to reach %d", o.steps, crashStep)
									}
									if o.steps < steps && o.err == nil {
										t.Errorf("crashed rank stopped at step %d with no error", o.steps)
									}
									continue
								}
								if o.steps != steps {
									t.Errorf("survivor %d completed %d of %d steps (err=%v)", r, o.steps, steps, o.err)
									continue
								}
								// Participation invariant: every round's NAP
								// stays within the world, and rounds after the
								// crash cannot carry the dead rank's flag —
								// the surviving participant set has size 3.
								for s, a := range o.activeStats {
									if a < 0 || a > size {
										t.Errorf("survivor %d step %d: ActiveRanks=%d outside [0,%d]", r, s, a, size)
									}
								}
								if o.lastActive > size-1 {
									t.Errorf("survivor %d final step: ActiveRanks=%d includes the dead rank", r, o.lastActive)
								}
							}
							// The health view reflects the crash.
							if st := w.Peers()[crashRank]; st.Up {
								t.Errorf("World.Peers reports crashed rank %d up", crashRank)
							}
							if err := w.Close(); err != nil {
								t.Errorf("world close: %v", err)
							}
						})
					})
				}
			}
		}
	}
}

// TestChaosScenarioMatrixLiveness sweeps degraded-network scenarios (delay,
// reorder, light loss, a one-way partition) across modes and seeds: every
// rank's training loop must terminate with every step completed — partial
// collectives never require the faulty links to behave — and shutdown must
// leak nothing.
func TestChaosScenarioMatrixLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios take seconds")
	}
	const (
		size  = 4
		dim   = 48
		steps = 5
	)
	scenarios := []collective.FaultScenario{
		{Name: "delay", Default: collective.FaultLinkRule{DelayProb: 0.5, DelayMin: time.Millisecond, DelayMax: 4 * time.Millisecond}},
		{Name: "reorder", Default: collective.FaultLinkRule{Reorder: 0.3, DelayMax: 3 * time.Millisecond}},
		{Name: "lossy", Default: collective.FaultLinkRule{Drop: 0.02}},
		*(&collective.FaultScenario{Name: "oneway-cut"}).CutOneWay(1, 3),
	}
	modes := map[string]collective.Mode{"solo": collective.Solo, "majority": collective.Majority, "quorum2": collective.Quorum(2)}
	for _, base := range scenarios {
		for modeName, mode := range modes {
			for _, seed := range []int64{1, 2} {
				if modeName == "quorum2" && seed != 1 {
					continue
				}
				sc := base
				sc.Seed = seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", sc.Name, modeName, seed), func(t *testing.T) {
					leaseBalanced(t, func() {
						w, err := collective.NewWorld(size,
							collective.WithMode(mode),
							collective.WithSeed(seed),
							collective.WithPeerDeadline(time.Second),
							collective.WithFaults(sc),
						)
						if err != nil {
							t.Fatalf("world: %v", err)
						}
						out := runChaosTraining(t, w, dim, steps)
						for r, o := range out {
							if o.err != nil {
								t.Errorf("rank %d failed under %s: %v", r, sc.Name, o.err)
							}
							if o.steps != steps {
								t.Errorf("rank %d completed %d of %d steps", r, o.steps, steps)
							}
							// NAP can legitimately be 0 on a straggler path (the
							// rank observed a round that was activated before any
							// flag — even its own — reached it), so only the upper
							// bound is a hard invariant.
							for s, a := range o.activeStats {
								if a < 0 || a > size {
									t.Errorf("rank %d step %d: ActiveRanks=%d outside [0,%d]", r, s, a, size)
								}
							}
						}
						if err := w.Close(); err != nil {
							t.Errorf("world close: %v", err)
						}
					})
				})
			}
		}
	}
}

// TestChaosBucketedStepCrash runs the overlapped (bucketed) step protocol
// through a scripted crash: one participation decision per step must keep
// every bucket consistent, surviving ranks complete all steps bucket by
// bucket, and shutdown leaks nothing.
func TestChaosBucketedStepCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios take seconds")
	}
	const (
		size      = 4
		steps     = 5
		crashRank = 1
		crashStep = 2
	)
	lens := []int{40, 24, 8}
	dim := 0
	for _, l := range lens {
		dim += l
	}
	sc := collective.FaultScenario{Name: "bucketed-crash", Seed: 7, CrashAtStep: map[int]int{crashRank: crashStep}, SignalCrashes: true}
	leaseBalanced(t, func() {
		w, err := collective.NewWorld(size,
			collective.WithMode(collective.Solo),
			collective.WithSeed(7),
			collective.WithPeerDeadline(2*time.Second),
			collective.WithFaults(sc),
			collective.WithOverlap(),
			collective.WithBucketLayout(lens...),
		)
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		inj := w.FaultInjector()
		ctx, cancel := context.WithTimeout(context.Background(), chaosWatchdog)
		defer cancel()
		outSteps := make([]int, size)
		outErr := make([]error, size)
		var wg sync.WaitGroup
		for r := 0; r < size; r++ {
			red, err := w.Node(r).Reducer(dim)
			if err != nil {
				t.Fatalf("rank %d reducer: %v", r, err)
			}
			br := red.(collective.BucketReducer)
			wg.Add(1)
			go func(r int, br collective.BucketReducer) {
				defer wg.Done()
				grad := make(tensor.Vector, dim)
				for i := range grad {
					grad[i] = 1
				}
				for s := 0; s < steps; s++ {
					if err := br.BeginStep(ctx, lens); err != nil {
						outErr[r] = err
						return
					}
					var handles []*collective.BucketHandle
					off := 0
					for _, l := range lens {
						h, err := br.SubmitBucket(ctx, off, grad[off:off+l])
						if err != nil {
							outErr[r] = err
							return
						}
						handles = append(handles, h)
						off += l
					}
					for i, h := range handles {
						sum, err := h.Wait(ctx)
						if err != nil {
							outErr[r] = err
							return
						}
						if len(sum) != lens[i] {
							outErr[r] = fmt.Errorf("bucket %d: sum has %d elements, want %d", i, len(sum), lens[i])
							tensor.PutVector(sum)
							return
						}
						tensor.PutVector(sum)
					}
					res, err := br.WaitStep(ctx)
					if err != nil {
						outErr[r] = err
						return
					}
					if res.ActiveRanks < 0 || res.ActiveRanks > size {
						outErr[r] = fmt.Errorf("step %d: ActiveRanks=%d outside [0,%d]", s, res.ActiveRanks, size)
						return
					}
					outSteps[r]++
					if inj != nil {
						inj.AdvanceStep(r)
					}
				}
			}(r, br)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			t.Fatal("bucketed chaos scenario hung (liveness violated)")
		}
		for r := 0; r < size; r++ {
			if r == crashRank {
				if outSteps[r] < crashStep {
					t.Errorf("crashed rank completed %d steps, scripted to reach %d", outSteps[r], crashStep)
				}
				continue
			}
			if outErr[r] != nil {
				t.Errorf("survivor %d: %v", r, outErr[r])
			}
			if outSteps[r] != steps {
				t.Errorf("survivor %d completed %d of %d steps", r, outSteps[r], steps)
			}
		}
		if err := w.Close(); err != nil {
			t.Errorf("world close: %v", err)
		}
	})
}

// TestChaosSyncModeCrashSurfacesRankUnreachable pins the synchronous failure
// surface: sync reduction cannot proceed without every rank, so after a crash
// the survivors must all get errors — at least one wrapping
// ErrRankUnreachable — instead of blocking forever.
func TestChaosSyncModeCrashSurfacesRankUnreachable(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios take seconds")
	}
	const (
		size      = 4
		dim       = 32
		crashRank = 3
	)
	sc := collective.FaultScenario{Name: "sync-crash", Seed: 11, CrashAtStep: map[int]int{crashRank: 1}}
	leaseBalanced(t, func() {
		w, err := collective.NewWorld(size,
			collective.WithMode(collective.Sync),
			collective.WithPeerDeadline(500*time.Millisecond),
			collective.WithFaults(sc),
		)
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		out := runChaosTraining(t, w, dim, 4)
		unreachable := false
		for r, o := range out {
			if r == crashRank {
				continue
			}
			if o.steps >= 4 {
				t.Errorf("survivor %d completed all steps of a sync reduction missing a rank", r)
			}
			if o.err == nil {
				t.Errorf("survivor %d stopped with no error", r)
			} else if errors.Is(o.err, collective.ErrRankUnreachable) {
				unreachable = true
			}
		}
		if !unreachable {
			t.Error("no survivor surfaced ErrRankUnreachable")
		}
		if err := w.Close(); err != nil {
			t.Errorf("world close: %v", err)
		}
	})
}

// TestChaosShmCrashWithLoss runs the acceptance crash scenario over the
// shared-ring transport, with a lossy network layered on top: the injector
// wraps shm endpoints exactly as it wraps channel or socket endpoints, so a
// scripted crash at step k plus seeded message loss must leave solo training
// live on the survivors and the pool balanced — in-place ring encoding does
// not change who owns a dropped message's lease.
func TestChaosShmCrashWithLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios take seconds")
	}
	const (
		size      = 4
		dim       = 96
		steps     = 6
		crashRank = 2
		crashStep = 2
	)
	sc := collective.FaultScenario{
		Name:          "shm-crash-lossy",
		Seed:          7,
		Default:       collective.FaultLinkRule{Drop: 0.05},
		CrashAtStep:   map[int]int{crashRank: crashStep},
		SignalCrashes: true,
	}
	leaseBalanced(t, func() {
		w, err := collective.NewWorld(size,
			collective.WithTransport(collective.Shm),
			collective.WithMode(collective.Solo),
			collective.WithSeed(7),
			collective.WithPeerDeadline(5*time.Second),
			collective.WithFaults(sc),
		)
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		out := runChaosTraining(t, w, dim, steps)
		for r, o := range out {
			if r == crashRank {
				if o.steps < crashStep {
					t.Errorf("crashed rank completed %d steps, scripted to reach %d", o.steps, crashStep)
				}
				if o.steps < steps && o.err == nil {
					t.Errorf("crashed rank stopped at step %d with no error", o.steps)
				}
				continue
			}
			if o.steps != steps {
				t.Errorf("survivor %d completed %d of %d steps (err=%v)", r, o.steps, steps, o.err)
				continue
			}
			for s, a := range o.activeStats {
				if a < 0 || a > size {
					t.Errorf("survivor %d step %d: ActiveRanks=%d outside [0,%d]", r, s, a, size)
				}
			}
			if o.lastActive > size-1 {
				t.Errorf("survivor %d final step: ActiveRanks=%d includes the dead rank", r, o.lastActive)
			}
		}
		if st := w.Peers()[crashRank]; st.Up {
			t.Errorf("World.Peers reports crashed rank %d up", crashRank)
		}
		if err := w.Close(); err != nil {
			t.Errorf("world close: %v", err)
		}
	})
}
