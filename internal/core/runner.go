package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/tensor"
	"eagersgd/internal/trace"
)

// ChurnKind selects the membership verb a ChurnEvent executes.
type ChurnKind int

const (
	// ChurnJoin admits a fresh rank (collective.World.Join).
	ChurnJoin ChurnKind = iota
	// ChurnLeave removes the member with stable ID Victim (World.Leave).
	ChurnLeave
	// ChurnReplace excises the (typically crashed) member Victim and admits a
	// replacement in the same epoch transition (World.Replace). The controller
	// waits for the world's health view to confirm the victim down first, so
	// the event composes with a scripted crash (collective.WithFaults).
	ChurnReplace
)

// ChurnEvent scripts one membership change executed while the run trains.
// Events fire in order, each once rank 0 has completed AfterStep steps.
// Joiners admitted by ChurnJoin and ChurnReplace are built with the run's
// Build function at their dense rank, adopt the handed-over parameters,
// and train the remaining steps starting from the survivors' handoff step, so
// their collective sequence stays matched with the survivors'.
type ChurnEvent struct {
	// AfterStep fires the event once rank 0 has completed that many steps.
	AfterStep int
	// Kind is the membership verb.
	Kind ChurnKind
	// Victim is the stable RankID to remove (ChurnLeave and ChurnReplace).
	Victim collective.RankID
	// Addr is the joiner's announced address (ChurnJoin and ChurnReplace);
	// opaque on in-process transports.
	Addr string
}

// churnWaitTimeout bounds how long a rank whose step failed on a dying epoch
// waits for the membership transition that repairs it, and how long the churn
// controller waits for the health view to confirm a victim down.
const churnWaitTimeout = 30 * time.Second

// runEvents is one run's churn clock and the wakeups its waiters — the churn
// controller and ranks parked on a dying epoch — block on. Anything that may
// change a waiter's predicate calls notify: rank 0 completing a step, any
// rank's step failing, and a committed epoch transition. The end of the run
// closes done. Waiters re-check their own predicate on every wakeup.
type runEvents struct {
	progress atomic.Int64  // rank 0's completed steps
	done     chan struct{} // closed once every founding rank's loop returned

	mu   sync.Mutex
	wake chan struct{} // nil until a waiter asks; closed and dropped by notify
}

// notify wakes every current waiter. Without waiters it allocates nothing,
// so rank 0 may call it on every step.
func (e *runEvents) notify() {
	e.mu.Lock()
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
	e.mu.Unlock()
}

// await blocks until ready reports true, re-checking it after every notify.
// It reports false when the run ends with ready still false, or when a
// positive timeout passes first.
func (e *runEvents) await(ready func() bool, timeout time.Duration) bool {
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		// Take the wake channel before checking, so a notify that lands
		// between the check and the select is not lost.
		e.mu.Lock()
		if e.wake == nil {
			e.wake = make(chan struct{})
		}
		wake := e.wake
		e.mu.Unlock()
		if ready() {
			return true
		}
		select {
		case <-wake:
		case <-e.done:
			return ready()
		case <-expired:
			return false
		}
	}
}

// RunConfig describes one end-to-end distributed training run executed with
// every rank as a goroutine over a collective.World (in-process by default).
type RunConfig struct {
	// Name labels the run in curves and tables (e.g. "eager-SGD-300 (solo)").
	Name string
	// Size is the number of ranks.
	Size int
	// WorldOptions configure the collective.World the run executes on
	// (transport, base port, faults, peer deadline). Empty means in-process.
	// They are also the defaults of every reducer Build mints through
	// Node.Reducer, so a WithPeerDeadline here is the failure detector of
	// each rank's gradient exchange and model sync; Build's own reducer
	// options apply over them.
	WorldOptions []collective.Option
	// Steps is the number of optimizer steps every rank executes.
	Steps int
	// EvalEverySteps scores rank 0's parameters on the held-out set every
	// that many steps (0 = only a final evaluation). At each point rank 0
	// hands a pooled copy of its parameters to the run's evaluator goroutine
	// and steps on: the evaluator scores the copy on its own replica of rank
	// 0's task (Task.Replica), so no rank pauses and the other ranks never
	// evaluate.
	EvalEverySteps int
	// FinalSync averages replicas across ranks before the final evaluation
	// (recommended for eager-SGD, harmless for synch-SGD) with
	// Trainer.SyncModel, whose failure fails the run. The final evaluation
	// scores rank 0's parameters after the sync, and Run returns once it is
	// done.
	FinalSync bool
	// Build constructs the rank's trainer over the given membership handle
	// (reducers minted via n.Reducer stay valid across epochs). It runs once
	// per founding rank before training starts, and once per joiner a
	// ChurnEvent admits mid-run, with the joiner's dense rank at admission.
	Build func(rank int, n *collective.Node) (*Trainer, error)
	// Churn scripts membership changes executed while the run trains — the
	// elastic path. With churn configured, a rank whose step fails on a dying
	// epoch (its peer crashed before the scripted Replace) waits for the
	// transition to commit and retries the step instead of failing the run.
	Churn []ChurnEvent
}

// RunResult aggregates the measurements of one run.
type RunResult struct {
	Name string
	// PerRank holds each rank's step recorder: the founding ranks in rank
	// order, then any joiners admitted by churn in admission order.
	PerRank []*trace.ThroughputRecorder
	// TrainLoss is rank 0's minibatch loss averaged between evaluations,
	// plotted against cumulative training time (seconds).
	TrainLoss *trace.Curve
	// EvalLoss, EvalTop1, and EvalTop5 are the held-out metrics of rank 0's
	// parameters at each evaluation point, against rank 0's cumulative step
	// time at that point (seconds).
	EvalLoss *trace.Curve
	EvalTop1 *trace.Curve
	EvalTop5 *trace.Curve
	// Final is the last evaluation of rank 0's parameters.
	Final Metrics
	// TrainingTime is rank 0's cumulative step time. Evaluations run off
	// the training path, so none of it is spent evaluating.
	TrainingTime time.Duration
	// Throughput is rank 0's average steps per second of training time.
	Throughput float64
	// MeanActiveProcesses is the mean NAP over rank 0's steps.
	MeanActiveProcesses float64
}

// rankRun is one training-loop goroutine's wiring and outcome.
type rankRun struct {
	node *collective.Node
	tr   *Trainer
	err  error
}

// Run executes the configured training on a collective.World (in-process
// unless WorldOptions say otherwise) and collects the curves the paper's
// figures plot. Every rank's transport resources are released through
// World.Close when the run finishes.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Size <= 0 || cfg.Steps <= 0 || cfg.Build == nil {
		return nil, fmt.Errorf("core: run config requires positive Size and Steps and a Build function")
	}
	world, err := collective.NewWorld(cfg.Size, cfg.WorldOptions...)
	if err != nil {
		return nil, fmt.Errorf("core: build world: %w", err)
	}
	defer world.Close()

	runs := make([]*rankRun, cfg.Size)
	for r := 0; r < cfg.Size; r++ {
		node := world.Node(r)
		tr, err := cfg.Build(r, node)
		if err != nil {
			return nil, fmt.Errorf("core: build trainer for rank %d: %w", r, err)
		}
		runs[r] = &rankRun{node: node, tr: tr}
		if len(cfg.Churn) > 0 {
			registerStateProvider(node, tr)
		}
	}

	result := &RunResult{
		Name:      cfg.Name,
		PerRank:   nil,
		TrainLoss: &trace.Curve{Name: cfg.Name + " train-loss"},
		EvalLoss:  &trace.Curve{Name: cfg.Name + " eval-loss"},
		EvalTop1:  &trace.Curve{Name: cfg.Name + " top1"},
		EvalTop5:  &trace.Curve{Name: cfg.Name + " top5"},
	}

	inj := world.FaultInjector()
	events := &runEvents{done: make(chan struct{})}
	world.OnMembershipChange(func(collective.Epoch) { events.notify() })
	// Rank 0 takes at most one snapshot per evaluation point, so the
	// evaluator's queue never blocks it.
	points := 1
	if cfg.EvalEverySteps > 0 {
		points += (cfg.Steps - 1) / cfg.EvalEverySteps
	}
	snapshots := make(chan evalPoint, points)
	evalDone := make(chan struct{})
	replica := runs[0].tr.cfg.Task.Replica()
	go func() {
		defer close(evalDone)
		evaluate(replica, snapshots, result)
	}()
	var loopWG sync.WaitGroup
	for r := 0; r < cfg.Size; r++ {
		rr := runs[r]
		var evals chan<- evalPoint
		if r == 0 {
			evals = snapshots
		}
		loopWG.Add(1)
		go func() {
			defer loopWG.Done()
			rr.err = runRank(cfg, rr.tr, evals, world, rr.node, events)
		}()
	}

	go func() {
		loopWG.Wait()
		close(events.done)
	}()

	// The churn controller executes the scripted membership changes against
	// rank 0's step clock and spawns joiner training loops; without churn it
	// returns at once.
	var joinersWG sync.WaitGroup
	joinerRuns, churnErr := runChurn(cfg, world, events, &joinersWG)
	<-events.done
	joinersWG.Wait()
	<-evalDone

	all := append(append([]*rankRun(nil), runs...), joinerRuns...)
	if churnErr != nil {
		// A failed membership change is the root cause: the rank loops'
		// errors (steps wedged on the epoch the change was meant to repair)
		// are downstream of it.
		return nil, fmt.Errorf("core: churn: %w", churnErr)
	}
	view := world.Membership()
	member := make(map[collective.RankID]bool, len(view.Members))
	for _, m := range view.Members {
		member[m.ID] = true
	}
	for i, rr := range all {
		if rr.err == nil {
			continue
		}
		if inj != nil && i < cfg.Size && inj.Crashed(i) {
			// The rank died by script (collective.WithFaults): its error is
			// the crash taking effect, not a failure of the run. The
			// survivors' results stand.
			continue
		}
		if len(cfg.Churn) > 0 && !member[rr.node.ID()] {
			// The rank was removed by a scripted Leave or Replace: its loop
			// ending in an error is the excision taking effect.
			continue
		}
		return nil, fmt.Errorf("core: rank %d: %w", i, rr.err)
	}

	for _, rr := range all {
		result.PerRank = append(result.PerRank, rr.tr.Recorder())
	}
	rec := result.PerRank[0]
	result.TrainingTime = rec.TotalTime()
	result.Throughput = rec.StepsPerSecond()
	result.MeanActiveProcesses = rec.MeanActiveProcesses()
	return result, nil
}

// registerStateProvider wires the trainer's model parameters (plus its step
// counter, appended as one trailing element) as the node's state source
// for joiners. The provider runs at the quiesced epoch boundary — the trainer
// brackets each whole step as one drain-barrier operation — so the snapshot
// is never mid-update and the handoff step is exact.
func registerStateProvider(node *collective.Node, tr *Trainer) {
	node.SetStateProvider(func() []float64 {
		params := tr.cfg.Task.Params()
		out := make([]float64, len(params)+1)
		copy(out, params)
		out[len(params)] = float64(tr.Steps())
		return out
	})
}

// runChurn executes the scripted membership changes in order, each gated on
// rank 0's completed-step clock, and spawns a training loop for every joiner.
// It stops early when the run finishes.
func runChurn(cfg RunConfig, world *collective.World, events *runEvents, joinersWG *sync.WaitGroup) ([]*rankRun, error) {
	var joiners []*rankRun
	for _, ev := range cfg.Churn {
		target := int64(ev.AfterStep)
		if !events.await(func() bool { return events.progress.Load() >= target }, 0) {
			return joiners, nil
		}
		switch ev.Kind {
		case ChurnLeave:
			if err := world.Leave(ev.Victim); err != nil {
				return joiners, fmt.Errorf("leave %d after step %d: %w", ev.Victim, ev.AfterStep, err)
			}
		case ChurnJoin, ChurnReplace:
			var node *collective.Node
			var err error
			if ev.Kind == ChurnReplace {
				if !events.await(func() bool { return peerDown(world, ev.Victim) }, churnWaitTimeout) {
					return joiners, fmt.Errorf("replace %d after step %d: victim never confirmed down", ev.Victim, ev.AfterStep)
				}
				node, err = world.Replace(ev.Victim, ev.Addr)
			} else {
				node, err = world.Join(ev.Addr)
			}
			if err != nil {
				return joiners, fmt.Errorf("admit %q after step %d: %w", ev.Addr, ev.AfterStep, err)
			}
			rr, err := spawnJoiner(cfg, world, node, ev, events, joinersWG)
			if err != nil {
				return joiners, err
			}
			joiners = append(joiners, rr)
		default:
			return joiners, fmt.Errorf("unknown churn kind %d", ev.Kind)
		}
	}
	return joiners, nil
}

// spawnJoiner builds a trainer for a freshly admitted member — adopting the
// handed-over parameters and handoff step — and starts its training
// loop for the remaining steps.
func spawnJoiner(cfg RunConfig, world *collective.World, node *collective.Node, ev ChurnEvent, events *runEvents, joinersWG *sync.WaitGroup) (*rankRun, error) {
	startStep := ev.AfterStep
	init := node.InitialState()
	if len(init) > 0 {
		// The last element is the handoff step the survivors' providers
		// appended (registerStateProvider); the rest is the model state.
		startStep = int(init[len(init)-1])
		init = init[:len(init)-1]
	}
	tr, err := cfg.Build(node.Rank(), node)
	if err != nil {
		return nil, fmt.Errorf("build joiner %q: %w", ev.Addr, err)
	}
	if len(init) > 0 {
		if err := tr.SetParams(init); err != nil {
			return nil, fmt.Errorf("joiner %q adopt state: %w", ev.Addr, err)
		}
	}
	tr.step = startStep
	registerStateProvider(node, tr)
	rr := &rankRun{node: node, tr: tr}
	joinersWG.Add(1)
	go func() {
		defer joinersWG.Done()
		rr.err = runRank(cfg, tr, nil, world, node, events)
	}()
	return rr, nil
}

// peerDown reports whether the world's health view has the victim down —
// the verdict that includes the fault injector's scripted crash — so a
// Replace composes deterministically with the crash it repairs.
func peerDown(world *collective.World, victim collective.RankID) bool {
	for _, p := range world.Peers() {
		if p.ID == victim && !p.Up {
			return true
		}
	}
	return false
}

// awaitNextEpoch parks a rank whose step failed on a dying epoch until the
// membership transition that repairs the world commits, then lets the caller
// retry the step. epochBefore is the epoch read before the step attempt: the
// transition's drain completes exactly when the wedged step fails, so the
// commit races the failure return — when the epoch already moved past
// epochBefore the wait is over before it starts. It returns the original
// error when no transition arrives in time or before the run ends, the rank
// itself is the scripted crash victim, or the rank was removed from the
// membership (Leave/Replace took effect, or the world closed).
func awaitNextEpoch(world *collective.World, node *collective.Node, events *runEvents, stepErr error, epochBefore uint64) error {
	if errors.Is(stepErr, collective.ErrReducerClosed) {
		return stepErr // the member departed or the world is closing
	}
	// A survivor's error also wraps the crash sentinel (the peer-down cause),
	// so "am I the victim" must ask the injector about THIS rank, not match
	// the error chain. A victim that races the commit (its dense slot reads
	// clean on the fresh injector) still exits below via the membership test.
	if inj := world.FaultInjector(); inj != nil && inj.Crashed(node.Rank()) {
		return stepErr // this rank IS the scripted victim; its loop ends here
	}
	events.await(func() bool {
		return node.Epoch() != epochBefore || !stillMember(world, node)
	}, churnWaitTimeout)
	if node.Epoch() == epochBefore {
		return stepErr // removed, timed out, or the run ended first
	}
	return nil
}

// stillMember reports whether the node belongs to the world's current epoch.
func stillMember(world *collective.World, node *collective.Node) bool {
	for _, m := range world.Membership().Members {
		if m.ID == node.ID() {
			return true
		}
	}
	return false
}

// evalPoint is one evaluation point: rank 0's parameters at the snapshot, a
// pool lease the evaluator returns, and rank 0's training curve there.
type evalPoint struct {
	params  tensor.Vector
	x       float64 // rank 0's cumulative step time, seconds
	lossSum float64 // minibatch losses since the previous point
	losses  int
}

// evaluate scores each snapshot on the replica, in order, and appends the
// curve points. It returns once the channel is closed and drained; every
// lease goes back to the pool.
func evaluate(replica Evaluator, points <-chan evalPoint, result *RunResult) {
	for p := range points {
		copy(replica.Params(), p.params)
		tensor.PutVector(p.params)
		m := replica.Evaluate()
		if p.losses > 0 {
			result.TrainLoss.Add(p.x, p.lossSum/float64(p.losses))
		}
		result.EvalLoss.Add(p.x, m.Loss)
		result.EvalTop1.Add(p.x, m.Top1)
		result.EvalTop5.Add(p.x, m.Top5)
		result.Final = m
	}
}

// runRank executes the training loop for one rank. Only founding rank 0 is
// handed the evaluator's channel (evals non-nil): it advances the churn clock
// and snapshots its parameters at every evaluation point, closing the channel
// when its loop ends. Under an injected fault scenario the rank advances its
// crash-at-step counter once per optimizer step, so scripted crashes fire
// deterministically in the rank's own step sequence; the injector handle is
// re-fetched per step because each epoch runs its own.
func runRank(cfg RunConfig, tr *Trainer, evals chan<- evalPoint, world *collective.World, node *collective.Node, events *runEvents) error {
	defer tr.Close()
	record := evals != nil
	if record {
		defer close(evals)
	}
	//eagervet:ignore ctxcheck -- Run takes no context, so each rank loop roots the one its steps run under.
	ctx := context.Background()
	lossAccum := 0.0
	lossCount := 0
	snapshot := func() {
		evals <- evalPoint{
			params:  tensor.GetVectorCopy(tr.cfg.Task.Params()),
			x:       tr.Recorder().TotalTime().Seconds(),
			lossSum: lossAccum,
			losses:  lossCount,
		}
		lossAccum, lossCount = 0, 0
	}
	for tr.Steps() < cfg.Steps {
		epochBefore := node.Epoch()
		rec, err := tr.StepContext(ctx)
		if err != nil {
			if len(cfg.Churn) == 0 {
				return err
			}
			events.notify()
			// Elastic run: the step failed on a dying epoch. Wait for the
			// scripted transition to commit, then retry the step — the
			// trainer's counter only advances on success, so the retry
			// recomputes the same step over the repaired world.
			if waitErr := awaitNextEpoch(world, node, events, err, epochBefore); waitErr != nil {
				return waitErr
			}
			continue
		}
		step := rec.Step
		if inj := world.FaultInjector(); inj != nil {
			inj.AdvanceStep(node.Rank())
		}
		if record {
			events.progress.Store(int64(tr.Steps()))
			events.notify()
		}
		lossAccum += rec.Loss
		lossCount++
		if record && cfg.EvalEverySteps > 0 && (step+1)%cfg.EvalEverySteps == 0 && step+1 < cfg.Steps {
			snapshot()
		}
	}
	if cfg.FinalSync {
		if err := tr.SyncModel(); err != nil {
			return err
		}
	}
	if record {
		snapshot()
	}
	return nil
}
