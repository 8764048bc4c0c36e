package core_test

import (
	"sync"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/tensor"
)

// elasticTasks captures the task each Build call constructs, keyed by the
// member's stable RankID, so tests can inspect final parameters after a run.
type elasticTasks struct {
	mu    sync.Mutex
	tasks map[collective.RankID]*core.RegressionTask
}

func newElasticTasks() *elasticTasks {
	return &elasticTasks{tasks: make(map[collective.RankID]*core.RegressionTask)}
}

func (e *elasticTasks) put(id collective.RankID, task *core.RegressionTask) {
	e.mu.Lock()
	e.tasks[id] = task
	e.mu.Unlock()
}

func (e *elasticTasks) params(t *testing.T, id collective.RankID) []float64 {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	task, ok := e.tasks[id]
	if !ok {
		t.Fatalf("no task captured for member %d", id)
	}
	out := make([]float64, task.NumParams())
	copy(out, task.Params())
	return out
}

// syncTrainer builds a synchronous-SGD trainer over the node's epoch-stable
// reducer. shard picks the data partition (out of shards) independently of
// the node's dense rank, so a replacement can adopt its dense slot's shard.
func syncTrainer(shard, shards int, n *collective.Node) (*core.Trainer, *core.RegressionTask, error) {
	task := buildRegressionTask(shard, shards, 5, 4)
	ex, err := n.Reducer(task.NumParams(), collective.WithMode(collective.Sync))
	if err != nil {
		return nil, nil, err
	}
	tr, err := core.NewTrainer(core.Config{
		Node:      n,
		Task:      task,
		Exchanger: ex,
		Optimizer: optimizer.NewSGD(0.05),
	})
	return tr, task, err
}

// TestChurnReplaceBitIdentical is the headline elastic acceptance test: a
// scripted crash kills rank 1 after crashAt steps, a ChurnReplace event
// admits a fresh member in its place, and the run's final parameters are
// bit-identical to an uninterrupted run of the surviving configuration
// (shards {0, 2, 2}) started from the handoff parameters at the handoff step.
// Synchronous SGD makes every value deterministic in the step sequence, so
// equality is exact, not approximate.
func TestChurnReplaceBitIdentical(t *testing.T) {
	const (
		size    = 3
		crashAt = 5 // victim completes crashAt steps, then its crash wedges step crashAt
		steps   = 9 // post-transition per-rank step count (4) stays below crashAt
	)

	// Phase A: the handoff parameters — a clean run of the founding
	// configuration stopped at the crash boundary. Synchronous SGD keeps all
	// replicas identical, so rank 0's parameters are the handoff state.
	handoffTasks := newElasticTasks()
	if _, err := core.Run(core.RunConfig{
		Name:  "handoff",
		Size:  size,
		Steps: crashAt,
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			tr, task, err := syncTrainer(rank, size, n)
			if err == nil {
				handoffTasks.put(n.ID(), task)
			}
			return tr, err
		},
	}); err != nil {
		t.Fatalf("handoff run: %v", err)
	}
	handoff := handoffTasks.params(t, 0)

	// Phase B: the reference — the surviving configuration (shards 0, 2 and
	// the replacement's duplicate of shard 2) trained uninterrupted from the
	// handoff parameters, steps crashAt..steps-1.
	refShards := []int{0, 2, 2}
	refTasks := newElasticTasks()
	if _, err := core.Run(core.RunConfig{
		Name:  "reference",
		Size:  size,
		Steps: steps,
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			task := buildRegressionTask(refShards[rank], size, 5, 4)
			ex, err := n.Reducer(task.NumParams(), collective.WithMode(collective.Sync))
			if err != nil {
				return nil, err
			}
			tr, err := core.NewTrainer(core.Config{
				Node:      n,
				Task:      task,
				Exchanger: ex,
				Optimizer: optimizer.NewSGD(0.05),
				StartStep: crashAt,
			})
			if err != nil {
				return nil, err
			}
			if err := tr.SetParams(handoff); err != nil {
				return nil, err
			}
			refTasks.put(n.ID(), task)
			return tr, nil
		},
	}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	reference := refTasks.params(t, 0)

	// Phase C: the elastic run — crash by script, repair by churn. The
	// replacement is built at dense rank 2 (shard 2), adopts the handed-over
	// parameters, and trains from the handoff step.
	before := tensor.ReadPoolStats()
	elTasks := newElasticTasks()
	res, err := core.Run(core.RunConfig{
		Name:  "elastic",
		Size:  size,
		Steps: steps,
		WorldOptions: []collective.Option{
			// Deadline detection (SignalCrashes false) keeps the crash cut at
			// an exact step boundary: the victim's final-step frames are
			// already delivered, so every survivor completes step crashAt-1
			// and fails uniformly at step crashAt. An immediate crash signal
			// would tear the boundary — a survivor mid-step fails fast while
			// another, further along, completes the step.
			collective.WithFaults(collective.FaultScenario{
				Name:        "crash-then-replace",
				Seed:        11,
				CrashAtStep: map[int]int{1: crashAt},
			}),
			collective.WithPeerDeadline(300 * time.Millisecond),
		},
		Churn: []core.ChurnEvent{
			{AfterStep: crashAt, Kind: core.ChurnReplace, Victim: 1, Addr: "replacement"},
		},
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			tr, task, err := syncTrainer(rank, size, n)
			if err == nil {
				elTasks.put(n.ID(), task)
			}
			return tr, err
		},
	})
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if len(res.PerRank) != size+1 {
		t.Fatalf("PerRank = %d recorders, want %d (founders + replacement)", len(res.PerRank), size+1)
	}

	// The replacement carries stable ID 3 (IDs are never reused) and must
	// have trained exactly the post-handoff steps.
	if got := res.PerRank[size].Steps(); got != steps-crashAt {
		t.Fatalf("replacement trained %d steps, want %d", got, steps-crashAt)
	}
	for id, want := range map[collective.RankID][]float64{0: reference, 2: reference, 3: reference} {
		got := elTasks.params(t, id)
		if len(got) != len(want) {
			t.Fatalf("member %d: %d params, want %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("member %d param %d = %v, reference %v — elastic run diverged from the uninterrupted surviving-configuration run", id, i, got[i], want[i])
			}
		}
	}
	if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
		t.Fatalf("%d pool leases leaked across the crash-and-replace run", leaked)
	}
}

// TestChurnJoinGrowsUnderLoad scripts two ChurnJoin events that grow a
// 4-rank run to 6 while it trains. Joiners adopt the handed-over parameters
// and handoff step, post-transition reductions span the grown schedule, and
// the run leaks no pool leases.
func TestChurnJoinGrowsUnderLoad(t *testing.T) {
	const (
		size   = 4
		grown  = 6
		steps  = 10
		shards = 6 // fixed data-partition universe so joiners get fresh shards
	)
	before := tensor.ReadPoolStats()
	elTasks := newElasticTasks()
	res, err := core.Run(core.RunConfig{
		Name:  "grow",
		Size:  size,
		Steps: steps,
		Churn: []core.ChurnEvent{
			{AfterStep: 3, Kind: core.ChurnJoin, Addr: "joiner-a"},
			{AfterStep: 5, Kind: core.ChurnJoin, Addr: "joiner-b"},
		},
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			// Paced steps (~5ms of modelled compute) keep the run in flight
			// long enough for the churn controller to land the joins
			// mid-training; the instant regression steps would finish all of
			// them before the controller's first transition commits.
			task := buildRegressionTask(rank, shards, 5, 4)
			ex, err := n.Reducer(task.NumParams(), collective.WithMode(collective.Sync))
			if err != nil {
				return nil, err
			}
			tr, err := core.NewTrainer(core.Config{
				Node:            n,
				Task:            task,
				Exchanger:       ex,
				Optimizer:       optimizer.NewSGD(0.05),
				BaseStepPaperMs: 100,
				Clock:           imbalance.ScaledClock(0.05),
			})
			if err != nil {
				return nil, err
			}
			elTasks.put(n.ID(), task)
			return tr, nil
		},
	})
	if err != nil {
		t.Fatalf("grow run: %v", err)
	}
	if len(res.PerRank) != grown {
		t.Fatalf("PerRank = %d recorders, want %d", len(res.PerRank), grown)
	}
	for i := size; i < grown; i++ {
		if got := res.PerRank[i].Steps(); got <= 0 || got >= steps {
			t.Fatalf("joiner %d trained %d steps, want between 1 and %d", i, got, steps-1)
		}
	}
	// Synchronous SGD over a shared schedule keeps every replica identical:
	// all six members (founders 0..3, joiners 4 and 5) must agree bitwise.
	want := elTasks.params(t, 0)
	for id := collective.RankID(1); id < grown; id++ {
		got := elTasks.params(t, id)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("member %d param %d = %v, member 0 has %v — replicas diverged after growth", id, i, got[i], want[i])
			}
		}
	}
	if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
		t.Fatalf("%d pool leases leaked across the join-under-load run", leaked)
	}
}
