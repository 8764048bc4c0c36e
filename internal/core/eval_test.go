package core_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/data"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/tensor"
)

// countingTask counts the Evaluate calls on a task and on its replicas, and
// on rank 0 keeps a copy of the parameters each step starts from.
type countingTask struct {
	*core.RegressionTask
	evals, replicaEvals *atomic.Int64
	stepParams          *[][]float64 // nil except on rank 0
}

func (c countingTask) Evaluate() core.Metrics {
	c.evals.Add(1)
	return c.RegressionTask.Evaluate()
}

func (c countingTask) Replica() core.Evaluator {
	return countingEvaluator{Evaluator: c.RegressionTask.Replica(), evals: c.replicaEvals}
}

func (c countingTask) ComputeGradient(step int) float64 {
	if c.stepParams != nil {
		*c.stepParams = append(*c.stepParams, append([]float64(nil), c.Params()...))
	}
	return c.RegressionTask.ComputeGradient(step)
}

type countingEvaluator struct {
	core.Evaluator
	evals *atomic.Int64
}

func (c countingEvaluator) Evaluate() core.Metrics {
	c.evals.Add(1)
	return c.Evaluator.Evaluate()
}

// TestRunEvaluatorScoresRank0Snapshots: with an evaluation after every step,
// no rank's training task is ever evaluated; only the replica of rank 0's
// task is, once per point. Each point's loss is bit for bit a serial
// evaluation of rank 0's parameters at that point, and every snapshot lease
// is back in the pool when Run returns.
func TestRunEvaluatorScoresRank0Snapshots(t *testing.T) {
	const size, steps = 4, 12
	var evals, replicaEvals [size]atomic.Int64
	var stepParams [][]float64
	var rank0 *core.RegressionTask
	before := tensor.ReadPoolStats()
	res, err := core.Run(core.RunConfig{
		Name:           "eval-replica",
		Size:           size,
		Steps:          steps,
		EvalEverySteps: 1,
		FinalSync:      true,
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			task := countingTask{RegressionTask: buildRegressionTask(rank, size, 5, 4), evals: &evals[rank], replicaEvals: &replicaEvals[rank]}
			if rank == 0 {
				task.stepParams, rank0 = &stepParams, task.RegressionTask
			}
			return core.NewTrainer(core.Config{
				Node:      n,
				Task:      task,
				Exchanger: mustReducer(n, task.NumParams(), collective.WithMode(collective.Sync)),
				Optimizer: optimizer.NewSGD(0.05),
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
		t.Fatalf("%d pool leases outstanding after Run", leaked)
	}
	for r := range size {
		if n := evals[r].Load(); n != 0 {
			t.Errorf("rank %d's training task evaluated %d times, want 0", r, n)
		}
	}
	if n := replicaEvals[0].Load(); n != steps {
		t.Errorf("rank 0's replica evaluated %d times, want %d", n, steps)
	}
	for r := 1; r < size; r++ {
		if n := replicaEvals[r].Load(); n != 0 {
			t.Errorf("rank %d's replica evaluated %d times, want 0", r, n)
		}
	}

	// The points after steps 1..steps-1 score the parameters the next step
	// starts from; the final one scores rank 0's parameters after the sync.
	want := append(stepParams[1:len(stepParams):len(stepParams)], rank0.Params())
	if len(res.EvalLoss.Points) != len(want) {
		t.Fatalf("%d evaluation points, want %d", len(res.EvalLoss.Points), len(want))
	}
	serial := buildRegressionTask(0, size, 5, 4)
	for i, params := range want {
		copy(serial.Params(), params)
		got, exp := res.EvalLoss.Points[i].Y, serial.Evaluate().Loss
		if math.Float64bits(got) != math.Float64bits(exp) {
			t.Errorf("point %d: loss %.17g, serial evaluation %.17g", i, got, exp)
		}
	}
	if res.Final.Loss != res.EvalLoss.Points[len(want)-1].Y {
		t.Errorf("final loss %v is not the last point's", res.Final.Loss)
	}
}

// TestTaskReplicaMatchesOriginal: for each built-in task, a replica taken
// after some training scores bit for bit what the original scores, keeps its
// copy of the parameters while the original trains on, and may evaluate on
// another goroutine while the original computes gradients.
func TestTaskReplicaMatchesOriginal(t *testing.T) {
	regression := buildRegressionTask(0, 1, 6, 8)
	classification := func() core.Task {
		net := nn.NewNetwork(nn.SoftmaxCrossEntropy{}, nn.NewDense(6, 16), nn.NewTanh(16), nn.NewDense(16, 4))
		return core.NewClassificationTask("blobs", net, data.Blobs(4, 6, 30, 0.3, 5), data.Blobs(4, 6, 10, 0.3, 6), 8, 0, 1, 3)
	}()
	sequence := core.NewSequenceTask("video", nn.NewLSTMClassifier(4, 6, 3), makeSequenceData(1, 40), makeSequenceData(2, 40), 4, 0, 1, 7)
	for name, task := range map[string]core.Task{"regression": regression, "classification": classification, "sequence": sequence} {
		t.Run(name, func(t *testing.T) {
			train := func(from, to int) {
				for s := from; s < to; s++ {
					task.ComputeGradient(s)
					task.Params().Axpy(-0.1, task.Grads())
				}
			}
			train(0, 5)
			replica := task.Replica()
			want := task.Evaluate()
			if got := replica.Evaluate(); !sameMetrics(got, want) {
				t.Fatalf("replica scores %+v, original %+v", got, want)
			}

			var wg sync.WaitGroup
			var concurrent core.Metrics
			wg.Add(1)
			go func() {
				defer wg.Done()
				concurrent = replica.Evaluate()
			}()
			train(5, 10)
			wg.Wait()
			if !sameMetrics(concurrent, want) {
				t.Fatalf("replica scored %+v while the original trained, want %+v", concurrent, want)
			}
			if sameMetrics(task.Evaluate(), want) {
				t.Fatal("the original's score did not move in five steps: the check above proves nothing")
			}
		})
	}
}

func sameMetrics(a, b core.Metrics) bool {
	return math.Float64bits(a.Loss) == math.Float64bits(b.Loss) &&
		math.Float64bits(a.Top1) == math.Float64bits(b.Top1) &&
		math.Float64bits(a.Top5) == math.Float64bits(b.Top5)
}
