package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/comm"
	"eagersgd/internal/core"
	"eagersgd/internal/data"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/race"
	"eagersgd/internal/tensor"
)

// mustReducer mints the node's reducer for tests, panicking on construction
// errors (which only arise from programming mistakes here).
func mustReducer(n *collective.Node, dim int, opts ...collective.Option) collective.Reducer {
	r, err := n.Reducer(dim, opts...)
	if err != nil {
		panic(err)
	}
	return r
}

// bareReducer hides every optional interface of the reducer it wraps.
type bareReducer struct{ collective.Reducer }

func TestNewTrainerValidation(t *testing.T) {
	world, err := collective.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	n := world.Node(0)
	task := buildRegressionTask(0, 1, 4, 4)
	red := mustReducer(n, task.NumParams(), collective.WithMode(collective.Solo))
	valid := core.Config{Node: n, Task: task, Exchanger: red, Optimizer: optimizer.NewSGD(0.1), SyncEverySteps: 5}
	for _, tc := range []struct {
		name  string
		edit  func(*core.Config)
		valid bool
	}{
		{"empty", func(c *core.Config) { *c = core.Config{} }, false},
		{"no-node", func(c *core.Config) { c.Node = nil }, false},
		{"periodic-sync-without-param-syncer", func(c *core.Config) { c.Exchanger = bareReducer{red} }, false},
		{"bare-exchanger-without-periodic-sync", func(c *core.Config) { c.Exchanger, c.SyncEverySteps = bareReducer{red}, 0 }, true},
		{"valid", func(*core.Config) {}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.edit(&cfg)
			if _, err := core.NewTrainer(cfg); (err == nil) != tc.valid {
				t.Fatalf("NewTrainer error = %v, want valid=%v", err, tc.valid)
			}
		})
	}
}

// TestSyncModelNeedsParamSyncer: with no ParamSyncer to run it through, a
// model sync is an error.
func TestSyncModelNeedsParamSyncer(t *testing.T) {
	world, err := collective.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	n := world.Node(0)
	task := buildRegressionTask(0, 1, 4, 4)
	tr, err := core.NewTrainer(core.Config{
		Node:      n,
		Task:      task,
		Exchanger: bareReducer{mustReducer(n, task.NumParams())},
		Optimizer: optimizer.NewSGD(0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.SyncModel(); err == nil {
		t.Fatal("SyncModel through a bare exchanger succeeded, want an error")
	}
}

// buildRegressionTask builds a small shared hyperplane task for the given
// rank. Train and eval splits come from the same generated dataset so they
// share the ground-truth coefficients.
func buildRegressionTask(rank, size, dim, batch int) *core.RegressionTask {
	full := data.Hyperplane(dim, 320, 0, 21)
	train := &data.RegressionDataset{Inputs: full.Inputs[:256], Targets: full.Targets[:256], Coefficients: full.Coefficients}
	eval := &data.RegressionDataset{Inputs: full.Inputs[256:], Targets: full.Targets[256:], Coefficients: full.Coefficients}
	net := nn.NewNetwork(nn.MSE{}, nn.NewDense(dim, 1))
	return core.NewRegressionTask("hyperplane", net, train, eval, batch, rank, size, 99)
}

func TestRegressionTaskBasics(t *testing.T) {
	task := buildRegressionTask(0, 1, 6, 8)
	if task.Name() != "hyperplane" {
		t.Fatal("name")
	}
	if task.NumParams() != 7 {
		t.Fatalf("NumParams = %d", task.NumParams())
	}
	loss := task.ComputeGradient(0)
	if loss <= 0 {
		t.Fatalf("initial loss %v should be positive", loss)
	}
	if task.Grads().Norm2() == 0 {
		t.Fatal("gradient is zero")
	}
	if task.WorkloadUnits(0) != 0 {
		t.Fatal("regression workload units should be 0")
	}
	m := task.Evaluate()
	if m.Loss <= 0 || m.Top1 != 0 {
		t.Fatalf("evaluate = %+v", m)
	}
	if task.StepsPerEpoch() <= 0 {
		t.Fatal("StepsPerEpoch")
	}
}

func TestClassificationTaskBasics(t *testing.T) {
	train := data.Blobs(4, 6, 30, 0.3, 5)
	eval := data.Blobs(4, 6, 10, 0.3, 6)
	net := nn.NewNetwork(nn.SoftmaxCrossEntropy{}, nn.NewDense(6, 16), nn.NewTanh(16), nn.NewDense(16, 4))
	task := core.NewClassificationTask("blobs", net, train, eval, 8, 0, 1, 3)
	if task.NumParams() != net.NumParams() {
		t.Fatal("NumParams mismatch")
	}
	loss := task.ComputeGradient(0)
	if loss <= 0 || task.Grads().Norm2() == 0 {
		t.Fatalf("gradient computation broken: loss=%v", loss)
	}
	m := task.Evaluate()
	if m.Top1 < 0 || m.Top1 > 1 || m.Top5 < m.Top1 {
		t.Fatalf("metrics %+v", m)
	}
	if task.WorkloadUnits(0) != 0 {
		t.Fatal("classification workload units should be 0")
	}
}

func makeSequenceData(seed int64, samples int) *data.SequenceDataset {
	return data.Sequences(data.SequenceConfig{
		Classes: 3, FeatDim: 4, Samples: samples, Noise: 0.2,
		Lengths: data.UCF101LengthDistribution{MinFrames: 4, MaxFrames: 24, Median: 8, Sigma: 0.5},
		Seed:    seed,
	})
}

func TestSequenceTaskBasics(t *testing.T) {
	train := makeSequenceData(1, 40)
	eval := makeSequenceData(2, 12)
	model := nn.NewLSTMClassifier(4, 6, 3)
	task := core.NewSequenceTask("video", model, train, eval, 4, 0, 1, 7)
	loss := task.ComputeGradient(0)
	if loss <= 0 || task.Grads().Norm2() == 0 {
		t.Fatalf("sequence gradient broken: %v", loss)
	}
	if task.WorkloadUnits(0) <= 0 {
		t.Fatal("sequence workload units must reflect batch frame count")
	}
	m := task.Evaluate()
	if m.Top5 < m.Top1 {
		t.Fatalf("metrics %+v", m)
	}
}

// runWorld runs fn on every node of a fresh in-process world concurrently.
func runWorld(t *testing.T, size int, fn func(rank int, n *collective.Node) error) {
	t.Helper()
	world, err := collective.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r, world.Node(r))
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("distributed run did not finish (deadlock)")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestSynchSGDMatchesSequentialSGD verifies the core data-parallel identity:
// P ranks doing synch-SGD with per-rank batch B behave exactly like one rank
// doing SGD with batch P*B when the per-rank batches partition the global
// batch. We approximate by checking that all replicas stay bit-identical
// across ranks and that the loss decreases.
func TestSynchSGDReplicasStayIdentical(t *testing.T) {
	const size = 4
	const dim = 6
	const steps = 15
	finalParams := make([]tensor.Vector, size)
	losses := make([][]float64, size)
	runWorld(t, size, func(rank int, n *collective.Node) error {
		task := buildRegressionTask(rank, size, dim, 4)
		tr, err := core.NewTrainer(core.Config{
			Node:      n,
			Task:      task,
			Exchanger: mustReducer(n, task.NumParams(), collective.WithChunks(3)),
			Optimizer: optimizer.NewSGD(0.05),
		})
		if err != nil {
			return err
		}
		defer tr.Close()
		for s := 0; s < steps; s++ {
			rec, err := tr.StepContext(context.Background())
			if err != nil {
				return err
			}
			losses[rank] = append(losses[rank], rec.Loss)
			if rec.ActiveProcesses != size || !rec.Included {
				t.Errorf("synch step stats wrong: %+v", rec)
			}
		}
		finalParams[rank] = task.Params().Clone()
		return nil
	})
	for r := 1; r < size; r++ {
		if !finalParams[r].AllClose(finalParams[0], 1e-9) {
			t.Fatalf("rank %d replica diverged from rank 0 under synchronous SGD", r)
		}
	}
	// Loss must drop substantially over training.
	first, last := losses[0][0], losses[0][len(losses[0])-1]
	if last > first*0.9 {
		t.Fatalf("synch-SGD made no progress: first %v last %v", first, last)
	}
}

func TestHorovodStyleAlsoKeepsReplicasIdentical(t *testing.T) {
	const size = 3
	finalParams := make([]tensor.Vector, size)
	runWorld(t, size, func(rank int, n *collective.Node) error {
		task := buildRegressionTask(rank, size, 5, 4)
		tr, err := core.NewTrainer(core.Config{
			Node:      n,
			Task:      task,
			Exchanger: mustReducer(n, task.NumParams(), collective.WithNegotiation()),
			Optimizer: optimizer.NewSGD(0.05),
		})
		if err != nil {
			return err
		}
		defer tr.Close()
		for s := 0; s < 8; s++ {
			if _, err := tr.StepContext(context.Background()); err != nil {
				return err
			}
		}
		finalParams[rank] = task.Params().Clone()
		return nil
	})
	for r := 1; r < size; r++ {
		if !finalParams[r].AllClose(finalParams[0], 1e-9) {
			t.Fatalf("rank %d replica diverged under Horovod-style synch-SGD", r)
		}
	}
}

func TestEagerSGDConvergesOnHyperplane(t *testing.T) {
	// Light imbalance (injected delay is a fraction of the modelled per-step
	// compute, as in Fig. 10), solo allreduce: the validation loss must drop
	// by a large factor, mirroring Fig. 10's "equivalent loss" claim.
	const size = 4
	const steps = 200
	evalLosses := make([]float64, size)
	runWorld(t, size, func(rank int, n *collective.Node) error {
		task := buildRegressionTask(rank, size, 8, 8)
		tr, err := core.NewTrainer(core.Config{
			Node:            n,
			Task:            task,
			Exchanger:       mustReducer(n, task.NumParams(), collective.WithMode(collective.Solo), collective.WithSeed(17)),
			Optimizer:       optimizer.NewSGD(0.02),
			Injector:        imbalance.RandomSubset{Size: size, K: 1, Amount: 6, Seed: 2},
			Clock:           imbalance.ScaledClock(0.05),
			BaseStepPaperMs: 20,
			SyncEverySteps:  20,
		})
		if err != nil {
			return err
		}
		defer tr.Close()
		for s := 0; s < steps; s++ {
			if _, err := tr.StepContext(context.Background()); err != nil {
				return err
			}
		}
		if err := tr.SyncModel(); err != nil {
			return err
		}
		evalLosses[rank] = task.Evaluate().Loss
		return nil
	})
	initial := buildRegressionTask(0, 1, 8, 8).Evaluate().Loss
	for r, l := range evalLosses {
		if l > initial*0.2 {
			t.Fatalf("rank %d eager-SGD did not converge: eval loss %v (initial %v)", r, l, initial)
		}
	}
}

func TestEagerSGDMajorityWaitsForQuorum(t *testing.T) {
	// Under a linear skew, majority mode must report a mean NAP well above
	// solo mode's (statistical guarantee of §4.2).
	const size = 4
	const steps = 20
	meanNAP := func(mode collective.Mode) float64 {
		naps := make([]float64, size)
		runWorld(t, size, func(rank int, n *collective.Node) error {
			task := buildRegressionTask(rank, size, 5, 4)
			tr, err := core.NewTrainer(core.Config{
				Node:      n,
				Task:      task,
				Exchanger: mustReducer(n, task.NumParams(), collective.WithMode(mode), collective.WithSeed(5)),
				Optimizer: optimizer.NewSGD(0.01),
				Injector:  imbalance.LinearSkew{StepMs: 30},
				Clock:     imbalance.ScaledClock(0.2),
			})
			if err != nil {
				return err
			}
			defer tr.Close()
			for s := 0; s < steps; s++ {
				if _, err := tr.StepContext(context.Background()); err != nil {
					return err
				}
			}
			naps[rank] = tr.Recorder().MeanActiveProcesses()
			return nil
		})
		best := 0.0
		for _, n := range naps {
			if n > best {
				best = n
			}
		}
		return best
	}
	solo := meanNAP(collective.Solo)
	majority := meanNAP(collective.Majority)
	if majority <= solo {
		t.Fatalf("majority NAP %.2f should exceed solo NAP %.2f under linear skew", majority, solo)
	}
}

func TestEagerSoloFasterThanSynchUnderSkew(t *testing.T) {
	// The headline claim: under injected imbalance, eager-SGD (solo) steps
	// complete faster than synch-SGD steps because nobody waits for the
	// delayed rank.
	const size = 4
	const steps = 12
	delay := 80.0 // paper ms
	clock := imbalance.ScaledClock(0.25)

	runVariant := func(eager bool) time.Duration {
		times := make([]time.Duration, size)
		runWorld(t, size, func(rank int, n *collective.Node) error {
			task := buildRegressionTask(rank, size, 5, 4)
			var ex collective.Reducer
			if eager {
				ex = mustReducer(n, task.NumParams(), collective.WithMode(collective.Solo), collective.WithSeed(3))
			} else {
				ex = mustReducer(n, task.NumParams())
			}
			tr, err := core.NewTrainer(core.Config{
				Node:      n,
				Task:      task,
				Exchanger: ex,
				Optimizer: optimizer.NewSGD(0.01),
				Injector:  imbalance.RandomSubset{Size: size, K: 1, Amount: delay, Seed: 9},
				Clock:     clock,
			})
			if err != nil {
				return err
			}
			defer tr.Close()
			for s := 0; s < steps; s++ {
				if _, err := tr.StepContext(context.Background()); err != nil {
					return err
				}
			}
			times[rank] = tr.Recorder().TotalTime()
			return nil
		})
		// Use the fastest rank's training time: in synch-SGD even the fastest
		// rank is dragged down to the straggler's pace, which is exactly the
		// effect eager-SGD removes.
		best := times[0]
		for _, d := range times {
			if d < best {
				best = d
			}
		}
		return best
	}

	synchTime := runVariant(false)
	eagerTime := runVariant(true)
	if eagerTime >= synchTime {
		t.Fatalf("eager-SGD (%v) not faster than synch-SGD (%v) under injected skew", eagerTime, synchTime)
	}
}

func TestRunnerEndToEnd(t *testing.T) {
	res, err := core.Run(core.RunConfig{
		Name:           "synch-test",
		Size:           2,
		Steps:          10,
		EvalEverySteps: 5,
		FinalSync:      true,
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			task := buildRegressionTask(rank, 2, 5, 4)
			return core.NewTrainer(core.Config{
				Node:      n,
				Task:      task,
				Exchanger: mustReducer(n, task.NumParams(), collective.WithChunks(2)),
				Optimizer: optimizer.NewSGD(0.05),
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.TrainingTime <= 0 {
		t.Fatalf("throughput %v training time %v", res.Throughput, res.TrainingTime)
	}
	if len(res.EvalLoss.Points) < 2 {
		t.Fatalf("expected at least 2 evaluation points, got %d", len(res.EvalLoss.Points))
	}
	if res.MeanActiveProcesses != 2 {
		t.Fatalf("MeanActiveProcesses = %v, want 2 for synch", res.MeanActiveProcesses)
	}
	if math.IsNaN(res.Final.Loss) || res.Final.Loss < 0 {
		t.Fatalf("final metrics %+v", res.Final)
	}
	if len(res.PerRank) != 2 || res.PerRank[1].Steps() != 10 {
		t.Fatal("per-rank recorders missing")
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := core.Run(core.RunConfig{}); err == nil {
		t.Fatal("expected error for empty run config")
	}
	if _, err := core.Run(core.RunConfig{Size: 1, Steps: 1, Build: func(int, *collective.Node) (*core.Trainer, error) {
		return nil, comm.ErrClosed
	}}); err == nil {
		t.Fatal("expected build error to propagate")
	}
}

func TestExchangerNames(t *testing.T) {
	world, err := collective.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	n := world.Node(0)
	se := mustReducer(n, 3, collective.WithNegotiation())
	if collective.ReducerName(se) != "synch-sgd (horovod)" {
		t.Fatalf("name %q", collective.ReducerName(se))
	}
	ee := mustReducer(n, 3, collective.WithMode(collective.Majority), collective.WithSeed(1))
	defer ee.Close()
	if collective.ReducerName(ee) != "eager-sgd (majority)" {
		t.Fatalf("name %q", collective.ReducerName(ee))
	}
	qe := mustReducer(n, 3, collective.WithMode(collective.Quorum(1)), collective.WithSeed(1))
	defer qe.Close()
	if collective.ReducerName(qe) != "eager-sgd (quorum)" {
		t.Fatalf("name %q", collective.ReducerName(qe))
	}
}

func TestSyncModelAveragesReplicas(t *testing.T) {
	const size = 3
	results := make([]tensor.Vector, size)
	runWorld(t, size, func(rank int, n *collective.Node) error {
		task := buildRegressionTask(rank, size, 4, 4)
		// Force divergent replicas.
		task.Params().Fill(float64(rank + 1))
		tr, err := core.NewTrainer(core.Config{
			Node:      n,
			Task:      task,
			Exchanger: mustReducer(n, task.NumParams()),
			Optimizer: optimizer.NewSGD(0.1),
		})
		if err != nil {
			return err
		}
		defer tr.Close()
		if err := tr.SyncModel(); err != nil {
			return err
		}
		results[rank] = task.Params().Clone()
		return nil
	})
	want := tensor.NewVector(len(results[0]))
	want.Fill(2) // mean of 1, 2, 3
	for r := 0; r < size; r++ {
		if !results[r].AllClose(want, 1e-9) {
			t.Fatalf("rank %d synced params %v, want all 2", r, results[r][:2])
		}
	}
}

// TestSyncModelPeerDownUsesReducerDeadline: the world's WithPeerDeadline is
// the model sync's failure detector too, with nothing repeated in
// core.Config. A silent crash of rank 2 leaves only a deadline to detect it;
// each survivor's SyncModel must then fail with ErrRankUnreachable instead of
// blocking on the dead rank.
func TestSyncModelPeerDownUsesReducerDeadline(t *testing.T) {
	const size, victim = 3, 2
	for _, mode := range []collective.Mode{collective.Sync, collective.Solo} {
		t.Run(mode.String(), func(t *testing.T) {
			world, err := collective.NewWorld(size,
				collective.WithPeerDeadline(100*time.Millisecond),
				collective.WithFaults(collective.FaultScenario{Seed: 1}))
			if err != nil {
				t.Fatal(err)
			}
			defer world.Close()
			trainers := make([]*core.Trainer, size)
			for r := range trainers {
				n := world.Node(r)
				task := buildRegressionTask(r, size, 4, 4)
				trainers[r], err = core.NewTrainer(core.Config{
					Node:      n,
					Task:      task,
					Exchanger: mustReducer(n, task.NumParams(), collective.WithMode(mode)),
					Optimizer: optimizer.NewSGD(0.1),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer trainers[r].Close()
			}
			world.FaultInjector().Crash(victim)

			errs := make(chan error, victim)
			for r := 0; r < victim; r++ {
				go func(tr *core.Trainer) { errs <- tr.SyncModel() }(trainers[r])
			}
			guard := time.After(10 * time.Second)
			for i := 0; i < victim; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, collective.ErrRankUnreachable) {
						t.Errorf("survivor SyncModel error = %v, want one wrapping ErrRankUnreachable", err)
					}
				case <-guard:
					t.Fatal("survivor SyncModel still blocked on the crashed rank after 10s")
				}
			}
		})
	}
}

// buildDeepClassificationTask builds a multi-layer MLP classification task so
// the overlapped path exercises several layer-aligned buckets.
func buildDeepClassificationTask(rank, size int) *core.ClassificationTask {
	train := data.Blobs(4, 6, 64, 0.3, 41)
	eval := data.Blobs(4, 6, 16, 0.3, 42)
	net := nn.NewNetwork(nn.SoftmaxCrossEntropy{},
		nn.NewDense(6, 24), nn.NewTanh(24), nn.NewDense(24, 16), nn.NewReLU(16), nn.NewDense(16, 4))
	return core.NewClassificationTask("blobs-deep", net, train, eval, 8, rank, size, 3)
}

// TestOverlappedSyncTrainingBitForBit is the trainer-level half of the
// numerical-equivalence acceptance gate: on the in-process transport at three
// ranks, where Auto runs recursive doubling at every length (its per-element
// reduction tree is independent of the vector length), overlapped bucketed
// training must produce bit-for-bit the parameters of the serial single-shot
// path.
func TestOverlappedSyncTrainingBitForBit(t *testing.T) {
	const size = 3
	const steps = 6
	run := func(overlap bool, bucketElems int) []tensor.Vector {
		finalParams := make([]tensor.Vector, size)
		runWorld(t, size, func(rank int, n *collective.Node) error {
			task := buildDeepClassificationTask(rank, size)
			var opts []collective.Option
			if overlap {
				opts = append(opts, collective.WithOverlap(), collective.WithBucketElems(bucketElems))
			}
			tr, err := core.NewTrainer(core.Config{
				Node:      n,
				Task:      task,
				Exchanger: mustReducer(n, task.NumParams(), opts...),
				Optimizer: optimizer.NewSGD(0.05),
			})
			if err != nil {
				return err
			}
			defer tr.Close()
			for s := 0; s < steps; s++ {
				rec, err := tr.StepContext(context.Background())
				if err != nil {
					return err
				}
				if rec.ActiveProcesses != size || !rec.Included {
					t.Errorf("overlapped sync step stats wrong: %+v", rec)
				}
			}
			finalParams[rank] = task.Params().Clone()
			return nil
		})
		return finalParams
	}
	serial := run(false, 0)
	for _, bucketElems := range []int{0, 200} { // per-layer buckets and coalesced buckets
		overlapped := run(true, bucketElems)
		for r := 0; r < size; r++ {
			for i := range serial[r] {
				if serial[r][i] != overlapped[r][i] {
					t.Fatalf("bucketElems=%d rank %d param %d: overlapped %v != serial %v (must be bit-for-bit)",
						bucketElems, r, i, overlapped[r][i], serial[r][i])
				}
			}
		}
	}
}

// TestOverlappedEagerTraining smoke-tests the overlapped path through the
// eager (solo) engine end to end: replicas must converge after a final model
// sync and per-step stats must stay sane.
func TestOverlappedEagerTraining(t *testing.T) {
	const size = 4
	const steps = 160
	evalLosses := make([]float64, size)
	runWorld(t, size, func(rank int, n *collective.Node) error {
		task := buildRegressionTask(rank, size, 8, 8)
		layout := core.BucketLayout(task, 0)
		tr, err := core.NewTrainer(core.Config{
			Node: n,
			Task: task,
			Exchanger: mustReducer(n, task.NumParams(),
				collective.WithMode(collective.Solo), collective.WithSeed(17),
				collective.WithOverlap(), collective.WithBucketLayout(layout...)),
			Optimizer:      optimizer.NewSGD(0.02),
			SyncEverySteps: 20,
		})
		if err != nil {
			return err
		}
		defer tr.Close()
		for s := 0; s < steps; s++ {
			rec, err := tr.StepContext(context.Background())
			if err != nil {
				return err
			}
			if rec.ActiveProcesses < 0 || rec.ActiveProcesses > size {
				t.Errorf("rank %d step %d: active processes %d out of range", rank, s, rec.ActiveProcesses)
			}
		}
		if err := tr.SyncModel(); err != nil {
			return err
		}
		evalLosses[rank] = task.Evaluate().Loss
		return nil
	})
	initial := buildRegressionTask(0, 1, 8, 8).Evaluate().Loss
	for r, l := range evalLosses {
		if l > initial*0.5 {
			t.Fatalf("rank %d overlapped eager training did not make progress: eval loss %v (initial %v)", r, l, initial)
		}
	}
}

// TestOverlapNeedsNoBucketLayout: an eager reducer minted with WithOverlap
// alone trains a two-segment model on the overlapped path. The trainer opens
// every step with its own two-bucket layout, which no reducer option names.
func TestOverlapNeedsNoBucketLayout(t *testing.T) {
	const size, steps = 4, 60
	full := data.Hyperplane(8, 320, 0, 21)
	train := &data.RegressionDataset{Inputs: full.Inputs[:256], Targets: full.Targets[:256], Coefficients: full.Coefficients}
	eval := &data.RegressionDataset{Inputs: full.Inputs[256:], Targets: full.Targets[256:], Coefficients: full.Coefficients}
	build := func(rank, size int) *core.RegressionTask {
		net := nn.NewNetwork(nn.MSE{}, nn.NewDense(8, 4), nn.NewTanh(4), nn.NewDense(4, 1))
		return core.NewRegressionTask("hyperplane", net, train, eval, 8, rank, size, 99)
	}
	if segs := len(build(0, 1).Segments()); segs != 2 {
		t.Fatalf("task has %d layer segments, want 2", segs)
	}
	initial := build(0, 1).Evaluate().Loss
	for _, mode := range []collective.Mode{collective.Solo, collective.Majority} {
		t.Run(mode.String(), func(t *testing.T) {
			evalLosses := make([]float64, size)
			runWorld(t, size, func(rank int, n *collective.Node) error {
				task := build(rank, size)
				tr, err := core.NewTrainer(core.Config{
					Node: n,
					Task: task,
					Exchanger: mustReducer(n, task.NumParams(),
						collective.WithMode(mode), collective.WithSeed(17), collective.WithOverlap()),
					Optimizer:      optimizer.NewSGD(0.02),
					SyncEverySteps: 20,
				})
				if err != nil {
					return err
				}
				defer tr.Close()
				for s := 0; s < steps; s++ {
					if _, err := tr.StepContext(context.Background()); err != nil {
						return fmt.Errorf("step %d: %w", s, err)
					}
				}
				if err := tr.SyncModel(); err != nil {
					return err
				}
				evalLosses[rank] = task.Evaluate().Loss
				return nil
			})
			for r, l := range evalLosses {
				if l >= initial {
					t.Fatalf("rank %d: eval loss %v after %d steps, initial %v", r, l, steps, initial)
				}
			}
		})
	}
}

// taskOnly hides every optional interface of the task it wraps, so it cannot
// announce the layer segments the overlapped path needs.
type taskOnly struct{ core.Task }

// TestBuildTrainerClosesReducerOnError: BuildTrainer mints the reducer before
// NewTrainer can reject the configuration (here: overlap over a task without
// segments). The call must return NewTrainer's error and close the reducer,
// and the world must close with every pool lease back. A closed Sync
// reducer's bucket worker exits at once, while an open one waits for work
// until the world closes, so for Sync the goroutine count shows the close.
func TestBuildTrainerClosesReducerOnError(t *testing.T) {
	for _, mode := range []collective.Mode{collective.Sync, collective.Solo} {
		t.Run(mode.String(), func(t *testing.T) {
			before := tensor.ReadPoolStats()
			world, err := collective.NewWorld(1)
			if err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumGoroutine()
			task := taskOnly{buildRegressionTask(0, 1, 4, 4)}
			cfg := core.Config{Task: task, Optimizer: optimizer.NewSGD(0.1)}
			variant := []collective.Option{collective.WithMode(mode)}
			_, err = core.BuildTrainer(world.Node(0), cfg, 1, variant, true, 0)
			if err == nil || !strings.Contains(err.Error(), "overlap requires a bucket-capable exchanger and task") {
				t.Fatalf("BuildTrainer error = %v, want NewTrainer's overlap error", err)
			}
			for deadline := time.Now().Add(10 * time.Second); mode == collective.Sync && runtime.NumGoroutine() > goroutines; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines with the world open, %d before BuildTrainer: the reducer's worker still runs", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}
			if err := world.Close(); err != nil {
				t.Fatal(err)
			}
			if leaked := tensor.ReadPoolStats().OutstandingSince(before); leaked != 0 {
				t.Fatalf("%d pool leases outstanding after the world closed", leaked)
			}
		})
	}
}

// TestWorldStepAllocBounded gates whole training steps on a four-rank world,
// inproc and TCP, Sync and Solo, with overlap on and a model sync every step:
// each rank steps on its own goroutine, all of them in lock-step, and the
// process's heap objects (runtime.MemStats.Mallocs, so the transports' read
// loops and the engines count too) stay below half an object per rank-step
// over 400 steps.
func TestWorldStepAllocBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ranks, warm, steps, bound = 4, 50, 400, 0.5
	for _, transport := range []collective.Transport{collective.Inproc, collective.TCP} {
		for mi, mode := range []collective.Mode{collective.Sync, collective.Solo} {
			t.Run(fmt.Sprintf("%v/%v", transport, mode), func(t *testing.T) {
				world, err := collective.NewWorld(ranks, collective.WithTransport(transport), collective.WithBasePort(28700+10*mi))
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				step := make([]chan struct{}, ranks)
				done := make(chan error, ranks)
				for r := range step {
					n := world.Node(r)
					task := buildDeepClassificationTask(r, ranks)
					tr, err := core.NewTrainer(core.Config{
						Node: n,
						Task: task,
						Exchanger: mustReducer(n, task.NumParams(), collective.WithMode(mode),
							collective.WithOverlap(), collective.WithBucketLayout(core.BucketLayout(task, 0)...)),
						Optimizer:      optimizer.NewSGD(0.05),
						SyncEverySteps: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer tr.Close()
					step[r] = make(chan struct{})
					go func() {
						for range step[r] {
							_, err := tr.StepContext(context.Background())
							done <- err
						}
					}()
				}
				defer func() {
					for _, ch := range step {
						close(ch)
					}
				}()
				lockstep := func(n int) {
					for i := 0; i < n; i++ {
						for _, ch := range step {
							ch <- struct{}{}
						}
						for range step {
							if err := <-done; err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				lockstep(warm) // warm the pools, the workspaces and the recorders
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				lockstep(steps)
				runtime.ReadMemStats(&after)
				perStep := float64(after.Mallocs-before.Mallocs) / (ranks * steps)
				t.Logf("%.3f heap objects per rank-step", perStep)
				if perStep > bound {
					t.Fatalf("%.3f heap objects per rank-step over %d lock-step steps, want at most %v", perStep, steps, bound)
				}
			})
		}
	}
}

// TestTrainerStepAllocFree gates a whole training step on a one-rank world:
// once warm, StepContext allocates nothing — minibatch sampling, gradient,
// exchange, averaging and the optimizer update — for Sync and Solo, on the
// serial path and the overlapped one.
func TestTrainerStepAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	for _, mode := range []collective.Mode{collective.Sync, collective.Solo} {
		for _, overlap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/overlap=%v", mode, overlap), func(t *testing.T) {
				world, err := collective.NewWorld(1)
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				n := world.Node(0)
				task := buildDeepClassificationTask(0, 1)
				opts := []collective.Option{collective.WithMode(mode)}
				if overlap {
					opts = append(opts, collective.WithOverlap(), collective.WithBucketLayout(core.BucketLayout(task, 0)...))
				}
				tr, err := core.NewTrainer(core.Config{
					Node:      n,
					Task:      task,
					Exchanger: mustReducer(n, task.NumParams(), opts...),
					Optimizer: optimizer.NewSGD(0.05),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				step := func() {
					if _, err := tr.StepContext(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 20; i++ {
					step() // warm the pool, the workspaces and the recorder
				}
				if avg := testing.AllocsPerRun(100, step); avg > 0 {
					t.Fatalf("StepContext allocates %.2f objects per step, want 0", avg)
				}
			})
		}
	}
}
