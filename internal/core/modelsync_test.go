package core_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/tensor"
)

// appliedOptimizer records the replica after every update it applies, so a
// test can read what a step moved the replica by before the model sync
// lands.
type appliedOptimizer struct {
	optimizer.Optimizer
	applied tensor.Vector
}

func (o *appliedOptimizer) Step(params, grad tensor.Vector, step int) {
	o.Optimizer.Step(params, grad, step)
	o.applied.CopyFrom(params)
}

func (o *appliedOptimizer) StepSegment(params, grad tensor.Vector, offset, step int) {
	o.Optimizer.StepSegment(params, grad, offset, step)
	o.applied.CopyFrom(params)
}

// TestModelSyncBehindStep is the differential test of the model sync that
// runs behind its step. Four ranks, inproc and TCP, sync every step, with
// replicas that start apart and a learning rate per rank: after each step,
// every replica equals the mean of the replicas at the top of the step plus
// that rank's own update from the step, to 1e-12 — for Sync (bucketed, and
// negotiated), Solo, Majority, and Solo with a peer deadline, whose sync is
// the engine's tolerant one.
// Before the steps, a blocking SyncParams over dyadic replicas, whose mean
// every summation order computes exactly, must equal that mean bit for bit.
func TestModelSyncBehindStep(t *testing.T) {
	const ranks, steps = 4, 6
	variants := []struct {
		name    string
		opts    []collective.Option
		overlap bool
	}{
		{"sync", []collective.Option{collective.WithMode(collective.Sync)}, true},
		{"horovod", []collective.Option{collective.WithMode(collective.Sync), collective.WithNegotiation()}, false},
		{"solo", []collective.Option{collective.WithMode(collective.Solo)}, true},
		{"majority", []collective.Option{collective.WithMode(collective.Majority), collective.WithSeed(5)}, true},
		{"solo-deadline", []collective.Option{collective.WithMode(collective.Solo), collective.WithPeerDeadline(5 * time.Second)}, true},
	}
	for ti, transport := range []collective.Transport{collective.Inproc, collective.TCP} {
		for vi, v := range variants {
			t.Run(fmt.Sprintf("%v/%s", transport, v.name), func(t *testing.T) {
				world, err := collective.NewWorld(ranks, collective.WithTransport(transport),
					collective.WithBasePort(28720+10*(ti*len(variants)+vi)))
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				trainers := make([]*core.Trainer, ranks)
				opts := make([]*appliedOptimizer, ranks)
				params := make([]tensor.Vector, ranks)
				syncers := make([]collective.ParamSyncer, ranks)
				for r := range trainers {
					n := world.Node(r)
					task := buildDeepClassificationTask(r, ranks)
					ropts := v.opts
					if v.overlap {
						ropts = append(ropts[:len(ropts):len(ropts)], collective.WithOverlap(),
							collective.WithBucketLayout(core.BucketLayout(task, 0)...))
					}
					red := mustReducer(n, task.NumParams(), ropts...)
					syncers[r] = red.(collective.ParamSyncer)
					// A learning rate per rank gives every rank its own update.
					opts[r] = &appliedOptimizer{Optimizer: optimizer.NewSGD(0.05 * float64(r+1)), applied: tensor.NewVector(task.NumParams())}
					trainers[r], err = core.NewTrainer(core.Config{
						Node: n, Task: task, Exchanger: red, Optimizer: opts[r], SyncEverySteps: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer trainers[r].Close()
					params[r] = task.Params()
				}
				dim := len(params[0])

				// Blocking: the exact mean, bit for bit.
				dyadic := make([]tensor.Vector, ranks)
				for r := range dyadic {
					dyadic[r] = tensor.NewVector(dim)
					for i := range dyadic[r] {
						dyadic[r][i] = float64((r+1)*(i%7-3)) / 8
					}
				}
				onEveryRank(t, ranks, func(r int) error {
					n, err := syncers[r].SyncParams(dyadic[r])
					if err == nil && n != ranks {
						err = fmt.Errorf("SyncParams averaged %d replicas, want %d", n, ranks)
					}
					return err
				})
				for r := range dyadic {
					for i, x := range dyadic[r] {
						if want := float64(10*(i%7-3)) / 32; math.Float64bits(x) != math.Float64bits(want) {
							t.Fatalf("rank %d element %d: SyncParams gave %v, want the mean %v bit for bit", r, i, x, want)
						}
					}
				}

				// Behind the step: mean at the top plus the rank's own update.
				for r, tr := range trainers {
					start := params[r].Clone()
					for i := range start {
						start[i] += 0.01 * float64(r+1) * math.Sin(float64(i))
					}
					if err := tr.SetParams(start); err != nil {
						t.Fatal(err)
					}
				}
				top := make([]tensor.Vector, ranks)
				for s := 0; s < steps; s++ {
					mean := tensor.NewVector(dim)
					for r := range top {
						top[r] = params[r].Clone()
						mean.Add(top[r])
					}
					mean.Scale(1.0 / ranks)
					onEveryRank(t, ranks, func(r int) error {
						_, err := trainers[r].StepContext(context.Background())
						return err
					})
					for r := range params {
						want := mean.Clone()
						for i := range want {
							want[i] += opts[r].applied[i] - top[r][i]
						}
						if !params[r].AllClose(want, 1e-12) {
							t.Fatalf("step %d rank %d: replica is not the top-of-step mean plus the rank's own update", s, r)
						}
					}
				}
			})
		}
	}
}

// onEveryRank runs fn for every rank concurrently and fails the test on any
// error, or if the ranks have not all returned within a minute.
func onEveryRank(t *testing.T, ranks int, fn func(r int) error) {
	t.Helper()
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("ranks still running after a minute")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
