// Package train is the public training façade of the eager-SGD library: a
// declarative way to run the paper's data-parallel training comparisons —
// synch-SGD baselines against eager-SGD with solo, majority, or quorum
// allreduce — on the built-in stand-in workloads, without touching the
// internal engines.
//
// A run is one Spec: a workload, a Variant (the distributed SGD algorithm,
// built on the collective.Reducer seam, so new variants are one option away),
// an imbalance model, and scale knobs. Example:
//
//	res, err := train.Run(train.Spec{
//	    Ranks: 8, Steps: 60,
//	    Workload:  train.Hyperplane(train.HyperplaneConfig{Dim: 128, Samples: 2048, Batch: 16}),
//	    Variant:   train.EagerSolo(20),
//	    Imbalance: train.RandomDelays(1, 300),
//	    BaseStepMs: 195,
//	})
//
// Times are "paper milliseconds" replayed through a scaled clock
// (ClockScale), so experiments modelled after multi-hour GPU runs finish in
// seconds while preserving the relative imbalance.
package train

import (
	"fmt"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/trace"
)

// Variant selects the distributed SGD algorithm. Use the constructors; the
// zero value is synchronous SGD with one fused allreduce.
type Variant struct {
	// Name labels the variant in results; the constructors fill it in.
	Name      string
	opts      []collective.Option
	syncEvery int // model synchronization period, eager variants only
}

// SynchSGD is plain synchronous SGD: one fused allreduce per step.
func SynchSGD() Variant {
	return Variant{Name: "synch-SGD", opts: []collective.Option{collective.WithMode(collective.Sync)}}
}

// SynchDeep500 models the Deep500 DSGD baseline (§3): the gradient is
// reduced in ordered chunks, mirroring the control dependencies a
// DAG-scheduled framework adds.
func SynchDeep500() Variant {
	return Variant{Name: "synch-SGD (Deep500)", opts: []collective.Option{
		collective.WithMode(collective.Sync), collective.WithChunks(4)}}
}

// SynchHorovod models the Horovod baseline (§3): a negotiation round
// (readiness consensus) followed by one fused allreduce.
func SynchHorovod() Variant {
	return Variant{Name: "synch-SGD (Horovod)", opts: []collective.Option{
		collective.WithMode(collective.Sync), collective.WithNegotiation()}}
}

// EagerSolo is eager-SGD with solo allreduce (§4.1): wait-free, fastest,
// lowest expected participation. syncEvery > 0 averages the model replicas
// every that many steps to bound divergence (§5).
func EagerSolo(syncEvery int) Variant {
	return Variant{Name: "eager-SGD (solo)", syncEvery: syncEvery,
		opts: []collective.Option{collective.WithMode(collective.Solo)}}
}

// EagerMajority is eager-SGD with majority allreduce (§4.2): at least half
// the ranks contribute fresh gradients per round in expectation.
func EagerMajority(syncEvery int) Variant {
	return Variant{Name: "eager-SGD (majority)", syncEvery: syncEvery,
		opts: []collective.Option{collective.WithMode(collective.Majority)}}
}

// EagerQuorum is eager-SGD with quorum allreduce (§8): candidates initiators
// per round interpolate between majority (1) and solo (Ranks).
func EagerQuorum(candidates, syncEvery int) Variant {
	return Variant{Name: fmt.Sprintf("eager-SGD (quorum-%d)", candidates), syncEvery: syncEvery,
		opts: []collective.Option{collective.WithMode(collective.Quorum(candidates))}}
}

// Imbalance models the system-caused load imbalance injected per step (§2.3,
// §6.2). The zero value injects nothing; inherent imbalance (variable-length
// batches, §2.1) comes from the workload instead.
type Imbalance struct {
	build func(size int, seed int64) imbalance.Injector
}

// NoImbalance injects no delays.
func NoImbalance() Imbalance { return Imbalance{} }

// RandomDelays delays k random ranks by amountMs paper milliseconds each
// step (the light-imbalance injection of §6.2.1–§6.2.2).
func RandomDelays(k int, amountMs float64) Imbalance {
	return Imbalance{build: func(size int, seed int64) imbalance.Injector {
		return imbalance.RandomSubset{Size: size, K: k, Amount: amountMs, Seed: seed}
	}}
}

// SevereSkew delays every rank between minMs and maxMs with the assignment
// shifting across ranks each step (the severe imbalance of §6.2.3).
func SevereSkew(minMs, maxMs float64) Imbalance {
	return Imbalance{build: func(size int, seed int64) imbalance.Injector {
		return imbalance.ShiftedSevere{Size: size, MinMs: minMs, MaxMs: maxMs}
	}}
}

// LinearSkew delays rank r by (r+1)*stepMs every step (the microbenchmark
// skew of §6.1).
func LinearSkew(stepMs float64) Imbalance {
	return Imbalance{build: func(size int, seed int64) imbalance.Injector {
		return imbalance.LinearSkew{StepMs: stepMs}
	}}
}

// CloudNoise delays k random ranks per step, each by the excess of its own
// sample from the Fig. 4 cloud batch-runtime distribution over its minimum —
// the multi-tenant "noise tail" of §2.3.
func CloudNoise(k int) Imbalance {
	return Imbalance{build: func(size int, seed int64) imbalance.Injector {
		return imbalance.CloudNoise{Size: size, K: k, Seed: seed}
	}}
}

// Spec describes one training run.
type Spec struct {
	// Name labels the run; empty means the variant's name.
	Name string
	// Ranks is the number of data-parallel workers (goroutines over the
	// world's transport). Required.
	Ranks int
	// Steps is the number of optimizer steps every rank executes. Required.
	Steps int
	// Workload is the model + dataset to train. Required.
	Workload Workload
	// Variant is the distributed SGD algorithm; the zero value is SynchSGD.
	Variant Variant
	// Imbalance is the injected per-step delay model; the zero value is none.
	Imbalance Imbalance
	// ClockScale converts paper milliseconds into real time; 0 means 0.01
	// (delays replay at 1% of real time).
	ClockScale float64
	// BaseStepMs models the per-step compute cost, in paper milliseconds, of
	// the system the stand-in model represents. Zero disables it.
	BaseStepMs float64
	// LearningRate overrides the workload's default when positive.
	LearningRate float64
	// Overlap enables the bucketed gradient exchange: layer-aligned buckets
	// are submitted as the backward pass produces them, overlapping the tail
	// of backprop with the head of communication, and each bucket's result is
	// applied as it lands (collective.WithOverlap under the hood).
	Overlap bool
	// BucketElems coalesces adjacent layer segments into buckets of at least
	// this many elements when Overlap is on (collective.WithBucketElems);
	// 0 keeps one bucket per layer. Only synch-SGD reads it: an eager
	// variant's overlapped step is one bucket over the whole vector.
	BucketElems int
	// EvalEvery scores rank 0's parameters on the held-out set every that
	// many steps (0 = final evaluation only). A copy of the parameters is
	// scored on a replica of rank 0's model off the training path, so no
	// rank pauses for it (core.RunConfig.EvalEverySteps).
	EvalEvery int
	// Seed drives dataset generation, batch sampling, initiator selection,
	// and injection schedules. Runs with equal specs are reproducible.
	Seed int64
	// World configures the collective world the run executes on: transport,
	// base port and fault tolerance. Empty means in-process with none. Every
	// reducer of the run takes the world's options, so
	// collective.WithPeerDeadline here detects a dead rank for the gradient
	// exchanges and the model syncs alike: eager variants drop it from their
	// rounds and model syncs and train on with the survivors, while a
	// synchronous step needs every rank and fails with a typed error (unless
	// Churn replaces the rank).
	// collective.WithFaults runs the transport through a deterministic fault
	// injector; the run advances each rank's crash-at-step counter once per
	// optimizer step, and the crashed rank's own error does not fail the run.
	World []collective.Option
	// Churn scripts membership changes — ranks joining, leaving, or being
	// replaced — executed at step boundaries while training runs (the elastic
	// path). Combine ChurnReplace with a World that holds a
	// collective.WithFaults scenario crashing the victim and a
	// collective.WithPeerDeadline that detects it. Joiners train the
	// remaining steps from the state handed over at their epoch boundary.
	Churn []ChurnEvent
}

// ChurnEvent scripts one membership change during a run; see core.ChurnEvent.
type ChurnEvent = core.ChurnEvent

// Churn kinds, re-exported for Spec.Churn.
const (
	ChurnJoin    = core.ChurnJoin
	ChurnLeave   = core.ChurnLeave
	ChurnReplace = core.ChurnReplace
)

// Result aggregates one run's headline measurements (rank 0's view).
type Result struct {
	// Name echoes the run label.
	Name string
	// Throughput is the average steps per second of training time.
	Throughput float64
	// TrainingTime is the cumulative step time. Evaluations run off the
	// training path, so none of it is spent evaluating.
	TrainingTime time.Duration
	// Loss is the final held-out loss; Top1/Top5 the final held-out
	// accuracies (zero for regression workloads).
	Loss, Top1, Top5 float64
	// MeanActiveRanks is the mean number of fresh contributions per
	// reduction observed by rank 0 (the NAP metric of Fig. 9).
	MeanActiveRanks float64
	// EvalLoss and EvalTop1 are the held-out loss and top-1 accuracy of rank
	// 0's parameters against its cumulative training time in seconds at the
	// snapshot: one point per Spec.EvalEvery steps and one for the final
	// evaluation (after the final model sync), whose values Loss and Top1
	// repeat.
	// TrainLoss is the minibatch loss averaged between those evaluations.
	EvalLoss, EvalTop1, TrainLoss *trace.Curve
}

// Run executes the spec and returns rank 0's results. All ranks run as
// goroutines over one world, which is closed — releasing every rank's
// transport resources — before Run returns.
func Run(spec Spec) (*Result, error) {
	if spec.Ranks <= 0 || spec.Steps <= 0 {
		return nil, fmt.Errorf("train: spec requires positive Ranks and Steps")
	}
	if spec.Workload == nil {
		return nil, fmt.Errorf("train: spec requires a Workload")
	}
	v := spec.Variant
	if v.Name == "" {
		v = SynchSGD()
	}
	name := spec.Name
	if name == "" {
		name = v.Name
	}
	scale := spec.ClockScale
	if scale <= 0 {
		scale = 0.01
	}
	clock := imbalance.ScaledClock(scale)
	buildTask, costModel, defaultLR, err := spec.Workload.prepare(spec.Seed)
	if err != nil {
		return nil, err
	}
	lr := spec.LearningRate
	if lr <= 0 {
		lr = defaultLR
	}
	var injector imbalance.Injector = imbalance.None{}
	if spec.Imbalance.build != nil {
		injector = spec.Imbalance.build(spec.Ranks, spec.Seed)
	}
	res, err := core.Run(core.RunConfig{
		Name:           name,
		Size:           spec.Ranks,
		Steps:          spec.Steps,
		EvalEverySteps: spec.EvalEvery,
		FinalSync:      true,
		WorldOptions:   spec.World,
		Churn:          spec.Churn,
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			return core.BuildTrainer(n, core.Config{
				Task:            buildTask(rank, spec.Ranks),
				Optimizer:       optimizer.NewSGD(lr),
				Injector:        injector,
				Clock:           clock,
				BaseStepPaperMs: spec.BaseStepMs,
				CostModel:       costModel,
				SyncEverySteps:  v.syncEvery,
			}, spec.Seed, v.opts, spec.Overlap, spec.BucketElems)
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:            res.Name,
		Throughput:      res.Throughput,
		TrainingTime:    res.TrainingTime,
		Loss:            res.Final.Loss,
		Top1:            res.Final.Top1,
		Top5:            res.Final.Top5,
		MeanActiveRanks: res.MeanActiveProcesses,
		EvalLoss:        res.EvalLoss,
		EvalTop1:        res.EvalTop1,
		TrainLoss:       res.TrainLoss,
	}, nil
}
