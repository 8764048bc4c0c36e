package core

import (
	"context"
	"fmt"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/tensor"
	"eagersgd/internal/trace"
)

// Config assembles one rank's trainer. The gradient exchange goes through the
// public collective.Reducer seam, so every variant the paper compares —
// synch-SGD (fused, chunked, or negotiated) and eager-SGD (solo, majority,
// quorum) — is one constructor option away, and new variants plug in without
// touching the trainer.
type Config struct {
	// Node is the rank's world membership handle, the one Exchanger was minted
	// on: the trainer's rank and world size follow the current epoch across
	// Join/Leave/Replace transitions.
	Node      *collective.Node
	Task      Task
	Exchanger collective.Reducer
	Optimizer optimizer.Optimizer
	// Injector and Clock simulate system-caused load imbalance (§6.2); leave
	// Injector nil for none.
	Injector imbalance.Injector
	Clock    imbalance.Clock
	// BaseStepPaperMs models the per-step compute cost (in paper
	// milliseconds, slept through Clock) of the system the local model stands
	// in for. The stand-in models are orders of magnitude cheaper than a
	// P100 running ResNet-50, so without this the injected delays would
	// dominate the step time and exaggerate the imbalance relative to the
	// paper's setup. Zero disables it.
	BaseStepPaperMs float64
	// CostModel, when non-nil, adds modelled compute time proportional to the
	// step's WorkloadUnits (used when the stand-in model is much cheaper than
	// the system it represents).
	CostModel *imbalance.SequenceCostModel
	// SyncEverySteps, when positive, synchronizes (averages) model replicas
	// across ranks every that many steps — the periodic model synchronization
	// eager-SGD uses to bound replica divergence (§5). It needs an Exchanger
	// that implements collective.ParamSyncer. Synchronous replicas never
	// diverge, so only the eager variants set it.
	SyncEverySteps int
	// StartStep offsets the trainer's step counter: a joiner admitted to an
	// elastic world mid-run starts at the survivors' step so its periodic
	// synchronization points (SyncEverySteps) line up with theirs.
	StartStep int
}

// Trainer runs data-parallel SGD for one rank.
type Trainer struct {
	cfg      Config
	recorder *trace.ThroughputRecorder
	step     int
	// bucket is non-nil when the overlapped (bucketed) exchange path is
	// active: the exchanger was built with collective.WithOverlap and the
	// task can announce layer segments during its backward pass.
	bucket *trainerBuckets
}

// trainerBuckets holds the overlapped path's wiring: the bucket-capable
// reducer and task plus the bucket plan mapping layer segments onto exchange
// buckets, and the per-step bookkeeping stepOverlapped reuses across steps.
type trainerBuckets struct {
	reducer collective.BucketReducer
	task    BucketedTask
	plan    bucketPlan

	handles   []*collective.BucketHandle // the step's submitted buckets, in order
	remaining []int                      // per bucket: segments still to settle

	// The step in flight, for settle: its context and its first submission
	// error. onSegment is settle as the backward pass's callback, built once
	// so a step allocates none.
	ctx       context.Context
	submitErr error
	onSegment func(nn.Segment)
}

// settle counts a segment the backward pass has finished and submits its
// bucket once the bucket's last segment has settled.
func (bk *trainerBuckets) settle(seg nn.Segment) {
	if bk.submitErr != nil {
		return
	}
	b := bk.plan.bucketOf[seg.Offset]
	bk.remaining[b]--
	if bk.remaining[b] > 0 {
		return // bucket coalesces several segments; wait for the rest
	}
	lo := bk.plan.offs[b]
	h, err := bk.reducer.SubmitBucket(bk.ctx, lo, bk.task.Grads()[lo:lo+bk.plan.lens[b]])
	if err != nil {
		bk.submitErr = err
		return
	}
	bk.handles = append(bk.handles, h)
}

// NewTrainer validates the configuration and builds a trainer. When the
// exchanger was built with collective.WithOverlap and the task supports
// bucketed gradients, steps run the overlapped path: buckets are submitted
// during the backward pass and each bucket's reduced result is applied as it
// lands.
func NewTrainer(cfg Config) (*Trainer, error) {
	if cfg.Node == nil || cfg.Task == nil || cfg.Exchanger == nil || cfg.Optimizer == nil {
		return nil, fmt.Errorf("core: config requires Node, Task, Exchanger, and Optimizer")
	}
	if _, ok := cfg.Exchanger.(collective.ParamSyncer); cfg.SyncEverySteps > 0 && !ok {
		return nil, fmt.Errorf("core: SyncEverySteps needs an exchanger that implements collective.ParamSyncer (have %T)", cfg.Exchanger)
	}
	if cfg.Injector == nil {
		cfg.Injector = imbalance.None{}
	}
	t := &Trainer{cfg: cfg, recorder: trace.NewThroughputRecorder(), step: cfg.StartStep}
	if enabled, bucketElems := collective.OverlapSettings(cfg.Exchanger); enabled {
		br, brOK := cfg.Exchanger.(collective.BucketReducer)
		bt, btOK := cfg.Task.(BucketedTask)
		if !brOK || !btOK {
			return nil, fmt.Errorf("core: overlap requires a bucket-capable exchanger and task (have %T, %T)", cfg.Exchanger, cfg.Task)
		}
		t.bucket = &trainerBuckets{reducer: br, task: bt, plan: planBuckets(bt.Segments(), bucketElems)}
		t.bucket.onSegment = t.bucket.settle
	}
	return t, nil
}

// BuildTrainer mints rank's reducer on the node and builds the trainer over
// it — the one builder behind train.Run and the figure harness. cfg carries
// everything but Node and Exchanger, which are filled in here. The reducer
// options are applied in a fixed order (seed, the variant's options, then the
// overlap settings) over the world's, so equal inputs construct equal
// reducers. If NewTrainer rejects the configuration, the reducer is closed.
func BuildTrainer(n *collective.Node, cfg Config, seed int64, variant []collective.Option, overlap bool, bucketElems int) (*Trainer, error) {
	opts := append([]collective.Option{collective.WithSeed(seed)}, variant...)
	if overlap {
		opts = append(opts, collective.WithOverlap(), collective.WithBucketElems(bucketElems))
	}
	ex, err := n.Reducer(cfg.Task.NumParams(), opts...)
	if err != nil {
		return nil, err
	}
	cfg.Node, cfg.Exchanger = n, ex
	t, err := NewTrainer(cfg)
	if err != nil {
		ex.Close()
		return nil, err
	}
	return t, nil
}

// Rank returns the trainer's dense rank in the current epoch; it can change
// at an epoch boundary.
func (t *Trainer) Rank() int { return t.cfg.Node.Rank() }

// Size returns the world size of the current epoch.
func (t *Trainer) Size() int { return t.cfg.Node.Size() }

// Recorder returns the per-step measurements collected so far.
func (t *Trainer) Recorder() *trace.ThroughputRecorder { return t.recorder }

// StepContext executes one training step: local gradient computation (plus
// any injected or modelled imbalance), gradient exchange through the Reducer,
// averaging, and the optimizer update, followed by the periodic model
// synchronization if due. Canceling ctx aborts a blocked gradient exchange.
//
// On the overlapped path the exchange is bucketed: layer-aligned buckets are
// submitted as the backward pass produces them (communication overlaps the
// remaining backprop) and each bucket's averaged result is applied as it
// lands; the end-of-step WaitStep supplies the same loss/participation
// accounting as the one-shot exchange.
func (t *Trainer) StepContext(ctx context.Context) (trace.StepRecord, error) {
	// On an elastic world the whole step — gradient compute, exchange,
	// optimizer update, periodic sync — is one operation at the drain
	// barrier, so an epoch transition only ever lands between steps and a
	// handoff snapshot never reads a replica mid-update.
	if ts, ok := t.cfg.Exchanger.(collective.TrainStepper); ok {
		if err := ts.BeginTrainStep(); err != nil {
			return trace.StepRecord{}, err
		}
		defer ts.EndTrainStep()
	}
	start := time.Now()
	step := t.step

	var loss float64
	var res collective.Result
	var err error
	if t.bucket != nil {
		loss, res, err = t.stepOverlapped(ctx, step)
	} else {
		loss, res, err = t.stepSerial(ctx, step)
	}
	if err != nil {
		return trace.StepRecord{}, err
	}

	if t.cfg.SyncEverySteps > 0 && (step+1)%t.cfg.SyncEverySteps == 0 {
		if err := t.SyncModel(); err != nil {
			return trace.StepRecord{}, fmt.Errorf("core: step %d model sync: %w", step, err)
		}
	}
	// The counter only advances once the whole step succeeded, so a step that
	// failed on a dying epoch (peer crash before a Replace) is retried as one
	// unit after the membership transition commits — keeping the rank's
	// collective sequence matched with a replacement that starts at this step.
	t.step++

	rec := trace.StepRecord{
		Step:            step,
		Duration:        time.Since(start),
		Loss:            loss,
		ActiveProcesses: res.ActiveRanks,
		Included:        res.Included,
	}
	t.recorder.Add(rec)
	return rec, nil
}

// sleepImbalance replays the step's modelled compute cost and injected
// delays through the scaled clock.
func (t *Trainer) sleepImbalance(step int) {
	// Modelled base compute cost of the system the local model stands in for.
	if t.cfg.BaseStepPaperMs > 0 {
		t.cfg.Clock.Sleep(t.cfg.BaseStepPaperMs)
	}
	// Inherent-imbalance cost model: charge time proportional to the batch
	// workload (e.g. total frames).
	if t.cfg.CostModel != nil {
		if units := t.cfg.Task.WorkloadUnits(step); units > 0 {
			t.cfg.Clock.Sleep(t.cfg.CostModel.Runtime(units))
		}
	}
	// System-caused imbalance injection.
	if d := t.cfg.Injector.Delay(step, t.Rank()); d > 0 {
		t.cfg.Clock.Sleep(d)
	}
}

// stepSerial is the classic path: full backward pass, then one blocking
// exchange over the whole flat gradient.
func (t *Trainer) stepSerial(ctx context.Context, step int) (float64, collective.Result, error) {
	loss := t.cfg.Task.ComputeGradient(step)
	t.sleepImbalance(step)

	res, err := t.cfg.Exchanger.Reduce(ctx, t.cfg.Task.Grads())
	if err != nil {
		return 0, collective.Result{}, fmt.Errorf("core: step %d exchange: %w", step, err)
	}
	global := res.Sum
	// The TrainStepper bracket holds the epoch for the whole step, so the
	// world size is the schedule the exchange ran on.
	global.Scale(1 / float64(t.Size()))
	t.cfg.Optimizer.Step(t.cfg.Task.Params(), global, step)
	// The reduced sum is a pool lease and has been fully applied: recycle it
	// so every training step reuses the same result buffer.
	tensor.PutVector(global)
	res.Sum = nil
	return loss, res, nil
}

// stepOverlapped is the bucketed path: the backward pass announces each
// bucket as its gradients settle, the bucket is submitted immediately (its
// reduction rides under the rest of backprop and the modelled compute
// sleeps), and results are averaged and applied per bucket in submission
// order. The modelled imbalance sleeps run after the local compute as on the
// serial path — by then the buckets are already in flight, which is exactly
// the overlap being modelled.
func (t *Trainer) stepOverlapped(ctx context.Context, step int) (float64, collective.Result, error) {
	bk := t.bucket
	if err := bk.reducer.BeginStep(ctx, bk.plan.lens); err != nil {
		return 0, collective.Result{}, fmt.Errorf("core: step %d begin: %w", step, err)
	}
	bk.handles = bk.handles[:0]
	bk.remaining = append(bk.remaining[:0], bk.plan.segsPerBucket...)
	bk.ctx, bk.submitErr = ctx, nil
	loss := bk.task.ComputeGradientBuckets(step, bk.onSegment)
	submitErr := bk.submitErr
	bk.ctx = nil // hold no step's context past it
	t.sleepImbalance(step)

	var applyErr error
	if submitErr == nil {
		inv := 1 / float64(t.Size())
		for _, h := range bk.handles {
			sum, err := h.Wait(ctx)
			if err != nil {
				applyErr = err
				break
			}
			sum.Scale(inv)
			t.cfg.Optimizer.StepSegment(t.cfg.Task.Params(), sum, h.Offset(), step)
			tensor.PutVector(sum)
		}
	}
	// WaitStep always runs: it is the step's cleanup point (unclaimed bucket
	// results are released there) and its accounting source.
	res, waitErr := bk.reducer.WaitStep(ctx)
	switch {
	case submitErr != nil:
		return 0, collective.Result{}, fmt.Errorf("core: step %d submit: %w", step, submitErr)
	case applyErr != nil:
		return 0, collective.Result{}, fmt.Errorf("core: step %d exchange: %w", step, applyErr)
	case waitErr != nil:
		return 0, collective.Result{}, fmt.Errorf("core: step %d exchange: %w", step, waitErr)
	}
	return loss, res, nil
}

// SyncModel averages the model replicas across all ranks (a synchronous
// collective; every rank must call it at the same step). It runs through the
// exchanger's collective.ParamSyncer, so it covers the current epoch's
// members, passes the drain barrier like any reduction, and runs over the
// epoch's communicator. With the reducer's collective.WithPeerDeadline it
// aborts with an error wrapping collective.ErrRankUnreachable instead of
// blocking on a dead rank.
func (t *Trainer) SyncModel() error {
	ps, ok := t.cfg.Exchanger.(collective.ParamSyncer)
	if !ok {
		return fmt.Errorf("core: model sync needs an exchanger that implements collective.ParamSyncer (have %T)", t.cfg.Exchanger)
	}
	_, err := ps.SyncParams(t.cfg.Task.Params())
	return err
}

// SetParams overwrites the model replica with vals — how a joiner admitted to
// an elastic world mid-run adopts the parameters handed to it at the epoch
// boundary (collective.Node.InitialState).
func (t *Trainer) SetParams(vals []float64) error {
	params := t.cfg.Task.Params()
	if len(vals) != len(params) {
		return fmt.Errorf("core: SetParams got %d values for a %d-parameter model", len(vals), len(params))
	}
	copy(params, vals)
	return nil
}

// Steps returns how many steps the trainer has executed.
func (t *Trainer) Steps() int { return t.step }

// Name describes the trainer variant.
func (t *Trainer) Name() string { return collective.ReducerName(t.cfg.Exchanger) }

// Close releases the exchanger.
func (t *Trainer) Close() { t.cfg.Exchanger.Close() }
