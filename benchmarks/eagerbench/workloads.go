package main

import (
	"fmt"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/data"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
)

// ranks is the world size of every workload and every ladder rung.
const ranks = 4

// syncEvery is the eager variants' model synchronisation period (§5).
const syncEvery = 25

// evalFraction mirrors train's held-out share, so the benchmark's datasets
// split exactly where train.Run's do (the parity test depends on it).
const evalFraction = 0.125

// variant is one distributed SGD algorithm under comparison.
type variant struct {
	name      string
	mode      collective.Mode
	syncEvery int
}

var variants = []variant{
	{name: "sync", mode: collective.Sync},
	{name: "solo", mode: collective.Solo, syncEvery: syncEvery},
	{name: "majority", mode: collective.Majority, syncEvery: syncEvery},
}

// prepared is one run's generated inputs: the per-rank task builder and, for
// inherently imbalanced workloads, the cost model and the batch sizes it is
// charged on.
type prepared struct {
	task func(rank, size int) core.BucketedTask
	cost *imbalance.SequenceCostModel
	// units returns the step's workload units (frames) for the rank; nil when
	// every batch costs the same.
	units func(rank, size, step int) int
}

// workload is one row of the benchmark: model, data, transport, imbalance and
// the constants of its measurement protocol.
type workload struct {
	name string
	why  string

	transport  collective.Transport
	overlap    bool
	clockScale float64
	baseStepMs float64
	lr         float64
	injector   func(size int) imbalance.Injector // nil: no injected delay
	prepare    func(seed int64) *prepared

	// steps per run and the evaluation period. steps*ranks >= 220 keeps at
	// least ten samples beyond the p95 of a traced run.
	steps, evalEvery int
	// target is the held-out loss time_to_target_s is measured against, set so
	// sync crosses it at 40-60% of a run; ceiling is the final held-out loss
	// every variant must reach ("without losing accuracy").
	target, ceiling float64
}

func (w *workload) clock() imbalance.Clock { return imbalance.ScaledClock(w.clockScale) }

func (w *workload) inject(size int) imbalance.Injector {
	if w.injector == nil {
		return imbalance.None{}
	}
	return w.injector(size)
}

func (w *workload) worldOptions(port int) []collective.Option {
	return []collective.Option{collective.WithTransport(w.transport), collective.WithBasePort(port)}
}

// paperMs is the modelled delay of the rank at the step in paper
// milliseconds: base compute, the sequence cost model and the injector — the
// schedule sleepImbalance replays inside a training step.
func (w *workload) paperMs(p *prepared, inj imbalance.Injector, rank, size, step int) float64 {
	ms := w.baseStepMs + inj.Delay(step, rank)
	if p.cost != nil {
		if u := p.units(rank, size, step); u > 0 {
			ms += p.cost.Runtime(u)
		}
	}
	return ms
}

var workloads = []*workload{
	{
		name: "skew-severe",
		why:  "Fig. 12 severe injected skew on a 64Ki-element MLP over shm: steps are straggler wait, so partial collectives decide the result and the wire barely matters",

		transport: collective.Shm, clockScale: 0.02, baseStepMs: 100, lr: 0.1,
		injector: func(size int) imbalance.Injector {
			return imbalance.ShiftedSevere{Size: size, MinMs: 50, MaxMs: 400}
		},
		prepare: func(seed int64) *prepared {
			return images(imagesConfig{classes: 16, dim: 256, hidden: 240, samples: 512, batch: 8}, seed)
		},
		steps: 90, evalEvery: 5, target: 0.015, ceiling: 0.012,
	},
	{
		name: "inherent-lstm",
		why:  "Fig. 13 inherent imbalance: variable-length video batches through an LSTM, so real recurrent compute shares the step with straggler wait and stale gradients must pay in time to target",

		transport: collective.Shm, clockScale: 0.1, lr: 0.08,
		prepare: func(seed int64) *prepared {
			return video(videoConfig{classes: 5, featDim: 16, hidden: 64, samples: 600, batch: 4}, seed)
		},
		steps: 56, evalEvery: 8, target: 0.3, ceiling: 0.2,
	},
	{
		name: "balanced-large",
		why:  "no imbalance, 256Ki-element gradients over TCP with bucketed overlap: bandwidth-bound, prices kernels, the pipelined ring, the TCP codec and the partial collectives' overhead at large payloads",

		transport: collective.TCP, overlap: true, clockScale: 0.02, baseStepMs: 400, lr: 0.01,
		prepare: func(seed int64) *prepared {
			return images(imagesConfig{classes: 16, dim: 499, hidden: 508, samples: 256, batch: 1}, seed)
		},
		steps: 80, evalEvery: 10, target: 0.15, ceiling: 0.08,
	},
	{
		name: "balanced-small",
		why:  "no imbalance, 1Ki-element gradients in process: latency-bound, per-message and per-round overhead is all of the step that is not the 5 ms of modelled compute, and bytes are irrelevant",

		transport: collective.Inproc, clockScale: 0.02, baseStepMs: 250, lr: 0.2,
		prepare: func(seed int64) *prepared {
			return hyperplane(hyperplaneConfig{dim: 1023, samples: 2048, batch: 16, noise: 0.05}, seed)
		},
		steps: 240, evalEvery: 20, target: 1, ceiling: 0.2,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The generators below repeat train's unexported Workload.prepare with the
// same seed offsets, split and layer shapes; TestBuildMatchesTrainRun holds
// the two together.

type hyperplaneConfig struct {
	dim, samples, batch int
	noise               float64
}

func hyperplane(cfg hyperplaneConfig, seed int64) *prepared {
	full := data.Hyperplane(cfg.dim, cfg.samples, cfg.noise, seed+10)
	cut := cfg.samples - int(float64(cfg.samples)*evalFraction)
	train := &data.RegressionDataset{Inputs: full.Inputs[:cut], Targets: full.Targets[:cut], Coefficients: full.Coefficients}
	eval := &data.RegressionDataset{Inputs: full.Inputs[cut:], Targets: full.Targets[cut:], Coefficients: full.Coefficients}
	return &prepared{task: func(rank, size int) core.BucketedTask {
		net := nn.NewNetwork(nn.MSE{}, nn.NewDense(cfg.dim, 1))
		return core.NewRegressionTask("hyperplane", net, train, eval, cfg.batch, rank, size, seed+11)
	}}
}

type imagesConfig struct {
	classes, dim, hidden, samples, batch int
}

func images(cfg imagesConfig, seed int64) *prepared {
	full := data.Blobs(cfg.classes, cfg.dim, cfg.samples/cfg.classes, 0.6, seed+20)
	cut := full.Len() - int(float64(full.Len())*evalFraction)
	train := &data.ClassificationDataset{Inputs: full.Inputs[:cut], Labels: full.Labels[:cut], Classes: cfg.classes}
	eval := &data.ClassificationDataset{Inputs: full.Inputs[cut:], Labels: full.Labels[cut:], Classes: cfg.classes}
	return &prepared{task: func(rank, size int) core.BucketedTask {
		net := nn.NewNetwork(nn.SoftmaxCrossEntropy{},
			nn.NewDense(cfg.dim, cfg.hidden), nn.NewTanh(cfg.hidden), nn.NewDense(cfg.hidden, cfg.classes))
		return core.NewClassificationTask("images", net, train, eval, cfg.batch, rank, size, seed+21)
	}}
}

type videoConfig struct {
	classes, featDim, hidden, samples, batch int
}

func video(cfg videoConfig, seed int64) *prepared {
	full := data.Sequences(data.SequenceConfig{
		Classes: cfg.classes, FeatDim: cfg.featDim, Samples: cfg.samples, Noise: 0.3,
		Lengths: data.UCF101LengthDistribution{MinFrames: 5, MaxFrames: 60, Median: 14, Sigma: 0.5},
		Seed:    seed + 40,
	})
	cut := cfg.samples - int(float64(cfg.samples)*evalFraction)
	train := &data.SequenceDataset{Sequences: full.Sequences[:cut], Labels: full.Labels[:cut], Classes: cfg.classes, FeatDim: cfg.featDim}
	eval := &data.SequenceDataset{Sequences: full.Sequences[cut:], Labels: full.Labels[cut:], Classes: cfg.classes, FeatDim: cfg.featDim}
	return &prepared{
		task: func(rank, size int) core.BucketedTask {
			model := nn.NewLSTMClassifier(cfg.featDim, cfg.hidden, cfg.classes)
			return core.NewSequenceTask("video-lstm", model, train, eval, cfg.batch, rank, size, seed+41)
		},
		cost: &imbalance.SequenceCostModel{BaseMs: 20, PerUnitMs: 2},
		units: func(rank, size, step int) int {
			frames := 0
			for _, j := range data.NewBatchSampler(train.Len(), cfg.batch, rank, size, seed+41).At(step) {
				frames += len(train.Sequences[j])
			}
			return frames
		},
	}
}

// build returns the core.RunConfig.Build function for the variant: data ->
// task -> Node.Reducer -> core.NewTrainer, wired exactly as train.Run wires
// them. tr, when non-nil, decorates each rank's task, reducer, optimizer and
// injector with its span recorders.
func (w *workload) build(p *prepared, v variant, seed int64, tr *runTrace) func(int, *collective.Node) (*core.Trainer, error) {
	return func(rank int, n *collective.Node) (*core.Trainer, error) {
		var task core.BucketedTask = p.task(rank, n.Size())
		opts := []collective.Option{collective.WithSeed(seed), collective.WithMode(v.mode)}
		if w.overlap {
			opts = append(opts, collective.WithOverlap(), collective.WithBucketLayout(core.BucketLayout(task, 0)...))
		}
		red, err := n.Reducer(task.NumParams(), opts...)
		if err != nil {
			return nil, err
		}
		var opt optimizer.Optimizer = optimizer.NewSGD(w.lr)
		inj := w.inject(n.Size())
		if tr != nil {
			rt := tr.ranks[rank]
			task, opt, inj = tracedTask{task, rt}, tracedOptimizer{opt, rt}, tracedInjector{inj, rt}
			if !w.overlap {
				// collective.OverlapSettings reads an unexported method, so a
				// decorated reducer would silently drop the trainer onto the
				// serial path; overlapped runs keep the bare reducer and
				// derive their exchange spans from the other seams.
				red = tracedReducer{red.(elasticReducer), rt}
			}
		}
		return core.NewTrainer(core.Config{
			Node:            n,
			Task:            task,
			Exchanger:       red,
			Optimizer:       opt,
			Injector:        inj,
			Clock:           w.clock(),
			BaseStepPaperMs: w.baseStepMs,
			CostModel:       p.cost,
			SyncEverySteps:  v.syncEvery,
		})
	}
}
