package harness

import (
	"fmt"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/data"
	"eagersgd/internal/faults"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/trace"
)

// Synchronous baseline styles (§3), mapped onto collective reducer options.
const (
	styleDeep500 = "deep500" // ordered chunked reductions (DAG control deps)
	styleHorovod = "horovod" // negotiation round, then one fused allreduce
)

// variant describes one SGD implementation under comparison. Reducers for a
// variant are constructed through the public collective seam, so the harness
// exercises exactly the configuration surface users see.
type variant struct {
	name      string              // display name, e.g. "synch-SGD (deep500)"
	key       string              // report-value key, e.g. "synch-deep500"
	eager     bool                // eager variants diverge and need model sync
	opts      []collective.Option // reducer construction options
	syncEvery int                 // model synchronization period for eager variants
}

func synchVariant(style string) variant {
	opts := []collective.Option{collective.WithMode(collective.Sync)}
	if style == styleHorovod {
		opts = append(opts, collective.WithNegotiation())
	} else {
		opts = append(opts, collective.WithChunks(4))
	}
	return variant{name: "synch-SGD (" + style + ")", key: "synch-" + style, opts: opts}
}

func eagerVariant(mode collective.Mode, syncEvery int) variant {
	return variant{
		name:      fmt.Sprintf("eager-SGD (%s)", mode),
		key:       "eager-" + mode.String(),
		eager:     true,
		opts:      []collective.Option{collective.WithMode(mode)},
		syncEvery: syncEvery,
	}
}

// trainingSpec bundles everything needed to run one distributed training
// configuration.
type trainingSpec struct {
	name         string
	size         int
	steps        int
	evalEvery    int
	lr           float64
	baseMs       float64
	costModel    *imbalance.SequenceCostModel
	injector     imbalance.Injector
	clock        imbalance.Clock
	seed         int64
	overlap      bool // bucketed overlapped exchange (Config.Overlap)
	bucketElems  int
	faults       *faults.Scenario // fault-injection scenario (Config.Faults)
	peerDeadline time.Duration    // failure-detector deadline (Config.PeerDeadline)
	buildTask    func(rank, size int) core.Task
}

// runVariant executes the spec with the given SGD variant and returns the
// run result.
func runVariant(spec trainingSpec, v variant) (*core.RunResult, error) {
	var worldOpts []collective.Option
	if spec.faults != nil {
		worldOpts = append(worldOpts, collective.WithFaults(*spec.faults))
	}
	return core.Run(core.RunConfig{
		Name:           fmt.Sprintf("%s %s", spec.name, v.name),
		Size:           spec.size,
		Steps:          spec.steps,
		EvalEverySteps: spec.evalEvery,
		FinalSync:      true,
		WorldOptions:   worldOpts,
		Build: func(rank int, n *collective.Node) (*core.Trainer, error) {
			return core.BuildTrainer(n, core.Config{
				Task:            spec.buildTask(rank, spec.size),
				Optimizer:       optimizer.NewSGD(spec.lr),
				Injector:        spec.injector,
				Clock:           spec.clock,
				BaseStepPaperMs: spec.baseMs,
				CostModel:       spec.costModel,
				SyncEverySteps:  v.syncEvery, // zero for the synchronous variants
				PeerDeadline:    spec.peerDeadline,
			}, spec.seed, v.opts, spec.overlap, spec.bucketElems)
		},
	})
}

// splitRegression splits a generated dataset into train and eval portions
// sharing the same ground truth.
func splitRegression(full *data.RegressionDataset, evalFraction float64) (*data.RegressionDataset, *data.RegressionDataset) {
	n := full.Len()
	cut := n - int(float64(n)*evalFraction)
	train := &data.RegressionDataset{Inputs: full.Inputs[:cut], Targets: full.Targets[:cut], Coefficients: full.Coefficients}
	eval := &data.RegressionDataset{Inputs: full.Inputs[cut:], Targets: full.Targets[cut:], Coefficients: full.Coefficients}
	return train, eval
}

// splitClassification splits a generated dataset into train and eval
// portions.
func splitClassification(full *data.ClassificationDataset, evalFraction float64) (*data.ClassificationDataset, *data.ClassificationDataset) {
	n := full.Len()
	cut := n - int(float64(n)*evalFraction)
	train := &data.ClassificationDataset{Inputs: full.Inputs[:cut], Labels: full.Labels[:cut], Classes: full.Classes}
	eval := &data.ClassificationDataset{Inputs: full.Inputs[cut:], Labels: full.Labels[cut:], Classes: full.Classes}
	return train, eval
}

// splitSequences splits a generated sequence dataset into train and eval
// portions.
func splitSequences(full *data.SequenceDataset, evalFraction float64) (*data.SequenceDataset, *data.SequenceDataset) {
	n := full.Len()
	cut := n - int(float64(n)*evalFraction)
	train := &data.SequenceDataset{Sequences: full.Sequences[:cut], Labels: full.Labels[:cut], Classes: full.Classes, FeatDim: full.FeatDim}
	eval := &data.SequenceDataset{Sequences: full.Sequences[cut:], Labels: full.Labels[cut:], Classes: full.Classes, FeatDim: full.FeatDim}
	return train, eval
}

// Fig10Hyperplane reproduces Fig. 10: hyperplane regression on 8 processes
// with 200/300/400 ms delays injected on one random rank per step, comparing
// synch-SGD (Deep500-style) against eager-SGD with solo allreduce, plus a
// majority data point (the text of §6.2.1 compares solo and majority
// throughput).
func Fig10Hyperplane(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig10", "Hyperplane regression: throughput and validation loss under light imbalance")
	clock := imbalance.ScaledClock(p.fig10Clock)

	full := data.Hyperplane(p.fig10Dim, p.fig10Samples, 0.05, cfg.Seed+10)
	train, eval := splitRegression(full, 0.125)
	buildTask := func(rank, size int) core.Task {
		net := nn.NewNetwork(nn.MSE{}, nn.NewDense(p.fig10Dim, 1))
		return core.NewRegressionTask("hyperplane", net, train, eval, p.fig10Batch, rank, size, cfg.Seed+11)
	}

	table := trace.NewTable(
		fmt.Sprintf("Fig. 10 — hyperplane regression, %d processes, batch %d/rank, %d steps (clock scale %g)",
			p.fig10Procs, p.fig10Batch, p.fig10Steps, p.fig10Clock),
		"injection ms", "variant", "throughput steps/s", "training time s", "final val loss", "speedup vs synch")

	for _, inj := range p.fig10Injections {
		spec := trainingSpec{
			name: fmt.Sprintf("fig10-%.0fms", inj), size: p.fig10Procs, steps: p.fig10Steps,
			evalEvery: p.evalEvery, lr: p.fig10LR, baseMs: p.fig10BaseMs,
			injector: imbalance.RandomSubset{Size: p.fig10Procs, K: 1, Amount: inj, Seed: cfg.Seed + int64(inj)},
			clock:    clock, seed: cfg.Seed, overlap: cfg.Overlap, bucketElems: cfg.BucketElems, faults: cfg.Faults, peerDeadline: cfg.PeerDeadline, buildTask: buildTask,
		}

		variants := []variant{
			synchVariant(styleDeep500),
			eagerVariant(collective.Solo, p.syncEvery),
		}
		if inj == p.fig10Injections[0] {
			// The paper reports one majority data point for the lightest
			// injection (solo 1.64 vs majority 1.37 steps/s at 200 ms).
			variants = append(variants, eagerVariant(collective.Majority, p.syncEvery))
		}

		var synchThroughput float64
		for _, v := range variants {
			res, err := runVariant(spec, v)
			if err != nil {
				return nil, err
			}
			speedup := 0.0
			if !v.eager {
				synchThroughput = res.Throughput
				speedup = 1
			} else if synchThroughput > 0 {
				speedup = res.Throughput / synchThroughput
			}
			key := fmt.Sprintf("%s/%.0f", shortName(v), inj)
			r.Values["throughput/"+key] = res.Throughput
			r.Values["loss/"+key] = res.Final.Loss
			r.Values["speedup/"+key] = speedup
			table.AddRow(inj, v.name, res.Throughput, res.TrainingTime.Seconds(), res.Final.Loss, speedup)
			res.EvalLoss.Name = fmt.Sprintf("%s-%.0fms val-loss", v.name, inj)
			r.Curves = append(r.Curves, res.EvalLoss)
		}
	}
	r.Tables = append(r.Tables, table)
	r.addNote("eager-SGD (solo) sustains its throughput as the injection grows while synch-SGD degrades (paper: 1.50x/1.75x/2.01x at 200/300/400 ms)")
	r.addNote("validation losses converge to equivalent values for synch and eager (paper: both reach ~4.7)")
	return r, nil
}

func shortName(v variant) string { return v.key }

// Fig11ImageNetLight reproduces Fig. 11: an ImageNet-scale classification
// stand-in on 64 processes with 4 random ranks delayed by 300/460 ms per
// step, comparing Deep500- and Horovod-style synch-SGD against eager-SGD
// (solo): throughput (11a) and top-1 accuracy over training time (11b/11c).
func Fig11ImageNetLight(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig11", "ImageNet-like classification under light imbalance")
	clock := imbalance.ScaledClock(p.fig11Clock)

	full := data.Blobs(p.fig11Classes, p.fig11Dim, p.fig11Samples/p.fig11Classes, 1.5, cfg.Seed+20)
	train, eval := splitClassification(full, 0.15)
	buildTask := func(rank, size int) core.Task {
		net := nn.NewNetwork(nn.SoftmaxCrossEntropy{},
			nn.NewDense(p.fig11Dim, p.fig11Hidden), nn.NewTanh(p.fig11Hidden), nn.NewDense(p.fig11Hidden, p.fig11Classes))
		return core.NewClassificationTask("imagenet-like", net, train, eval, p.fig11Batch, rank, size, cfg.Seed+21)
	}

	table := trace.NewTable(
		fmt.Sprintf("Fig. 11 — ImageNet-like classification, %d processes, %d of them delayed per step (clock scale %g)",
			p.fig11Procs, p.fig11InjectedK, p.fig11Clock),
		"injection ms", "variant", "throughput steps/s", "training time s", "final top-1", "final top-5", "speedup vs deep500")

	for _, inj := range p.fig11Injections {
		spec := trainingSpec{
			name: fmt.Sprintf("fig11-%.0fms", inj), size: p.fig11Procs, steps: p.fig11Steps,
			evalEvery: p.evalEvery, lr: p.fig11LR, baseMs: p.fig11BaseMs,
			injector: imbalance.RandomSubset{Size: p.fig11Procs, K: p.fig11InjectedK, Amount: inj, Seed: cfg.Seed + int64(inj)},
			clock:    clock, seed: cfg.Seed, overlap: cfg.Overlap, bucketElems: cfg.BucketElems, faults: cfg.Faults, peerDeadline: cfg.PeerDeadline, buildTask: buildTask,
		}
		variants := []variant{
			synchVariant(styleDeep500),
			synchVariant(styleHorovod),
			eagerVariant(collective.Solo, p.syncEvery),
		}
		var deep500Throughput float64
		for _, v := range variants {
			res, err := runVariant(spec, v)
			if err != nil {
				return nil, err
			}
			speedup := 0.0
			if v.key == "synch-"+styleDeep500 {
				deep500Throughput = res.Throughput
				speedup = 1
			} else if deep500Throughput > 0 {
				speedup = res.Throughput / deep500Throughput
			}
			key := fmt.Sprintf("%s/%.0f", shortName(v), inj)
			r.Values["throughput/"+key] = res.Throughput
			r.Values["top1/"+key] = res.Final.Top1
			r.Values["speedup/"+key] = speedup
			table.AddRow(inj, v.name, res.Throughput, res.TrainingTime.Seconds(), res.Final.Top1, res.Final.Top5, speedup)
			res.EvalTop1.Name = fmt.Sprintf("%s-%.0fms top-1", v.name, inj)
			r.Curves = append(r.Curves, res.EvalTop1)
		}
	}
	r.Tables = append(r.Tables, table)
	r.addNote("eager-SGD (solo) improves throughput over both synch-SGD baselines while final top-1 accuracy stays equivalent (paper: 1.14-1.25x speedup, 75.2%% vs 75.7/75.8%% top-1)")
	return r, nil
}

// Fig12CifarSevere reproduces Fig. 12: a CIFAR-scale classification stand-in
// on 8 processes under severe, shifting skew (all ranks delayed 50–400 ms),
// comparing synch-SGD (Horovod-style) against eager-SGD with solo and
// majority allreduce. Solo trains fastest but loses accuracy; majority keeps
// synch-level accuracy with a speedup.
func Fig12CifarSevere(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig12", "CIFAR-like classification under severe imbalance")
	clock := imbalance.ScaledClock(p.fig12Clock)

	full := data.Blobs(p.fig12Classes, p.fig12Dim, p.fig12Samples/p.fig12Classes, 1.6, cfg.Seed+30)
	train, eval := splitClassification(full, 0.15)
	buildTask := func(rank, size int) core.Task {
		net := nn.NewNetwork(nn.SoftmaxCrossEntropy{},
			nn.NewDense(p.fig12Dim, p.fig12Hidden), nn.NewTanh(p.fig12Hidden), nn.NewDense(p.fig12Hidden, p.fig12Classes))
		return core.NewClassificationTask("cifar-like", net, train, eval, p.fig12Batch, rank, size, cfg.Seed+31)
	}
	spec := trainingSpec{
		name: "fig12", size: p.fig12Procs, steps: p.fig12Steps,
		evalEvery: p.evalEvery, lr: p.fig12LR, baseMs: p.fig12BaseMs,
		injector: imbalance.ShiftedSevere{Size: p.fig12Procs, MinMs: p.fig12MinMs, MaxMs: p.fig12MaxMs},
		clock:    clock, seed: cfg.Seed, overlap: cfg.Overlap, bucketElems: cfg.BucketElems, faults: cfg.Faults, peerDeadline: cfg.PeerDeadline, buildTask: buildTask,
	}

	table := trace.NewTable(
		fmt.Sprintf("Fig. 12 — CIFAR-like classification, %d processes, all ranks skewed %g–%g ms shifted per step (clock scale %g)",
			p.fig12Procs, p.fig12MinMs, p.fig12MaxMs, p.fig12Clock),
		"variant", "throughput steps/s", "training time s", "final top-1", "final top-5", "speedup vs synch")

	variants := []variant{
		synchVariant(styleHorovod),
		eagerVariant(collective.Solo, p.syncEvery),
		eagerVariant(collective.Majority, p.syncEvery),
	}
	var synchThroughput float64
	for _, v := range variants {
		res, err := runVariant(spec, v)
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if !v.eager {
			synchThroughput = res.Throughput
			speedup = 1
		} else if synchThroughput > 0 {
			speedup = res.Throughput / synchThroughput
		}
		key := shortName(v)
		r.Values["throughput/"+key] = res.Throughput
		r.Values["top1/"+key] = res.Final.Top1
		r.Values["speedup/"+key] = speedup
		table.AddRow(v.name, res.Throughput, res.TrainingTime.Seconds(), res.Final.Top1, res.Final.Top5, speedup)
		res.EvalTop1.Name = v.name + " top-1"
		r.Curves = append(r.Curves, res.EvalTop1)
	}
	r.Tables = append(r.Tables, table)
	r.addNote("under severe skew solo allreduce trains fastest but loses accuracy; majority allreduce keeps synch-level accuracy with a speedup (paper: 1.29x at equal accuracy, solo noticeably lower)")
	return r, nil
}

// Fig13VideoLSTM reproduces Fig. 13: LSTM video classification with inherent
// load imbalance from variable-length sequences (no injected delays),
// comparing synch-SGD (Horovod-style) against eager-SGD with solo and
// majority allreduce.
func Fig13VideoLSTM(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig13", "Video LSTM classification under inherent imbalance")
	clock := imbalance.ScaledClock(p.fig13Clock)

	full := data.Sequences(data.SequenceConfig{
		Classes: p.fig13Classes, FeatDim: p.fig13FeatDim, Samples: p.fig13Samples, Noise: 1.0,
		Lengths: data.UCF101LengthDistribution{MinFrames: p.fig13MinLen, MaxFrames: p.fig13MaxLen, Median: p.fig13MedianLen, Sigma: 0.5},
		Seed:    cfg.Seed + 40,
	})
	train, eval := splitSequences(full, 0.15)
	costModel := &imbalance.SequenceCostModel{BaseMs: 20, PerUnitMs: p.fig13PerUnitMs}
	buildTask := func(rank, size int) core.Task {
		model := nn.NewLSTMClassifier(p.fig13FeatDim, p.fig13Hidden, p.fig13Classes)
		return core.NewSequenceTask("video-lstm", model, train, eval, p.fig13Batch, rank, size, cfg.Seed+41)
	}
	spec := trainingSpec{
		name: "fig13", size: p.fig13Procs, steps: p.fig13Steps,
		evalEvery: p.evalEvery, lr: p.fig13LR, baseMs: 0, costModel: costModel,
		injector: imbalance.None{}, clock: clock, seed: cfg.Seed, overlap: cfg.Overlap, bucketElems: cfg.BucketElems, faults: cfg.Faults, peerDeadline: cfg.PeerDeadline, buildTask: buildTask,
	}

	table := trace.NewTable(
		fmt.Sprintf("Fig. 13 — video LSTM, %d processes, inherent imbalance from sequence lengths %d–%d frames (clock scale %g)",
			p.fig13Procs, p.fig13MinLen, p.fig13MaxLen, p.fig13Clock),
		"variant", "throughput steps/s", "training time s", "final top-1", "final top-5", "speedup vs synch")

	variants := []variant{
		synchVariant(styleHorovod),
		eagerVariant(collective.Solo, p.syncEvery),
		eagerVariant(collective.Majority, p.syncEvery),
	}
	var synchThroughput float64
	for _, v := range variants {
		res, err := runVariant(spec, v)
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if !v.eager {
			synchThroughput = res.Throughput
			speedup = 1
		} else if synchThroughput > 0 {
			speedup = res.Throughput / synchThroughput
		}
		key := shortName(v)
		r.Values["throughput/"+key] = res.Throughput
		r.Values["top1/"+key] = res.Final.Top1
		r.Values["top5/"+key] = res.Final.Top5
		r.Values["speedup/"+key] = speedup
		table.AddRow(v.name, res.Throughput, res.TrainingTime.Seconds(), res.Final.Top1, res.Final.Top5, speedup)
		res.EvalTop1.Name = v.name + " top-1"
		res.TrainLoss.Name = v.name + " train-loss"
		r.Curves = append(r.Curves, res.EvalTop1, res.TrainLoss)
	}
	r.Tables = append(r.Tables, table)
	r.addNote("majority allreduce matches synch-SGD accuracy with a speedup; solo allreduce is fastest but loses accuracy under the severe inherent imbalance (paper: 1.27x for majority at equal accuracy, 1.64x for solo with lower accuracy)")
	return r, nil
}

// ScalingSummary derives the strong/weak-scaling observations of §6.2–§6.3:
// throughput of a single process versus the distributed variants on the
// hyperplane task.
func ScalingSummary(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("scaling", "Strong/weak scaling summary on the hyperplane task")
	clock := imbalance.ScaledClock(p.fig10Clock)

	full := data.Hyperplane(p.fig10Dim, p.fig10Samples, 0.05, cfg.Seed+50)
	train, eval := splitRegression(full, 0.125)
	buildTask := func(rank, size int) core.Task {
		net := nn.NewNetwork(nn.MSE{}, nn.NewDense(p.fig10Dim, 1))
		return core.NewRegressionTask("hyperplane", net, train, eval, p.fig10Batch, rank, size, cfg.Seed+51)
	}
	steps := p.fig10Steps / 2
	if steps < 10 {
		steps = 10
	}
	inj := p.fig10Injections[0]

	single := trainingSpec{
		name: "scaling-1", size: 1, steps: steps, evalEvery: 0, lr: p.fig10LR,
		baseMs:   p.fig10BaseMs * float64(p.fig10Procs), // one process does the whole global batch
		injector: imbalance.None{}, clock: clock, seed: cfg.Seed, overlap: cfg.Overlap, bucketElems: cfg.BucketElems, faults: cfg.Faults, peerDeadline: cfg.PeerDeadline, buildTask: buildTask,
	}
	singleRes, err := runVariant(single, synchVariant(styleDeep500))
	if err != nil {
		return nil, err
	}

	multi := trainingSpec{
		name: fmt.Sprintf("scaling-%d", p.fig10Procs), size: p.fig10Procs, steps: steps,
		evalEvery: 0, lr: p.fig10LR, baseMs: p.fig10BaseMs,
		injector: imbalance.RandomSubset{Size: p.fig10Procs, K: 1, Amount: inj, Seed: cfg.Seed},
		clock:    clock, seed: cfg.Seed, overlap: cfg.Overlap, bucketElems: cfg.BucketElems, faults: cfg.Faults, peerDeadline: cfg.PeerDeadline, buildTask: buildTask,
	}

	table := trace.NewTable(
		fmt.Sprintf("Strong scaling on %d processes vs 1 process (injection %.0f ms)", p.fig10Procs, inj),
		"configuration", "throughput steps/s", "speedup vs 1 process")
	table.AddRow("1 process (whole batch)", singleRes.Throughput, 1.0)
	r.Values["throughput/single"] = singleRes.Throughput

	for _, v := range []variant{synchVariant(styleDeep500), eagerVariant(collective.Solo, p.syncEvery)} {
		res, err := runVariant(multi, v)
		if err != nil {
			return nil, err
		}
		speedup := res.Throughput / singleRes.Throughput
		table.AddRow(fmt.Sprintf("%d processes, %s", p.fig10Procs, v.name), res.Throughput, speedup)
		r.Values["speedup/"+shortName(v)] = speedup
	}
	r.Tables = append(r.Tables, table)
	r.addNote("eager-SGD retains more of the ideal strong-scaling speedup than synch-SGD under injected imbalance (paper: 3.8x vs lower for synch on 8 GPUs at 400 ms injection)")
	return r, nil
}

// QuorumSpectrum is the §8 extension experiment: the quorum allreduce
// interpolates between majority (1 candidate initiator) and solo (P
// candidates); more candidates mean lower latency but fewer fresh gradients
// per round.
func QuorumSpectrum(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("quorum", "Quorum spectrum between solo, majority, and full collectives")
	clock := imbalance.ScaledClock(p.fig10Clock)
	size := p.fig10Procs
	steps := p.fig10Steps / 2
	if steps < 10 {
		steps = 10
	}

	full := data.Hyperplane(p.fig10Dim, p.fig10Samples, 0.05, cfg.Seed+60)
	train, eval := splitRegression(full, 0.125)
	buildTask := func(rank, sz int) core.Task {
		net := nn.NewNetwork(nn.MSE{}, nn.NewDense(p.fig10Dim, 1))
		return core.NewRegressionTask("hyperplane", net, train, eval, p.fig10Batch, rank, sz, cfg.Seed+61)
	}
	spec := trainingSpec{
		name: "quorum", size: size, steps: steps, lr: p.fig10LR, baseMs: p.fig10BaseMs / 2,
		injector: imbalance.LinearSkew{StepMs: 100}, clock: clock, seed: cfg.Seed,
		overlap: cfg.Overlap, bucketElems: cfg.BucketElems, faults: cfg.Faults, peerDeadline: cfg.PeerDeadline, buildTask: buildTask,
	}

	table := trace.NewTable(
		fmt.Sprintf("Quorum spectrum on %d processes under linear skew (clock scale %g)", size, p.fig10Clock),
		"candidates", "mean active processes", "throughput steps/s", "final val loss")

	candidateCounts := []int{1, 2, size / 2, size}
	for _, cand := range candidateCounts {
		res, err := runVariant(spec, eagerVariant(collective.Quorum(cand), p.syncEvery))
		if err != nil {
			return nil, err
		}
		table.AddRow(cand, res.MeanActiveProcesses, res.Throughput, res.Final.Loss)
		r.Values[fmt.Sprintf("nap/candidates-%d", cand)] = res.MeanActiveProcesses
		r.Values[fmt.Sprintf("throughput/candidates-%d", cand)] = res.Throughput
	}
	r.Tables = append(r.Tables, table)
	r.addNote("expected participation decreases and throughput increases as the candidate count grows from 1 (majority) to P (solo)")
	return r, nil
}
