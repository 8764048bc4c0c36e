package harness

import (
	"fmt"

	"eagersgd/internal/trace"
	"eagersgd/train"
)

// arm is one SGD implementation under comparison: a train.Variant and the key
// its results carry in Report.Values.
type arm struct {
	key string
	v   train.Variant
}

// The synchronous baselines of §3 and the eager variants of §4.
func deep500() arm          { return arm{"synch-deep500", train.SynchDeep500()} }
func horovod() arm          { return arm{"synch-horovod", train.SynchHorovod()} }
func solo(p params) arm     { return arm{"eager-solo", train.EagerSolo(p.syncEvery)} }
func majority(p params) arm { return arm{"eager-majority", train.EagerMajority(p.syncEvery)} }

// compare runs spec once per arm, in order, and hands each result to row with
// its throughput relative to the arm keyed baseline (0 for arms that run
// before it).
func compare(spec train.Spec, arms []arm, baseline string, row func(a arm, res *train.Result, speedup float64)) error {
	var base float64
	for _, a := range arms {
		spec.Variant = a.v
		res, err := train.Run(spec)
		if err != nil {
			return err
		}
		if a.key == baseline {
			base = res.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = res.Throughput / base
		}
		row(a, res, speedup)
	}
	return nil
}

// hyperplane is the Fig. 10 workload, shared with the scaling summary and the
// quorum spectrum.
func (p params) hyperplane() train.Workload {
	return train.Hyperplane(train.HyperplaneConfig{Dim: p.fig10Dim, Samples: p.fig10Samples, Batch: p.fig10Batch})
}

// halfFig10Steps is the run length of the two experiments derived from Fig. 10.
func (p params) halfFig10Steps() int {
	if p.fig10Steps < 20 {
		return 10
	}
	return p.fig10Steps / 2
}

// Fig10Hyperplane reproduces Fig. 10: hyperplane regression on 8 processes
// with 200/300/400 ms delays injected on one random rank per step, comparing
// synch-SGD (Deep500-style) against eager-SGD with solo allreduce, plus a
// majority data point (the text of §6.2.1 compares solo and majority
// throughput).
func Fig10Hyperplane(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig10", "Hyperplane regression: throughput and validation loss under light imbalance")
	table := trace.NewTable(
		fmt.Sprintf("Fig. 10 — hyperplane regression, %d processes, batch %d/rank, %d steps (clock scale %g)",
			p.fig10Procs, p.fig10Batch, p.fig10Steps, p.fig10Clock),
		"injection ms", "variant", "throughput steps/s", "training time s", "final val loss", "speedup vs synch")

	for _, inj := range p.fig10Injections {
		spec := train.Spec{
			Ranks: p.fig10Procs, Steps: p.fig10Steps, EvalEvery: p.evalEvery, Seed: cfg.Seed,
			Workload: p.hyperplane(), LearningRate: p.fig10LR,
			Imbalance: train.RandomDelays(1, inj), BaseStepMs: p.fig10BaseMs, ClockScale: p.fig10Clock,
		}
		arms := []arm{deep500(), solo(p)}
		if inj == p.fig10Injections[0] {
			// The paper reports one majority data point for the lightest
			// injection (solo 1.64 vs majority 1.37 steps/s at 200 ms).
			arms = append(arms, majority(p))
		}
		err := compare(spec, arms, "synch-deep500", func(a arm, res *train.Result, speedup float64) {
			key := fmt.Sprintf("%s/%.0f", a.key, inj)
			r.Values["throughput/"+key] = res.Throughput
			r.Values["loss/"+key] = res.Loss
			r.Values["speedup/"+key] = speedup
			table.AddRow(inj, a.v.Name, res.Throughput, res.TrainingTime.Seconds(), res.Loss, speedup)
			res.EvalLoss.Name = fmt.Sprintf("%s-%.0fms val-loss", a.v.Name, inj)
			r.Curves = append(r.Curves, res.EvalLoss)
		})
		if err != nil {
			return nil, err
		}
	}
	r.Tables = append(r.Tables, table)
	r.addNote("eager-SGD (solo) sustains its throughput as the injection grows while synch-SGD degrades (paper: 1.50x/1.75x/2.01x at 200/300/400 ms)")
	r.addNote("validation losses converge to equivalent values for synch and eager (paper: both reach ~4.7)")
	return r, nil
}

// Fig11ImageNetLight reproduces Fig. 11: an ImageNet-scale classification
// stand-in on 64 processes with 4 random ranks delayed by 300/460 ms per
// step, comparing Deep500- and Horovod-style synch-SGD against eager-SGD
// (solo): throughput (11a) and top-1 accuracy over training time (11b/11c).
func Fig11ImageNetLight(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig11", "ImageNet-like classification under light imbalance")
	table := trace.NewTable(
		fmt.Sprintf("Fig. 11 — ImageNet-like classification, %d processes, %d of them delayed per step (clock scale %g)",
			p.fig11Procs, p.fig11InjectedK, p.fig11Clock),
		"injection ms", "variant", "throughput steps/s", "training time s", "final top-1", "final top-5", "speedup vs deep500")

	for _, inj := range p.fig11Injections {
		spec := train.Spec{
			Ranks: p.fig11Procs, Steps: p.fig11Steps, EvalEvery: p.evalEvery, Seed: cfg.Seed,
			Workload: train.Images(train.ImagesConfig{Classes: p.fig11Classes, Dim: p.fig11Dim, Hidden: p.fig11Hidden,
				Samples: p.fig11Samples, Batch: p.fig11Batch, Spread: 1.5}),
			LearningRate: p.fig11LR,
			Imbalance:    train.RandomDelays(p.fig11InjectedK, inj), BaseStepMs: p.fig11BaseMs, ClockScale: p.fig11Clock,
		}
		err := compare(spec, []arm{deep500(), horovod(), solo(p)}, "synch-deep500", func(a arm, res *train.Result, speedup float64) {
			key := fmt.Sprintf("%s/%.0f", a.key, inj)
			r.Values["throughput/"+key] = res.Throughput
			r.Values["top1/"+key] = res.Top1
			r.Values["speedup/"+key] = speedup
			table.AddRow(inj, a.v.Name, res.Throughput, res.TrainingTime.Seconds(), res.Top1, res.Top5, speedup)
			res.EvalTop1.Name = fmt.Sprintf("%s-%.0fms top-1", a.v.Name, inj)
			r.Curves = append(r.Curves, res.EvalTop1)
		})
		if err != nil {
			return nil, err
		}
	}
	r.Tables = append(r.Tables, table)
	r.addNote("eager-SGD (solo) improves throughput over both synch-SGD baselines while final top-1 accuracy stays equivalent (paper: 1.14-1.25x speedup, 75.2%% vs 75.7/75.8%% top-1)")
	return r, nil
}

// accuracyRows is the row callback Figs. 12 and 13 share: one table row, the
// headline values, and the top-1 curve per arm.
func accuracyRows(r *Report, table *trace.Table) func(a arm, res *train.Result, speedup float64) {
	return func(a arm, res *train.Result, speedup float64) {
		r.Values["throughput/"+a.key] = res.Throughput
		r.Values["top1/"+a.key] = res.Top1
		r.Values["top5/"+a.key] = res.Top5
		r.Values["speedup/"+a.key] = speedup
		table.AddRow(a.v.Name, res.Throughput, res.TrainingTime.Seconds(), res.Top1, res.Top5, speedup)
		res.EvalTop1.Name = a.v.Name + " top-1"
		r.Curves = append(r.Curves, res.EvalTop1)
	}
}

// Fig12CifarSevere reproduces Fig. 12: a CIFAR-scale classification stand-in
// on 8 processes under severe, shifting skew (all ranks delayed 50–400 ms),
// comparing synch-SGD (Horovod-style) against eager-SGD with solo and
// majority allreduce. Solo trains fastest but loses accuracy; majority keeps
// synch-level accuracy with a speedup.
func Fig12CifarSevere(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig12", "CIFAR-like classification under severe imbalance")
	table := trace.NewTable(
		fmt.Sprintf("Fig. 12 — CIFAR-like classification, %d processes, all ranks skewed %g–%g ms shifted per step (clock scale %g)",
			p.fig12Procs, p.fig12MinMs, p.fig12MaxMs, p.fig12Clock),
		"variant", "throughput steps/s", "training time s", "final top-1", "final top-5", "speedup vs synch")
	spec := train.Spec{
		Ranks: p.fig12Procs, Steps: p.fig12Steps, EvalEvery: p.evalEvery, Seed: cfg.Seed,
		Workload: train.Images(train.ImagesConfig{Classes: p.fig12Classes, Dim: p.fig12Dim, Hidden: p.fig12Hidden,
			Samples: p.fig12Samples, Batch: p.fig12Batch, Spread: 1.6}),
		LearningRate: p.fig12LR,
		Imbalance:    train.SevereSkew(p.fig12MinMs, p.fig12MaxMs), BaseStepMs: p.fig12BaseMs, ClockScale: p.fig12Clock,
	}
	if err := compare(spec, []arm{horovod(), solo(p), majority(p)}, "synch-horovod", accuracyRows(r, table)); err != nil {
		return nil, err
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
	table := trace.NewTable(
		fmt.Sprintf("Fig. 13 — video LSTM, %d processes, inherent imbalance from sequence lengths %d–%d frames (clock scale %g)",
			p.fig13Procs, p.fig13MinLen, p.fig13MaxLen, p.fig13Clock),
		"variant", "throughput steps/s", "training time s", "final top-1", "final top-5", "speedup vs synch")
	spec := train.Spec{
		Ranks: p.fig13Procs, Steps: p.fig13Steps, EvalEvery: p.evalEvery, Seed: cfg.Seed,
		Workload: train.Video(train.VideoConfig{Classes: p.fig13Classes, FeatDim: p.fig13FeatDim, Hidden: p.fig13Hidden,
			Samples: p.fig13Samples, Batch: p.fig13Batch, Noise: 1.0,
			MinFrames: p.fig13MinLen, MaxFrames: p.fig13MaxLen, MedianFrames: p.fig13MedianLen,
			BaseMs: 20, PerFrameMs: p.fig13PerUnitMs}),
		LearningRate: p.fig13LR, ClockScale: p.fig13Clock,
	}
	rows := accuracyRows(r, table)
	err := compare(spec, []arm{horovod(), solo(p), majority(p)}, "synch-horovod", func(a arm, res *train.Result, speedup float64) {
		rows(a, res, speedup)
		res.TrainLoss.Name = a.v.Name + " train-loss"
		r.Curves = append(r.Curves, res.TrainLoss)
	})
	if err != nil {
		return nil, err
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
	inj := p.fig10Injections[0]
	multi := train.Spec{
		Ranks: p.fig10Procs, Steps: p.halfFig10Steps(), Seed: cfg.Seed,
		Workload: p.hyperplane(), LearningRate: p.fig10LR,
		Imbalance: train.RandomDelays(1, inj), BaseStepMs: p.fig10BaseMs, ClockScale: p.fig10Clock,
	}
	// One process does the whole global batch, undisturbed.
	single := multi
	single.Ranks, single.Imbalance, single.BaseStepMs = 1, train.NoImbalance(), p.fig10BaseMs*float64(p.fig10Procs)
	single.Variant = train.SynchDeep500()
	one, err := train.Run(single)
	if err != nil {
		return nil, err
	}

	table := trace.NewTable(
		fmt.Sprintf("Strong scaling on %d processes vs 1 process (injection %.0f ms)", p.fig10Procs, inj),
		"configuration", "throughput steps/s", "speedup vs 1 process")
	table.AddRow("1 process (whole batch)", one.Throughput, 1.0)
	r.Values["throughput/single"] = one.Throughput
	for _, a := range []arm{deep500(), solo(p)} {
		multi.Variant = a.v
		res, err := train.Run(multi)
		if err != nil {
			return nil, err
		}
		speedup := res.Throughput / one.Throughput
		table.AddRow(fmt.Sprintf("%d processes, %s", p.fig10Procs, a.v.Name), res.Throughput, speedup)
		r.Values["speedup/"+a.key] = speedup
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
	size := p.fig10Procs
	spec := train.Spec{
		Ranks: size, Steps: p.halfFig10Steps(), Seed: cfg.Seed,
		Workload: p.hyperplane(), LearningRate: p.fig10LR,
		Imbalance: train.LinearSkew(100), BaseStepMs: p.fig10BaseMs / 2, ClockScale: p.fig10Clock,
	}
	table := trace.NewTable(
		fmt.Sprintf("Quorum spectrum on %d processes under linear skew (clock scale %g)", size, p.fig10Clock),
		"candidates", "mean active processes", "throughput steps/s", "final val loss")
	for _, cand := range []int{1, 2, size / 2, size} {
		spec.Variant = train.EagerQuorum(cand, p.syncEvery)
		res, err := train.Run(spec)
		if err != nil {
			return nil, err
		}
		table.AddRow(cand, res.MeanActiveRanks, res.Throughput, res.Loss)
		r.Values[fmt.Sprintf("nap/candidates-%d", cand)] = res.MeanActiveRanks
		r.Values[fmt.Sprintf("throughput/candidates-%d", cand)] = res.Throughput
	}
	r.Tables = append(r.Tables, table)
	r.addNote("expected participation decreases and throughput increases as the candidate count grows from 1 (majority) to P (solo)")
	return r, nil
}
