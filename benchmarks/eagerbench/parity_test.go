package main

import (
	"testing"

	"eagersgd/collective"
	"eagersgd/train"
)

// trainSpecs spells each workload as the train.Spec a user of the public
// façade would write for it.
var trainSpecs = map[string]train.Spec{
	"skew-severe": {
		Workload:  train.Images(train.ImagesConfig{Classes: 16, Dim: 256, Hidden: 240, Samples: 512, Batch: 8}),
		Imbalance: train.SevereSkew(50, 400), BaseStepMs: 100, ClockScale: 0.02,
	},
	"inherent-lstm": {
		Workload:   train.Video(train.VideoConfig{Classes: 5, FeatDim: 16, Hidden: 64, Samples: 600, Batch: 4}),
		ClockScale: 0.1,
	},
	"balanced-large": {
		Workload:   train.Images(train.ImagesConfig{Classes: 16, Dim: 499, Hidden: 508, Samples: 256, Batch: 1}),
		BaseStepMs: 400, ClockScale: 0.02, Overlap: true,
	},
	"balanced-small": {
		Workload:   train.Hyperplane(train.HyperplaneConfig{Dim: 1023, Samples: 2048, Batch: 16}),
		BaseStepMs: 100, ClockScale: 0.01,
	},
}

// TestBuildMatchesTrainRun keeps the benchmark on the path users call: for a
// 20-step synchronous run, the benchmark's own wiring (data -> task ->
// Node.Reducer -> core.NewTrainer) and train.Run with the same configuration
// and seed end at a bit-identical held-out loss.
func TestBuildMatchesTrainRun(t *testing.T) {
	const steps, evalEvery, seed = 20, 5, 7
	for _, w := range workloads {
		spec, ok := trainSpecs[w.name]
		if !ok {
			t.Fatalf("%s has no train.Spec to compare against", w.name)
		}
		spec.Ranks, spec.Steps, spec.EvalEvery, spec.Seed = ranks, steps, evalEvery, seed
		spec.Variant = train.SynchSGD()
		spec.LearningRate = w.lr
		spec.World = []collective.Option{collective.WithTransport(w.transport), collective.WithBasePort(takePorts(ranks))}
		want, err := train.Run(spec)
		if err != nil {
			t.Fatalf("%s: train.Run: %v", w.name, err)
		}
		out := w.runOnce(variants[0], seed, ranks, steps, evalEvery, nil)
		if out.err != nil {
			t.Fatalf("%s: benchmark run: %v", w.name, out.err)
		}
		if got := out.res.Final.Loss; got != want.Loss {
			t.Errorf("%s: benchmark wiring ends at loss %v, train.Run at %v", w.name, got, want.Loss)
		}
	}
}
