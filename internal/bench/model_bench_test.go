package bench

import (
	"math/rand"
	"testing"

	"eagersgd/internal/core"
	"eagersgd/internal/data"
	"eagersgd/internal/nn"
	"eagersgd/internal/tensor"
)

// modelCase is one of eagerbench's three model shapes with the minibatch its
// workload draws: the model-compute rung under every step.
type modelCase struct {
	name string
	// grad computes the mean gradient of minibatch i (batches cycle through
	// a fixed dataset).
	grad func(i int) float64
	// evaluate scores a task of the same shape on eagerbench's held-out
	// split.
	evaluate func() core.Metrics
}

const modelClasses = 16

// mlpCase is the images MLP dim -> hidden -> tanh -> 16 classes, as
// eagerbench builds it (512 blob samples, one eighth held out).
func mlpCase(name string, dim, hidden, batch int) modelCase {
	full := data.Blobs(modelClasses, dim, 512/modelClasses, 0.6, 20)
	cut := full.Len() - full.Len()/8
	train := &data.ClassificationDataset{Inputs: full.Inputs[:cut], Labels: full.Labels[:cut], Classes: modelClasses}
	eval := &data.ClassificationDataset{Inputs: full.Inputs[cut:], Labels: full.Labels[cut:], Classes: modelClasses}
	build := func() *nn.Network {
		return nn.NewNetwork(nn.SoftmaxCrossEntropy{},
			nn.NewDense(dim, hidden), nn.NewTanh(hidden), nn.NewDense(hidden, modelClasses))
	}
	net := build()
	net.Init(rand.New(rand.NewSource(21)))
	targets := nn.OneHots(modelClasses)
	xs, ys := make([]tensor.Vector, batch), make([]tensor.Vector, batch)
	task := core.NewClassificationTask("images", build(), train, eval, batch, 0, 4, 21)
	return modelCase{
		name: name,
		grad: func(i int) float64 {
			for s := range xs {
				j := (i*batch + s) % train.Len()
				xs[s], ys[s] = train.Inputs[j], targets[train.Labels[j]]
			}
			return net.BatchGradient(xs, ys)
		},
		evaluate: task.Evaluate,
	}
}

// lstmCase is the video LSTM 16 features -> 64 hidden -> 5 classes over
// UCF101-like lengths (5-60 frames, median 14), four sequences a batch. Its
// gradients cycle through all 600 sequences; evaluate scores eagerbench's
// held-out eighth.
func lstmCase() modelCase {
	const batch = 4
	ds := data.Sequences(data.SequenceConfig{
		Classes: 5, FeatDim: 16, Samples: 600, Noise: 0.3,
		Lengths: data.UCF101LengthDistribution{MinFrames: 5, MaxFrames: 60, Median: 14, Sigma: 0.5},
		Seed:    40,
	})
	cut := ds.Len() - ds.Len()/8
	train := &data.SequenceDataset{Sequences: ds.Sequences[:cut], Labels: ds.Labels[:cut], Classes: ds.Classes, FeatDim: ds.FeatDim}
	eval := &data.SequenceDataset{Sequences: ds.Sequences[cut:], Labels: ds.Labels[cut:], Classes: ds.Classes, FeatDim: ds.FeatDim}
	model := nn.NewLSTMClassifier(16, 64, 5)
	model.Init(rand.New(rand.NewSource(41)))
	seqs, labels := make([][]tensor.Vector, batch), make([]int, batch)
	task := core.NewSequenceTask("video", nn.NewLSTMClassifier(16, 64, 5), train, eval, batch, 0, 4, 41)
	return modelCase{
		name: "lstm-16x64x5/batch=4",
		grad: func(i int) float64 {
			for s := range seqs {
				j := (i*batch + s) % ds.Len()
				seqs[s], labels[s] = ds.Sequences[j], ds.Labels[j]
			}
			return model.BatchGradient(seqs, labels)
		},
		evaluate: task.Evaluate,
	}
}

// modelCases returns the skew-severe MLP (batch 8), the balanced-large MLP
// (batch 1) and the inherent-lstm LSTM (4 sequences).
func modelCases() []modelCase {
	return []modelCase{
		mlpCase("mlp-256x240x16/batch=8", 256, 240, 8),
		mlpCase("mlp-499x508x16/batch=1", 499, 508, 1),
		lstmCase(),
	}
}

var lossSink float64

// BenchmarkBatchGradient measures one minibatch forward and backward pass at
// each eagerbench model shape — the rung eagerbench reports as nn.grad_ms,
// re-runnable without a four-rank world.
func BenchmarkBatchGradient(b *testing.B) {
	for _, mc := range modelCases() {
		b.Run(mc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < 8; i++ {
				mc.grad(i) // size the workspaces for the batches to come
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lossSink = mc.grad(i)
			}
		})
	}
}
