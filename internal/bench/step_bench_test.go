package bench

import (
	"context"
	"fmt"
	"testing"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/data"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
)

// BenchmarkStepOverlap measures one full distributed training step across
// all ranks — backward pass, gradient exchange, optimizer update — for a
// multi-layer MLP and an LSTM, comparing the serial exchange (full backward,
// then one fused allreduce) against the overlapped bucketed exchange
// (buckets submitted during the backward pass, results applied as they
// land). The interesting cells are the TCP ones: there the wire time is
// substantial, and overlap=on hides part of it under compute while the
// bucket worker reduces the buckets one at a time in submit order.
func BenchmarkStepOverlap(b *testing.B) {
	type model struct {
		name      string
		buildTask func(rank, size int) core.Task
	}
	models := []model{
		{name: "mlp", buildTask: func(rank, size int) core.Task {
			// ~165K params (1.3 MB) across 4 dense layers: enough wire time
			// on TCP for overlap to matter, enough layers for real buckets.
			train := data.Blobs(8, 64, 64, 0.4, 11)
			eval := data.Blobs(8, 64, 8, 0.4, 12)
			net := nn.NewNetwork(nn.SoftmaxCrossEntropy{},
				nn.NewDense(64, 256), nn.NewTanh(256),
				nn.NewDense(256, 256), nn.NewReLU(256),
				nn.NewDense(256, 256), nn.NewReLU(256),
				nn.NewDense(256, 8))
			return core.NewClassificationTask("mlp", net, train, eval, 1, rank, size, 5)
		}},
		{name: "lstm", buildTask: func(rank, size int) core.Task {
			// ~26K params; per-step cost dominated by BPTT over 12–40 frames.
			train := data.Sequences(data.SequenceConfig{
				Classes: 16, FeatDim: 32, Samples: 64, Noise: 0.3,
				Lengths: data.UCF101LengthDistribution{MinFrames: 12, MaxFrames: 40, Median: 20, Sigma: 0.4},
				Seed:    13,
			})
			eval := data.Sequences(data.SequenceConfig{
				Classes: 16, FeatDim: 32, Samples: 8, Noise: 0.3,
				Lengths: data.UCF101LengthDistribution{MinFrames: 12, MaxFrames: 40, Median: 20, Sigma: 0.4},
				Seed:    14,
			})
			model := nn.NewLSTMClassifier(32, 64, 16)
			return core.NewSequenceTask("lstm", model, train, eval, 2, rank, size, 7)
		}},
	}
	for _, tr := range transports() {
		tr := tr
		b.Run(tr.name, func(b *testing.B) {
			for _, m := range models {
				m := m
				b.Run(m.name, func(b *testing.B) {
					for _, overlap := range []bool{false, true} {
						overlap := overlap
						b.Run(fmt.Sprintf("overlap=%v", overlap), func(b *testing.B) {
							w, err := collective.NewWorld(benchRanks,
								collective.WithTransport(tr.kind), collective.WithBasePort(takeTCPPorts(benchRanks)))
							if err != nil {
								b.Skipf("%s world unavailable in this environment: %v", tr.name, err)
							}
							defer w.Close()
							trainers := make([]*core.Trainer, benchRanks)
							for r := 0; r < benchRanks; r++ {
								task := m.buildTask(r, benchRanks)
								var opts []collective.Option
								if overlap {
									bt := task.(core.BucketedTask)
									opts = append(opts,
										collective.WithOverlap(),
										collective.WithBucketLayout(core.BucketLayout(bt, 0)...))
								}
								n := w.Node(r)
								ex, err := n.Reducer(task.NumParams(), opts...)
								if err != nil {
									b.Fatal(err)
								}
								trainers[r], err = core.NewTrainer(core.Config{
									Node: n, Task: task, Exchanger: ex,
									Optimizer: optimizer.NewSGD(0.01),
								})
								if err != nil {
									b.Fatal(err)
								}
							}
							defer func() {
								for _, t := range trainers {
									t.Close()
								}
							}()
							runRounds(b, benchRanks, func(rank int) error {
								_, err := trainers[rank].StepContext(context.Background())
								return err
							})
						})
					}
				})
			}
		})
	}
}
