package core

import (
	"context"
	"slices"
	"testing"

	"eagersgd/collective"
	"eagersgd/internal/data"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
)

// TestOverlapPlanPerMode: a trainer over an eager reducer built with overlap
// opens one-bucket steps, whatever the coalescing target it was given (the
// round reduces the whole vector, so its one handle takes the result by
// handover); over a Sync reducer it keeps the per-layer plan, or the
// WithBucketElems coalescing. Each trainer then runs a few steps.
func TestOverlapPlanPerMode(t *testing.T) {
	world, err := collective.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	newTask := func() *ClassificationTask {
		net := nn.NewNetwork(nn.SoftmaxCrossEntropy{},
			nn.NewDense(6, 24), nn.NewTanh(24), nn.NewDense(24, 16), nn.NewReLU(16), nn.NewDense(16, 4))
		return NewClassificationTask("blobs-deep", net, data.Blobs(4, 6, 64, 0.3, 41), data.Blobs(4, 6, 16, 0.3, 42), 8, 0, 1, 3)
	}
	task := newTask()
	perLayer := BucketLayout(task, 0)
	if len(perLayer) < 2 {
		t.Fatalf("per-layer plan %v: the test needs a model of several layers", perLayer)
	}
	whole := []int{task.NumParams()}
	for _, tc := range []struct {
		name        string
		mode        collective.Mode
		bucketElems int
		want        []int
	}{
		{"sync", collective.Sync, 0, perLayer},
		{"sync/coalesced", collective.Sync, 200, BucketLayout(task, 200)},
		{"solo", collective.Solo, 0, whole},
		{"majority/coalesced", collective.Majority, 200, whole},
		{"quorum", collective.Quorum(2), 0, whole},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Task: newTask(), Optimizer: optimizer.NewSGD(0.05)}
			tr, err := BuildTrainer(world.Node(0), cfg, 1, []collective.Option{collective.WithMode(tc.mode)}, true, tc.bucketElems)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tr.bucket == nil {
				t.Fatal("trainer built with overlap runs the serial path")
			}
			if got := tr.bucket.plan.lens; !slices.Equal(got, tc.want) {
				t.Fatalf("bucket plan %v, want %v", got, tc.want)
			}
			for i := 0; i < 3; i++ {
				if _, err := tr.StepContext(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
