package train_test

import (
	"math"
	"testing"
	"time"

	"eagersgd/collective"
	"eagersgd/train"
)

func TestRunValidation(t *testing.T) {
	if _, err := train.Run(train.Spec{}); err == nil {
		t.Fatal("expected error for empty spec")
	}
	if _, err := train.Run(train.Spec{Ranks: 2, Steps: 2}); err == nil {
		t.Fatal("expected error for missing workload")
	}
	// Too few samples for an eval split must be an error, not a NaN result.
	if _, err := train.Run(train.Spec{Ranks: 2, Steps: 2,
		Workload: train.Hyperplane(train.HyperplaneConfig{Samples: 7}),
	}); err == nil {
		t.Fatal("expected error for sample count too small to split")
	}
	// Fewer samples than classes must be an error, not a panic.
	if _, err := train.Run(train.Spec{Ranks: 2, Steps: 2,
		Workload: train.Images(train.ImagesConfig{Classes: 8, Samples: 4}),
	}); err == nil {
		t.Fatal("expected error for fewer samples than classes")
	}
}

// TestRunEveryVariant drives each SGD variant through a short hyperplane run
// on the public façade, checking the headline metrics come back sane and the
// curves hold one point per evaluation, the last one being the headline.
func TestRunEveryVariant(t *testing.T) {
	workload := train.Hyperplane(train.HyperplaneConfig{Dim: 8, Samples: 64, Batch: 4})
	for _, v := range []train.Variant{
		train.SynchSGD(),
		train.SynchDeep500(),
		train.SynchHorovod(),
		train.EagerSolo(4),
		train.EagerMajority(4),
		train.EagerQuorum(2, 4),
	} {
		res, err := train.Run(train.Spec{
			Ranks:      3,
			Steps:      8,
			Workload:   workload,
			Variant:    v,
			Imbalance:  train.RandomDelays(1, 5),
			ClockScale: 0.05,
			EvalEvery:  2,
			Seed:       3,
		})
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if res.Throughput <= 0 || res.TrainingTime <= 0 {
			t.Fatalf("%s: throughput %v, time %v", v.Name, res.Throughput, res.TrainingTime)
		}
		if res.MeanActiveRanks <= 0 || res.MeanActiveRanks > 3 {
			t.Fatalf("%s: mean active ranks %v", v.Name, res.MeanActiveRanks)
		}
		if res.Loss <= 0 {
			t.Fatalf("%s: final loss %v", v.Name, res.Loss)
		}
		// Evaluations after steps 2, 4 and 6, and the final one after step 8.
		if n, m := len(res.EvalLoss.Points), len(res.TrainLoss.Points); n != 4 || m != 4 {
			t.Fatalf("%s: %d eval-loss and %d train-loss points, want 4 each", v.Name, n, m)
		}
		if last := res.EvalLoss.Last(); last.Y != res.Loss || last.X != res.TrainingTime.Seconds() {
			t.Fatalf("%s: last eval point %+v, headline loss %v after %v", v.Name, last, res.Loss, res.TrainingTime)
		}
	}
}

// TestWorkloadsTrain smoke-tests the classification and video workloads with
// the recommended eager variants and their imbalance models.
func TestWorkloadsTrain(t *testing.T) {
	images, err := train.Run(train.Spec{
		Ranks:     3,
		Steps:     6,
		Workload:  train.Images(train.ImagesConfig{Classes: 3, Dim: 6, Hidden: 8, Samples: 48, Batch: 4}),
		Variant:   train.EagerSolo(3),
		Imbalance: train.CloudNoise(1),
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if images.Top1 < 0 || images.Top1 > 1 || images.Top5 < images.Top1 {
		t.Fatalf("images accuracies top1=%v top5=%v", images.Top1, images.Top5)
	}
	// No EvalEvery: the curve is the final evaluation alone.
	if pts := images.EvalTop1.Points; len(pts) != 1 || pts[0].Y != images.Top1 {
		t.Fatalf("images top-1 curve %+v, headline top1=%v", pts, images.Top1)
	}
	video, err := train.Run(train.Spec{
		Ranks:    2,
		Steps:    5,
		Workload: train.Video(train.VideoConfig{Classes: 3, FeatDim: 4, Hidden: 6, Samples: 40, Batch: 2}),
		Variant:  train.EagerMajority(5),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if video.Top5 < video.Top1 {
		t.Fatalf("video accuracies top1=%v top5=%v", video.Top1, video.Top5)
	}
}

// TestRunChurnReplacesCrashedRank drives Spec.Churn through Run: rank 1
// crashes silently after crashAt steps, the world's peer deadline detects it,
// and a ChurnReplace admits a replacement. The run completes, and since a
// churned run tolerates no failed model sync, that includes the final model
// sync over the repaired world.
func TestRunChurnReplacesCrashedRank(t *testing.T) {
	const crashAt = 5
	res, err := train.Run(train.Spec{
		Ranks:    3,
		Steps:    9,
		Workload: train.Hyperplane(train.HyperplaneConfig{Dim: 8, Samples: 64, Batch: 4}),
		Seed:     3,
		World: []collective.Option{
			collective.WithFaults(collective.FaultScenario{Seed: 11, CrashAtStep: map[int]int{1: crashAt}}),
			collective.WithPeerDeadline(300 * time.Millisecond),
		},
		Churn: []train.ChurnEvent{{AfterStep: crashAt, Kind: train.ChurnReplace, Victim: 1, Addr: "replacement"}},
	})
	if err != nil {
		t.Fatalf("churned run: %v", err)
	}
	if res.Loss <= 0 || math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
		t.Fatalf("final loss %v", res.Loss)
	}
	if res.MeanActiveRanks != 3 {
		t.Fatalf("mean active ranks %v, want 3: every synchronous step sums a full world", res.MeanActiveRanks)
	}
}
