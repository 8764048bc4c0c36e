// Package core implements the paper's primary contribution at the training
// level: eager-SGD (Algorithm 2) with the Fig. 7 send/receive-buffer
// protocol, next to the synchronous SGD baselines it is compared against
// (a Deep500-style ordered allreduce and a Horovod-style negotiated fused
// allreduce). Trainers exchange gradients through pluggable exchangers and
// update a local model replica; tasks (this file) bind a model from
// internal/nn to a dataset shard from internal/data.
package core

import (
	"math/rand"

	"eagersgd/internal/data"
	"eagersgd/internal/nn"
	"eagersgd/internal/tensor"
)

// Metrics is an evaluation snapshot on held-out data.
type Metrics struct {
	Loss float64
	// Top1 and Top5 are classification accuracies in [0, 1]; zero for
	// regression tasks.
	Top1 float64
	Top5 float64
}

// Task is the per-rank training workload: it owns a local model replica and a
// shard of the dataset, computes local minibatch gradients, and evaluates the
// replica on held-out data.
type Task interface {
	// Name identifies the task in reports.
	Name() string
	// NumParams returns the model's parameter count.
	NumParams() int
	// Params returns the flat parameter vector of the local replica.
	Params() tensor.Vector
	// Grads returns the flat gradient vector filled by ComputeGradient.
	Grads() tensor.Vector
	// ComputeGradient computes the local mean minibatch gradient for the
	// given step and returns the minibatch loss.
	ComputeGradient(step int) float64
	// Evaluate scores the local replica on the task's held-out set.
	Evaluate() Metrics
	// WorkloadUnits returns the size of the step's minibatch workload in
	// task-specific units (frames for video, 0 when every batch costs the
	// same); it drives inherent-imbalance cost modelling.
	WorkloadUnits(step int) int
}

// BucketedTask is a Task whose gradient computation can announce
// layer-aligned segments as they become final during the backward pass, in
// reverse layer order — the hook the overlapped (bucketed) gradient exchange
// is built on. All built-in tasks implement it.
type BucketedTask interface {
	Task
	// Segments returns the layer-aligned bucket boundaries of Grads(), in
	// offset order, tiling [0, NumParams()).
	Segments() []nn.Segment
	// ComputeGradientBuckets behaves exactly like ComputeGradient (same
	// gradients, bit for bit) but invokes ready for each segment the moment
	// its gradient is final — during the backward pass, so the caller can
	// start exchanging early segments while later layers still
	// backpropagate.
	ComputeGradientBuckets(step int, ready func(nn.Segment)) float64
}

// evalBatch is how many held-out samples Evaluate runs through one batched
// forward pass: enough to amortize a pass over the weights, few enough to
// keep the model's activation workspaces near their training size.
const evalBatch = 32

// evalChunks calls fn on consecutive [lo, hi) chunks of n held-out samples,
// in order.
func evalChunks(n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += evalBatch {
		fn(lo, min(lo+evalBatch, n))
	}
}

// RegressionTask trains an nn.Network on a data.RegressionDataset shard —
// the hyperplane workload of §6.2.1.
type RegressionTask struct {
	name    string
	net     *nn.Network
	train   *data.RegressionDataset
	eval    *data.RegressionDataset
	sampler *data.BatchSampler

	xs, ys []tensor.Vector // the step's minibatch, reused across steps
}

// NewRegressionTask builds the per-rank task. Every rank must pass the same
// datasets and seed (the sampler shards them deterministically); model
// initialization uses the shared seed so replicas start identical.
func NewRegressionTask(name string, net *nn.Network, train, eval *data.RegressionDataset, batchSize, rank, size int, seed int64) *RegressionTask {
	net.Init(rand.New(rand.NewSource(seed)))
	return &RegressionTask{
		name:    name,
		net:     net,
		train:   train,
		eval:    eval,
		sampler: data.NewBatchSampler(train.Len(), batchSize, rank, size, seed),
	}
}

// Name returns the task name.
func (t *RegressionTask) Name() string { return t.name }

// NumParams returns the model size.
func (t *RegressionTask) NumParams() int { return t.net.NumParams() }

// Params returns the flat parameters.
func (t *RegressionTask) Params() tensor.Vector { return t.net.Params() }

// Grads returns the flat gradients.
func (t *RegressionTask) Grads() tensor.Vector { return t.net.Grads() }

// batch gathers the step's minibatch. The batch is step-indexed
// (BatchSampler.At), so a retried step — an elastic run replaying a step that
// failed on a dying epoch — recomputes the exact gradient the step would have
// produced.
func (t *RegressionTask) batch(step int) (xs, ys []tensor.Vector) {
	t.xs, t.ys = t.xs[:0], t.ys[:0]
	for _, j := range t.sampler.At(step) {
		t.xs = append(t.xs, t.train.Inputs[j])
		t.ys = append(t.ys, t.train.Targets[j])
	}
	return t.xs, t.ys
}

// ComputeGradient computes the mean gradient of the step's minibatch.
func (t *RegressionTask) ComputeGradient(step int) float64 {
	return t.net.BatchGradient(t.batch(step))
}

// Segments returns the network's layer-aligned bucket boundaries.
func (t *RegressionTask) Segments() []nn.Segment { return t.net.Segments() }

// ComputeGradientBuckets is ComputeGradient with per-segment ready
// notifications during the backward pass (see BucketedTask).
func (t *RegressionTask) ComputeGradientBuckets(step int, ready func(nn.Segment)) float64 {
	xs, ys := t.batch(step)
	return t.net.BatchGradientBuckets(xs, ys, ready)
}

// Evaluate returns the mean validation loss.
func (t *RegressionTask) Evaluate() Metrics {
	loss := t.net.Loss()
	var total float64
	evalChunks(t.eval.Len(), func(lo, hi int) {
		for s, pred := range t.net.Forward(t.eval.Inputs[lo:hi]) {
			total += loss.Loss(pred, t.eval.Targets[lo+s])
		}
	})
	return Metrics{Loss: total / float64(t.eval.Len())}
}

// WorkloadUnits returns 0: every regression batch costs the same.
func (t *RegressionTask) WorkloadUnits(int) int { return 0 }

// StepsPerEpoch returns the number of optimizer steps per pass over the
// rank's shard.
func (t *RegressionTask) StepsPerEpoch() int { return t.sampler.StepsPerEpoch() }

// ClassificationTask trains an nn.Network softmax classifier on a
// data.ClassificationDataset shard — the stand-in for ResNet-32/CIFAR-10 and
// ResNet-50/ImageNet (§6.2.2, §6.2.3).
type ClassificationTask struct {
	name    string
	net     *nn.Network
	train   *data.ClassificationDataset
	eval    *data.ClassificationDataset
	sampler *data.BatchSampler

	targets []tensor.Vector // one-hot target of each class
	xs, ys  []tensor.Vector // the step's minibatch, reused across steps
}

// NewClassificationTask builds the per-rank task (same sharing rules as
// NewRegressionTask).
func NewClassificationTask(name string, net *nn.Network, train, eval *data.ClassificationDataset, batchSize, rank, size int, seed int64) *ClassificationTask {
	net.Init(rand.New(rand.NewSource(seed)))
	return &ClassificationTask{
		name:    name,
		net:     net,
		train:   train,
		eval:    eval,
		sampler: data.NewBatchSampler(train.Len(), batchSize, rank, size, seed),
		targets: nn.OneHots(train.Classes),
	}
}

// Name returns the task name.
func (t *ClassificationTask) Name() string { return t.name }

// NumParams returns the model size.
func (t *ClassificationTask) NumParams() int { return t.net.NumParams() }

// Params returns the flat parameters.
func (t *ClassificationTask) Params() tensor.Vector { return t.net.Params() }

// Grads returns the flat gradients.
func (t *ClassificationTask) Grads() tensor.Vector { return t.net.Grads() }

// batch gathers the step's minibatch, step-indexed like RegressionTask's so
// elastic retries resample it exactly.
func (t *ClassificationTask) batch(step int) (xs, ys []tensor.Vector) {
	t.xs, t.ys = t.xs[:0], t.ys[:0]
	for _, j := range t.sampler.At(step) {
		t.xs = append(t.xs, t.train.Inputs[j])
		t.ys = append(t.ys, t.targets[t.train.Labels[j]])
	}
	return t.xs, t.ys
}

// ComputeGradient computes the mean gradient of the step's minibatch.
func (t *ClassificationTask) ComputeGradient(step int) float64 {
	return t.net.BatchGradient(t.batch(step))
}

// Segments returns the network's layer-aligned bucket boundaries.
func (t *ClassificationTask) Segments() []nn.Segment { return t.net.Segments() }

// ComputeGradientBuckets is ComputeGradient with per-segment ready
// notifications during the backward pass (see BucketedTask).
func (t *ClassificationTask) ComputeGradientBuckets(step int, ready func(nn.Segment)) float64 {
	xs, ys := t.batch(step)
	return t.net.BatchGradientBuckets(xs, ys, ready)
}

// Evaluate returns held-out loss and top-1/top-5 accuracy.
func (t *ClassificationTask) Evaluate() Metrics {
	var m classMetrics
	evalChunks(t.eval.Len(), func(lo, hi int) {
		m.add(t.net.Forward(t.eval.Inputs[lo:hi]), t.eval.Labels[lo:hi], t.targets)
	})
	return m.metrics()
}

// WorkloadUnits returns 0: every classification batch costs the same.
func (t *ClassificationTask) WorkloadUnits(int) int { return 0 }

// StepsPerEpoch returns the number of optimizer steps per pass over the
// rank's shard.
func (t *ClassificationTask) StepsPerEpoch() int { return t.sampler.StepsPerEpoch() }

// classMetrics accumulates held-out cross-entropy and top-1/top-5 hits over
// chunks of logits, in sample order.
type classMetrics struct {
	loss          float64
	top1, top5, n int
}

func (c *classMetrics) add(logits []tensor.Vector, labels []int, targets []tensor.Vector) {
	var xent nn.SoftmaxCrossEntropy
	for s, l := range logits {
		label := labels[s]
		c.loss += xent.Loss(l, targets[label])
		if l.ArgMax() == label {
			c.top1++
		}
		if inTopK(l, label, 5) {
			c.top5++
		}
		c.n++
	}
}

func (c *classMetrics) metrics() Metrics {
	n := float64(c.n)
	return Metrics{Loss: c.loss / n, Top1: float64(c.top1) / n, Top5: float64(c.top5) / n}
}

func inTopK(logits tensor.Vector, label, k int) bool {
	if k >= len(logits) {
		return true
	}
	target := logits[label]
	higher := 0
	for i, v := range logits {
		if i != label && v > target {
			higher++
		}
	}
	return higher < k
}

// SequenceTask trains an nn.LSTMClassifier on a variable-length
// data.SequenceDataset shard — the video classification workload of §6.3
// whose per-batch cost is proportional to the total number of frames.
type SequenceTask struct {
	name    string
	model   *nn.LSTMClassifier
	train   *data.SequenceDataset
	eval    *data.SequenceDataset
	sampler *data.BatchSampler

	targets      []tensor.Vector   // one-hot target of each class
	seqs         [][]tensor.Vector // the step's minibatch, reused across steps
	labels       []int
	lastWorkload int
}

// NewSequenceTask builds the per-rank task (same sharing rules as the other
// constructors).
func NewSequenceTask(name string, model *nn.LSTMClassifier, train, eval *data.SequenceDataset, batchSize, rank, size int, seed int64) *SequenceTask {
	model.Init(rand.New(rand.NewSource(seed)))
	return &SequenceTask{
		name:    name,
		model:   model,
		train:   train,
		eval:    eval,
		sampler: data.NewBatchSampler(train.Len(), batchSize, rank, size, seed),
		targets: nn.OneHots(model.NumClasses),
	}
}

// Name returns the task name.
func (t *SequenceTask) Name() string { return t.name }

// NumParams returns the model size.
func (t *SequenceTask) NumParams() int { return t.model.NumParams() }

// Params returns the flat parameters.
func (t *SequenceTask) Params() tensor.Vector { return t.model.Params() }

// Grads returns the flat gradients.
func (t *SequenceTask) Grads() tensor.Vector { return t.model.Grads() }

// batch gathers the step's minibatch and records its total frame count.
func (t *SequenceTask) batch(step int) ([][]tensor.Vector, []int) {
	t.seqs, t.labels = t.seqs[:0], t.labels[:0]
	t.lastWorkload = 0
	for _, j := range t.sampler.At(step) {
		t.seqs = append(t.seqs, t.train.Sequences[j])
		t.labels = append(t.labels, t.train.Labels[j])
		t.lastWorkload += len(t.train.Sequences[j])
	}
	return t.seqs, t.labels
}

// ComputeGradient runs BPTT over the step's minibatch of sequences. Its cost
// is genuinely proportional to the batch's total frame count, reproducing the
// inherent load imbalance of the video workload.
func (t *SequenceTask) ComputeGradient(step int) float64 {
	return t.model.BatchGradient(t.batch(step))
}

// Segments returns the model's layer-aligned bucket boundaries (recurrent
// block and dense read-out).
func (t *SequenceTask) Segments() []nn.Segment { return t.model.Segments() }

// ComputeGradientBuckets is ComputeGradient with per-segment ready
// notifications during backpropagation through time (see BucketedTask).
func (t *SequenceTask) ComputeGradientBuckets(step int, ready func(nn.Segment)) float64 {
	seqs, labels := t.batch(step)
	return t.model.BatchGradientBuckets(seqs, labels, ready)
}

// Evaluate returns held-out loss and top-1/top-5 accuracy.
func (t *SequenceTask) Evaluate() Metrics {
	var m classMetrics
	evalChunks(t.eval.Len(), func(lo, hi int) {
		m.add(t.model.Forward(t.eval.Sequences[lo:hi]), t.eval.Labels[lo:hi], t.targets)
	})
	return m.metrics()
}

// WorkloadUnits returns the total frame count of the most recent minibatch.
func (t *SequenceTask) WorkloadUnits(int) int { return t.lastWorkload }

// StepsPerEpoch returns the number of optimizer steps per pass over the
// rank's shard.
func (t *SequenceTask) StepsPerEpoch() int { return t.sampler.StepsPerEpoch() }
