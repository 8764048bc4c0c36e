// Package data provides the synthetic datasets and workload generators used
// by the experiments: the hyperplane regression task of §6.2.1, Gaussian-blob
// classification tasks standing in for CIFAR-10/ImageNet (§6.2.2, §6.2.3),
// and a variable-length sequence dataset whose length distribution matches
// the UCF101 statistics reported in §2.1 (29–1,776 frames, median 167),
// which is the source of the inherent load imbalance studied in §6.3.
//
// Generators are deterministic given a seed, and the samplers partition work
// across ranks deterministically so every rank of a distributed run draws
// disjoint minibatches without communication — the same property data-parallel
// input pipelines provide in the paper's setup.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"eagersgd/internal/tensor"
)

// RegressionDataset is a supervised dataset with real-valued targets.
type RegressionDataset struct {
	Inputs  []tensor.Vector
	Targets []tensor.Vector
	// Coefficients is the ground-truth hyperplane (including the task noise
	// excluded), kept so tests can measure recovery error.
	Coefficients tensor.Vector
}

// Len returns the number of samples.
func (d *RegressionDataset) Len() int { return len(d.Inputs) }

// Hyperplane generates the regression task of §6.2.1: targets are
// y = a·x + noise for a fixed random coefficient vector a and inputs drawn
// uniformly from [-1, 1)^dim.
func Hyperplane(dim, samples int, noise float64, seed int64) *RegressionDataset {
	if dim <= 0 || samples <= 0 {
		panic(fmt.Sprintf("data: invalid hyperplane shape dim=%d samples=%d", dim, samples))
	}
	rng := rand.New(rand.NewSource(seed))
	coeff := tensor.NewVector(dim)
	coeff.Randomize(rng, 1)
	d := &RegressionDataset{
		Inputs:       make([]tensor.Vector, samples),
		Targets:      make([]tensor.Vector, samples),
		Coefficients: coeff,
	}
	for i := 0; i < samples; i++ {
		x := tensor.NewVector(dim)
		x.Randomize(rng, 1)
		y := coeff.Dot(x) + rng.NormFloat64()*noise
		d.Inputs[i] = x
		d.Targets[i] = tensor.Vector{y}
	}
	return d
}

// ClassificationDataset is a supervised dataset with integer class labels.
type ClassificationDataset struct {
	Inputs  []tensor.Vector
	Labels  []int
	Classes int
}

// Len returns the number of samples.
func (d *ClassificationDataset) Len() int { return len(d.Inputs) }

// Blobs generates an isotropic Gaussian-blob classification task: classes
// centred on random prototypes with the given spread. It stands in for the
// image classification datasets (CIFAR-10, ImageNet) whose absolute scale is
// far beyond a CPU-only reproduction; what matters for the experiments is
// that accuracy improves with training and degrades with gradient staleness,
// which this task exhibits.
func Blobs(classes, dim, samplesPerClass int, spread float64, seed int64) *ClassificationDataset {
	if classes <= 1 || dim <= 0 || samplesPerClass <= 0 {
		panic(fmt.Sprintf("data: invalid blobs shape classes=%d dim=%d spc=%d", classes, dim, samplesPerClass))
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([]tensor.Vector, classes)
	for c := range centers {
		centers[c] = tensor.NewVector(dim)
		centers[c].Randomize(rng, 2)
	}
	d := &ClassificationDataset{Classes: classes}
	for c := 0; c < classes; c++ {
		for s := 0; s < samplesPerClass; s++ {
			x := centers[c].Clone()
			for i := range x {
				x[i] += rng.NormFloat64() * spread
			}
			d.Inputs = append(d.Inputs, x)
			d.Labels = append(d.Labels, c)
		}
	}
	// Shuffle so per-rank shards are class-balanced.
	rng.Shuffle(len(d.Inputs), func(i, j int) {
		d.Inputs[i], d.Inputs[j] = d.Inputs[j], d.Inputs[i]
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	})
	return d
}

// SequenceDataset is a supervised dataset of variable-length sequences of
// feature vectors (the stand-in for per-frame Inception features of UCF101).
type SequenceDataset struct {
	Sequences [][]tensor.Vector
	Labels    []int
	Classes   int
	FeatDim   int
}

// Len returns the number of sequences.
func (d *SequenceDataset) Len() int { return len(d.Sequences) }

// Lengths returns the per-sample sequence lengths.
func (d *SequenceDataset) Lengths() []int {
	out := make([]int, len(d.Sequences))
	for i, s := range d.Sequences {
		out[i] = len(s)
	}
	return out
}

// UCF101LengthDistribution describes the video length statistics of §2.1:
// lengths between MinFrames and MaxFrames with the given median and standard
// deviation. Sampling uses a log-normal distribution fitted to the median and
// clipped to the observed range, reproducing the one-mode-plus-tail shape of
// Fig. 2a.
type UCF101LengthDistribution struct {
	MinFrames int
	MaxFrames int
	Median    float64
	Sigma     float64 // sigma of the underlying normal in log space
}

// DefaultUCF101Lengths returns the distribution parameters reported in the
// paper for the UCF101 training set.
func DefaultUCF101Lengths() UCF101LengthDistribution {
	return UCF101LengthDistribution{MinFrames: 29, MaxFrames: 1776, Median: 167, Sigma: 0.45}
}

// Sample draws one sequence length.
func (d UCF101LengthDistribution) Sample(rng *rand.Rand) int {
	mu := math.Log(d.Median)
	length := int(math.Round(math.Exp(mu + d.Sigma*rng.NormFloat64())))
	if length < d.MinFrames {
		length = d.MinFrames
	}
	if length > d.MaxFrames {
		length = d.MaxFrames
	}
	return length
}

// SequenceConfig configures Sequences.
type SequenceConfig struct {
	Classes  int
	FeatDim  int
	Samples  int
	Noise    float64
	Lengths  UCF101LengthDistribution
	Seed     int64
	MaxSteps int // optional cap on sequence length to bound test time; 0 = no cap
}

// Sequences generates a classification dataset of variable-length sequences.
// Each class has a prototype feature vector; every frame of a sample is the
// prototype plus Gaussian noise, so longer videos carry no more class signal
// per frame — but cost proportionally more to process, reproducing the
// workload imbalance of §2.1.
func Sequences(cfg SequenceConfig) *SequenceDataset {
	if cfg.Classes <= 1 || cfg.FeatDim <= 0 || cfg.Samples <= 0 {
		panic(fmt.Sprintf("data: invalid sequence config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	prototypes := make([]tensor.Vector, cfg.Classes)
	for c := range prototypes {
		prototypes[c] = tensor.NewVector(cfg.FeatDim)
		prototypes[c].Randomize(rng, 1)
	}
	d := &SequenceDataset{Classes: cfg.Classes, FeatDim: cfg.FeatDim}
	for s := 0; s < cfg.Samples; s++ {
		class := rng.Intn(cfg.Classes)
		length := cfg.Lengths.Sample(rng)
		if cfg.MaxSteps > 0 && length > cfg.MaxSteps {
			length = cfg.MaxSteps
		}
		seq := make([]tensor.Vector, length)
		for fr := range seq {
			f := prototypes[class].Clone()
			for i := range f {
				f[i] += rng.NormFloat64() * cfg.Noise
			}
			seq[fr] = f
		}
		d.Sequences = append(d.Sequences, seq)
		d.Labels = append(d.Labels, class)
	}
	return d
}

// Shard returns the index range [start, end) of the samples owned by rank
// when total samples are split evenly across size ranks (the data-parallel
// partition used by every distributed experiment).
func Shard(total, size, rank int) (int, int) {
	if size <= 0 || rank < 0 || rank >= size {
		panic(fmt.Sprintf("data: invalid shard rank=%d size=%d", rank, size))
	}
	return tensor.ChunkBounds(total, size, rank)
}

// BatchSampler deterministically enumerates minibatch index sets for a rank:
// every rank sees a disjoint shard of the dataset and cycles through it in a
// per-epoch shuffled order derived from the shared seed, so no coordination
// is needed to agree on batches.
type BatchSampler struct {
	total     int
	batchSize int
	rank      int
	size      int
	seed      int64

	start, end int
	order      []int
	batch      []int      // At's result, reused by the next call
	rng        *rand.Rand // reseeded per epoch by reshuffle
	cursor     int
	epoch      int
}

// NewBatchSampler creates a sampler over total samples for the given rank of
// size ranks with the per-rank batch size.
func NewBatchSampler(total, batchSize, rank, size int, seed int64) *BatchSampler {
	if batchSize <= 0 {
		panic("data: batch size must be positive")
	}
	start, end := Shard(total, size, rank)
	s := &BatchSampler{
		total: total, batchSize: batchSize, rank: rank, size: size, seed: seed,
		start: start, end: end,
		order: make([]int, end-start), rng: rand.New(rand.NewSource(0)),
	}
	s.reshuffle()
	return s
}

// reshuffle refills order with the shard and shuffles it with the epoch's
// seed. Reseeding the kept source restarts it exactly as a fresh source with
// that seed would, so the order matches one drawn from a new source.
func (s *BatchSampler) reshuffle() {
	for i := range s.order {
		s.order[i] = s.start + i
	}
	s.rng.Seed(s.seed + int64(s.epoch)*1_000_003 + int64(s.rank)*7919)
	s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	s.cursor = 0
}

// Epoch returns the number of completed passes over this rank's shard.
func (s *BatchSampler) Epoch() int { return s.epoch }

// Next returns the dataset indices of the next minibatch, advancing to the
// next epoch (with a fresh shuffle) when the shard is exhausted.
func (s *BatchSampler) Next() []int {
	if len(s.order) == 0 {
		return nil
	}
	batch := make([]int, 0, s.batchSize)
	for len(batch) < s.batchSize {
		if s.cursor >= len(s.order) {
			s.epoch++
			s.reshuffle()
		}
		batch = append(batch, s.order[s.cursor])
		s.cursor++
	}
	return batch
}

// At returns the minibatch for an absolute step index — a pure function of
// (seed, rank, size, step), unlike the call-sequential Next. Data-epoch
// step/StepsPerEpoch is reshuffled on demand and the batch reads
// step%StepsPerEpoch·batchSize positions onward, wrapping within the shard.
// Step-indexed sampling is what lets an elastic run retry a failed step (or
// a joiner replay from a handoff step) and draw the exact batch the step
// would have had: gradients become deterministic in the step index, not in
// how many attempts it took to get there.
//
// The returned slice belongs to the sampler and is valid until the next call
// to At: read it at once, or copy it.
func (s *BatchSampler) At(step int) []int {
	if len(s.order) == 0 || step < 0 {
		return nil
	}
	spe := s.StepsPerEpoch()
	if e := step / spe; e != s.epoch {
		s.epoch = e
		s.reshuffle()
	}
	base := (step % spe) * s.batchSize
	s.batch = s.batch[:0]
	for i := 0; i < s.batchSize; i++ {
		s.batch = append(s.batch, s.order[(base+i)%len(s.order)])
	}
	return s.batch
}

// StepsPerEpoch returns how many Next calls constitute one pass over the
// rank's shard (rounded up).
func (s *BatchSampler) StepsPerEpoch() int {
	n := s.end - s.start
	if n == 0 {
		return 0
	}
	return (n + s.batchSize - 1) / s.batchSize
}

// LengthHistogram bins sequence lengths into equal-width buckets over
// [min, max] and returns the bucket upper edges and counts — the data behind
// Fig. 2a.
func LengthHistogram(lengths []int, buckets int) (edges []float64, counts []int) {
	if buckets <= 0 || len(lengths) == 0 {
		return nil, nil
	}
	lo, hi := lengths[0], lengths[0]
	for _, l := range lengths {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	width := float64(hi-lo+1) / float64(buckets)
	edges = make([]float64, buckets)
	counts = make([]int, buckets)
	for i := range edges {
		edges[i] = float64(lo) + width*float64(i+1)
	}
	for _, l := range lengths {
		idx := int(float64(l-lo) / width)
		if idx >= buckets {
			idx = buckets - 1
		}
		counts[idx]++
	}
	return edges, counts
}
