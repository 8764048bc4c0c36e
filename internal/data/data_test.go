package data

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHyperplaneDeterministicAndConsistent(t *testing.T) {
	a := Hyperplane(16, 100, 0, 42)
	b := Hyperplane(16, 100, 0, 42)
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("Len = %d/%d", a.Len(), b.Len())
	}
	for i := range a.Inputs {
		if !a.Inputs[i].Equal(b.Inputs[i]) || !a.Targets[i].Equal(b.Targets[i]) {
			t.Fatalf("sample %d differs between identical seeds", i)
		}
	}
	// With zero noise, targets must equal the dot product exactly.
	for i := range a.Inputs {
		want := a.Coefficients.Dot(a.Inputs[i])
		if math.Abs(a.Targets[i][0]-want) > 1e-12 {
			t.Fatalf("sample %d target %v, want %v", i, a.Targets[i][0], want)
		}
	}
}

func TestHyperplaneNoiseChangesTargets(t *testing.T) {
	clean := Hyperplane(8, 50, 0, 7)
	noisy := Hyperplane(8, 50, 0.5, 7)
	same := 0
	for i := range clean.Targets {
		if clean.Targets[i][0] == noisy.Targets[i][0] {
			same++
		}
	}
	if same == len(clean.Targets) {
		t.Fatal("noise had no effect on targets")
	}
}

func TestHyperplaneInvalidArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Hyperplane(0, 10, 0, 1)
}

func TestBlobsShapeAndSeparability(t *testing.T) {
	d := Blobs(3, 5, 40, 0.1, 9)
	if d.Len() != 120 || d.Classes != 3 {
		t.Fatalf("Len=%d Classes=%d", d.Len(), d.Classes)
	}
	counts := make(map[int]int)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c := 0; c < 3; c++ {
		if counts[c] != 40 {
			t.Fatalf("class %d has %d samples, want 40", c, counts[c])
		}
	}
	// With tiny spread, a nearest-class-mean classifier must be near perfect:
	// compute class means and check self-consistency.
	dims := len(d.Inputs[0])
	means := make(map[int][]float64)
	for c := 0; c < 3; c++ {
		means[c] = make([]float64, dims)
	}
	for i, x := range d.Inputs {
		for j, v := range x {
			means[d.Labels[i]][j] += v / 40
		}
	}
	correct := 0
	for i, x := range d.Inputs {
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < 3; c++ {
			var dist float64
			for j, v := range x {
				diff := v - means[c][j]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == d.Labels[i] {
			correct++
		}
	}
	if float64(correct)/float64(d.Len()) < 0.99 {
		t.Fatalf("blobs not separable: %d/%d", correct, d.Len())
	}
}

func TestBlobsInvalidArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Blobs(1, 4, 10, 0.1, 1)
}

func TestUCF101LengthDistribution(t *testing.T) {
	dist := DefaultUCF101Lengths()
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	lengths := make([]int, n)
	for i := range lengths {
		lengths[i] = dist.Sample(rng)
		if lengths[i] < dist.MinFrames || lengths[i] > dist.MaxFrames {
			t.Fatalf("length %d outside [%d, %d]", lengths[i], dist.MinFrames, dist.MaxFrames)
		}
	}
	sort.Ints(lengths)
	median := float64(lengths[n/2])
	if math.Abs(median-dist.Median) > dist.Median*0.15 {
		t.Fatalf("sample median %v too far from target %v", median, dist.Median)
	}
	// The distribution must have a right tail: some videos much longer than
	// the median (the paper reports a max of 1,776 frames vs a median of 167).
	if lengths[n-1] < 3*int(dist.Median) {
		t.Fatalf("no long-video tail: max %d", lengths[n-1])
	}
}

func TestSequencesShapeAndLearnability(t *testing.T) {
	cfg := SequenceConfig{
		Classes: 3, FeatDim: 4, Samples: 60, Noise: 0.05,
		Lengths: UCF101LengthDistribution{MinFrames: 5, MaxFrames: 40, Median: 12, Sigma: 0.4},
		Seed:    17,
	}
	d := Sequences(cfg)
	if d.Len() != 60 || d.Classes != 3 || d.FeatDim != 4 {
		t.Fatalf("unexpected dataset shape %+v", d)
	}
	lengths := d.Lengths()
	varies := false
	for _, l := range lengths {
		if l < 5 || l > 40 {
			t.Fatalf("length %d outside configured range", l)
		}
		if l != lengths[0] {
			varies = true
		}
	}
	if !varies {
		t.Fatal("all sequences have identical length; no workload imbalance")
	}
	// Frames of a sample must cluster around a class prototype: frame-mean
	// nearest-prototype classification should be near perfect at low noise.
	prototypes := make(map[int][]float64)
	counts := make(map[int]int)
	for i, seq := range d.Sequences {
		mean := make([]float64, cfg.FeatDim)
		for _, f := range seq {
			for j, v := range f {
				mean[j] += v / float64(len(seq))
			}
		}
		label := d.Labels[i]
		if prototypes[label] == nil {
			prototypes[label] = make([]float64, cfg.FeatDim)
		}
		for j := range mean {
			prototypes[label][j] += mean[j]
		}
		counts[label]++
	}
	for c, p := range prototypes {
		for j := range p {
			p[j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, seq := range d.Sequences {
		mean := make([]float64, cfg.FeatDim)
		for _, f := range seq {
			for j, v := range f {
				mean[j] += v / float64(len(seq))
			}
		}
		best, bestDist := -1, math.Inf(1)
		for c, p := range prototypes {
			var dist float64
			for j := range p {
				diff := mean[j] - p[j]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == d.Labels[i] {
			correct++
		}
	}
	if float64(correct)/float64(d.Len()) < 0.95 {
		t.Fatalf("sequence classes not separable: %d/%d", correct, d.Len())
	}
}

func TestSequencesMaxStepsCap(t *testing.T) {
	cfg := SequenceConfig{
		Classes: 2, FeatDim: 2, Samples: 30, Noise: 0.1,
		Lengths:  DefaultUCF101Lengths(),
		Seed:     1,
		MaxSteps: 25,
	}
	d := Sequences(cfg)
	for _, l := range d.Lengths() {
		if l > 25 {
			t.Fatalf("MaxSteps cap violated: %d", l)
		}
	}
}

func TestShardPartitionsEverything(t *testing.T) {
	f := func(totalRaw uint16, sizeRaw uint8) bool {
		total := int(totalRaw % 1000)
		size := int(sizeRaw%16) + 1
		covered := 0
		prevEnd := 0
		for r := 0; r < size; r++ {
			s, e := Shard(total, size, r)
			if s != prevEnd || e < s {
				return false
			}
			covered += e - s
			prevEnd = e
		}
		return covered == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShardInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Shard(10, 4, 9)
}

func TestBatchSamplerCoversShardEachEpoch(t *testing.T) {
	const total, batch, rank, size = 103, 8, 1, 4
	s := NewBatchSampler(total, batch, rank, size, 5)
	start, end := Shard(total, size, rank)
	steps := s.StepsPerEpoch()
	if steps != (end-start+batch-1)/batch {
		t.Fatalf("StepsPerEpoch = %d", steps)
	}
	seen := make(map[int]int)
	for i := 0; i < steps; i++ {
		for _, idx := range s.Next() {
			if idx < start || idx >= end {
				t.Fatalf("index %d outside shard [%d,%d)", idx, start, end)
			}
			seen[idx]++
		}
	}
	// Every shard element must appear at least once in one epoch's worth of
	// batches (the last batch may wrap into the next epoch).
	missing := 0
	for idx := start; idx < end; idx++ {
		if seen[idx] == 0 {
			missing++
		}
	}
	if missing > batch {
		t.Fatalf("%d shard elements never sampled in one epoch", missing)
	}
}

func TestBatchSamplerDisjointAcrossRanks(t *testing.T) {
	const total, batch, size = 64, 4, 4
	owner := make(map[int]int)
	for r := 0; r < size; r++ {
		s := NewBatchSampler(total, batch, r, size, 11)
		for i := 0; i < s.StepsPerEpoch(); i++ {
			for _, idx := range s.Next() {
				if prev, ok := owner[idx]; ok && prev != r {
					t.Fatalf("index %d sampled by ranks %d and %d", idx, prev, r)
				}
				owner[idx] = r
			}
		}
	}
}

func TestBatchSamplerEpochAdvancesAndReshuffles(t *testing.T) {
	s := NewBatchSampler(10, 10, 0, 1, 3)
	first := append([]int(nil), s.Next()...)
	if s.Epoch() != 0 {
		t.Fatalf("epoch = %d after first batch", s.Epoch())
	}
	second := append([]int(nil), s.Next()...)
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d after exhausting the shard", s.Epoch())
	}
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epoch reshuffle produced the identical order (suspicious)")
	}
}

// TestBatchSamplerAtGolden pins At over three data epochs of a shard whose
// batches wrap (rank 1 of 2 over 23 samples: indices 12..22, batch 4), and
// again out of order, so the shuffles stay bit-identical whatever buffers
// the sampler reuses. At returns a buffer it owns, so each batch is compared
// before the next call.
func TestBatchSamplerAtGolden(t *testing.T) {
	want := [][]int{
		{12, 21, 15, 17}, {22, 20, 13, 14}, {19, 18, 16, 12}, // epoch 0
		{17, 16, 14, 15}, {12, 19, 13, 18}, {22, 21, 20, 17}, // epoch 1
		{18, 16, 20, 19}, {15, 22, 14, 17}, {21, 13, 12, 18}, // epoch 2
	}
	s := NewBatchSampler(23, 4, 1, 2, 9)
	if spe := s.StepsPerEpoch(); spe != 3 {
		t.Fatalf("StepsPerEpoch = %d, want 3", spe)
	}
	for _, step := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 7, 0, 5} {
		got := s.At(step)
		if len(got) != len(want[step]) {
			t.Fatalf("At(%d) = %v, want %v", step, got, want[step])
		}
		for i := range got {
			if got[i] != want[step][i] {
				t.Fatalf("At(%d) = %v, want %v", step, got, want[step])
			}
		}
	}
}

func TestBatchSamplerInvalidBatchSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBatchSampler(10, 0, 0, 1, 1)
}

func TestLengthHistogram(t *testing.T) {
	lengths := []int{1, 2, 3, 10, 10, 10, 20}
	edges, counts := LengthHistogram(lengths, 4)
	if len(edges) != 4 || len(counts) != 4 {
		t.Fatalf("histogram shape %d/%d", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(lengths) {
		t.Fatalf("histogram counts %d samples, want %d", total, len(lengths))
	}
	if edges[3] < 20 {
		t.Fatalf("last edge %v must cover the maximum", edges[3])
	}
	if e, c := LengthHistogram(nil, 4); e != nil || c != nil {
		t.Fatal("empty input must produce empty histogram")
	}
}
