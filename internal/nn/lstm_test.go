package nn

import (
	"math"
	"math/rand"
	"testing"

	"eagersgd/internal/tensor"
)

func randomSequence(rng *rand.Rand, length, dim int) []tensor.Vector {
	seq := make([]tensor.Vector, length)
	for i := range seq {
		seq[i] = tensor.NewVector(dim)
		seq[i].Randomize(rng, 1)
	}
	return seq
}

func TestLSTMNumParams(t *testing.T) {
	m := NewLSTMClassifier(3, 5, 2)
	want := 4*5*3 + 4*5*5 + 4*5 + 2*5 + 2
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	if len(m.Params()) != want || len(m.Grads()) != want {
		t.Fatal("flat buffers sized incorrectly")
	}
}

func TestLSTMInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLSTMClassifier(0, 1, 1)
}

func TestLSTMInitForgetBias(t *testing.T) {
	m := NewLSTMClassifier(2, 3, 2)
	m.Init(rand.New(rand.NewSource(1)))
	// The forget-gate bias block (indices [H, 2H)) must be 1.
	h := m.HiddenSize
	for j := 0; j < h; j++ {
		if m.bias[j] != 0 {
			t.Fatalf("input-gate bias %d = %v, want 0", j, m.bias[j])
		}
		if m.bias[h+j] != 1 {
			t.Fatalf("forget-gate bias %d = %v, want 1", j, m.bias[h+j])
		}
	}
}

func TestLSTMForwardDeterministicAndFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewLSTMClassifier(4, 6, 3)
	m.Init(rng)
	seq := randomSequence(rng, 12, 4)
	a := m.Forward([][]tensor.Vector{seq})[0].Clone()
	b := m.Forward([][]tensor.Vector{seq})[0]
	if !a.Equal(b) {
		t.Fatal("Forward is not deterministic")
	}
	if !a.IsFinite() {
		t.Fatalf("non-finite logits %v", a)
	}
	if len(a) != 3 {
		t.Fatalf("logit length %d", len(a))
	}
}

func TestLSTMEmptySequencePanics(t *testing.T) {
	m := NewLSTMClassifier(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AccumulateGradient(nil, 0)
}

func TestLSTMGradientMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewLSTMClassifier(3, 4, 3)
	m.Init(rng)
	seq := randomSequence(rng, 5, 3)
	label := 2

	m.ZeroGrads()
	m.AccumulateGradient(seq, label)
	analytic := m.Grads().Clone()

	var xent SoftmaxCrossEntropy
	target := OneHot(label, 3)
	numeric := numericalGradient(m.Params(), func() float64 {
		return xent.Loss(m.Forward([][]tensor.Vector{seq})[0], target)
	})

	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := math.Max(1e-6, math.Abs(analytic[i])+math.Abs(numeric[i]))
		if diff/scale > 1e-3 {
			t.Fatalf("gradient mismatch at %d: analytic %v numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func TestLSTMBatchGradientAverages(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewLSTMClassifier(2, 3, 2)
	m.Init(rng)
	seqA := randomSequence(rng, 3, 2)
	seqB := randomSequence(rng, 6, 2)

	m.ZeroGrads()
	lossA := m.AccumulateGradient(seqA, 0)
	gradA := m.Grads().Clone()
	m.ZeroGrads()
	lossB := m.AccumulateGradient(seqB, 1)
	gradB := m.Grads().Clone()

	batchLoss := m.BatchGradient([][]tensor.Vector{seqA, seqB}, []int{0, 1})
	if math.Abs(batchLoss-(lossA+lossB)/2) > 1e-9 {
		t.Fatalf("batch loss %v, want %v", batchLoss, (lossA+lossB)/2)
	}
	want := gradA.Clone()
	want.Add(gradB)
	want.Scale(0.5)
	if !m.Grads().AllClose(want, 1e-9) {
		t.Fatal("batch gradient is not the average of per-sample gradients")
	}
}

func TestLSTMBatchValidation(t *testing.T) {
	m := NewLSTMClassifier(2, 2, 2)
	for _, fn := range []func(){
		func() { m.BatchGradient(nil, nil) },
		func() { m.BatchGradient([][]tensor.Vector{randomSequence(rand.New(rand.NewSource(1)), 2, 2)}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLSTMLearnsSequenceSumSign(t *testing.T) {
	// Classify whether the running sum of a 1-d sequence is positive — a task
	// that genuinely needs the recurrent state.
	rng := rand.New(rand.NewSource(13))
	m := NewLSTMClassifier(1, 8, 2)
	m.Init(rng)

	makeSample := func() ([]tensor.Vector, int) {
		length := 3 + rng.Intn(6)
		seq := make([]tensor.Vector, length)
		sum := 0.0
		for i := range seq {
			v := rng.NormFloat64()
			seq[i] = tensor.Vector{v}
			sum += v
		}
		label := 0
		if sum > 0 {
			label = 1
		}
		return seq, label
	}

	const lr = 0.05
	for step := 0; step < 600; step++ {
		seqs := make([][]tensor.Vector, 16)
		labels := make([]int, 16)
		for i := range seqs {
			seqs[i], labels[i] = makeSample()
		}
		m.BatchGradient(seqs, labels)
		m.Params().Axpy(-lr, m.Grads())
	}

	correct := 0
	const eval = 200
	for i := 0; i < eval; i++ {
		seq, label := makeSample()
		if m.Forward([][]tensor.Vector{seq})[0].ArgMax() == label {
			correct++
		}
	}
	acc := float64(correct) / eval
	if acc < 0.8 {
		t.Fatalf("LSTM failed to learn sum-sign task: accuracy %.2f", acc)
	}
}

func TestLSTMSegmentsTileFlatVector(t *testing.T) {
	m := NewLSTMClassifier(6, 9, 4)
	segs := m.Segments()
	if len(segs) != 2 {
		t.Fatalf("want recurrent + read-out segments, got %d", len(segs))
	}
	if segs[0].Offset != 0 || segs[0].Len+segs[1].Len != m.NumParams() || segs[1].Offset != segs[0].Len {
		t.Fatalf("segments %+v do not tile [0,%d)", segs, m.NumParams())
	}
}

func TestLSTMBatchGradientBucketsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	build := func() *LSTMClassifier {
		m := NewLSTMClassifier(4, 6, 3)
		m.Init(rand.New(rand.NewSource(23)))
		return m
	}
	plain, bucketed := build(), build()
	for _, batch := range []int{1, 3} {
		seqs := make([][]tensor.Vector, batch)
		labels := make([]int, batch)
		for i := range seqs {
			length := 2 + rng.Intn(5)
			seqs[i] = make([]tensor.Vector, length)
			for tstep := range seqs[i] {
				seqs[i][tstep] = tensor.NewVector(4)
				seqs[i][tstep].Randomize(rng, 1)
			}
			labels[i] = rng.Intn(3)
		}
		lossPlain := plain.BatchGradient(seqs, labels)
		var order []int
		lossBucketed := bucketed.BatchGradientBuckets(seqs, labels, func(s Segment) {
			order = append(order, s.Offset)
		})
		if lossPlain != lossBucketed {
			t.Fatalf("batch %d: loss %v != %v", batch, lossPlain, lossBucketed)
		}
		for i := range plain.Grads() {
			if plain.Grads()[i] != bucketed.Grads()[i] {
				t.Fatalf("batch %d: gradient element %d differs: %v != %v (must be bit-for-bit)",
					batch, i, plain.Grads()[i], bucketed.Grads()[i])
			}
		}
		if len(order) != 2 || order[0] <= order[1] {
			t.Fatalf("batch %d: ready offsets %v, want read-out (tail) before recurrent (head)", batch, order)
		}
	}
}
