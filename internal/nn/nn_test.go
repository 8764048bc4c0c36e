package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eagersgd/internal/tensor"
)

func TestDenseShapeAndParams(t *testing.T) {
	d := NewDense(3, 2)
	if d.NumParams() != 8 {
		t.Fatalf("NumParams = %d, want 8", d.NumParams())
	}
	if d.OutputSize() != 2 {
		t.Fatalf("OutputSize = %d", d.OutputSize())
	}
}

func TestDenseInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(0, 3)
}

func TestDenseForwardKnownValues(t *testing.T) {
	d := NewDense(2, 2)
	params := tensor.Vector{1, 2, 3, 4, 10, 20} // W=[[1,2],[3,4]], b=[10,20]
	grads := tensor.NewVector(6)
	d.Bind(params, grads)
	out := d.Forward([]tensor.Vector{{1, 1}})[0]
	if !out.Equal(tensor.Vector{13, 27}) {
		t.Fatalf("Forward = %v", out)
	}
}

func TestDenseBackwardAccumulates(t *testing.T) {
	d := NewDense(2, 1)
	params := tensor.Vector{2, 3, 0}
	grads := tensor.NewVector(3)
	d.Bind(params, grads)
	d.Forward([]tensor.Vector{{5, 7}})
	dIn := d.Backward([]tensor.Vector{{1}}, true)[0]
	// dW = dOut * x^T = [5, 7]; db = 1; dx = W^T*dOut = [2, 3].
	if !grads.Equal(tensor.Vector{5, 7, 1}) {
		t.Fatalf("grads = %v", grads)
	}
	if !dIn.Equal(tensor.Vector{2, 3}) {
		t.Fatalf("dIn = %v", dIn)
	}
	// A second backward must accumulate, not overwrite.
	d.Forward([]tensor.Vector{{5, 7}})
	if d.Backward([]tensor.Vector{{1}}, false) != nil {
		t.Fatal("Backward without needInput returned an input gradient")
	}
	if !grads.Equal(tensor.Vector{10, 14, 2}) {
		t.Fatalf("grads after second backward = %v", grads)
	}
}

func TestActivations(t *testing.T) {
	relu := NewReLU(3)
	out := relu.Forward([]tensor.Vector{{-1, 0, 2}})[0]
	if !out.Equal(tensor.Vector{0, 0, 2}) {
		t.Fatalf("relu forward = %v", out)
	}
	dIn := relu.Backward([]tensor.Vector{{1, 1, 1}}, true)[0]
	if !dIn.Equal(tensor.Vector{0, 0, 1}) {
		t.Fatalf("relu backward = %v", dIn)
	}

	tanhL := NewTanh(1)
	y := tanhL.Forward([]tensor.Vector{{0.5}})[0]
	if math.Abs(y[0]-math.Tanh(0.5)) > 1e-12 {
		t.Fatalf("tanh forward = %v", y)
	}
	g := tanhL.Backward([]tensor.Vector{{1}}, true)[0]
	if math.Abs(g[0]-(1-y[0]*y[0])) > 1e-12 {
		t.Fatalf("tanh backward = %v", g)
	}

	sig := NewSigmoid(1)
	y = sig.Forward([]tensor.Vector{{0}})[0]
	if math.Abs(y[0]-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", y)
	}
	if sig.NumParams() != 0 || tanhL.NumParams() != 0 || relu.NumParams() != 0 {
		t.Fatal("activations must have no parameters")
	}
}

func TestMSELoss(t *testing.T) {
	var mse MSE
	if mse.Name() == "" {
		t.Fatal("empty loss name")
	}
	l := mse.Loss(tensor.Vector{1, 2}, tensor.Vector{0, 0})
	if math.Abs(l-2.5) > 1e-12 {
		t.Fatalf("MSE loss = %v, want 2.5", l)
	}
	g := tensor.NewVector(2)
	l = mse.LossGrad(tensor.Vector{1, 2}, tensor.Vector{0, 1}, g)
	if !g.Equal(tensor.Vector{1, 1}) || l != 1 {
		t.Fatalf("MSE LossGrad = %v, grad %v", l, g)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make(tensor.Vector, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			logits = append(logits, math.Mod(x, 50))
		}
		p := tensor.NewVector(len(logits))
		softmax(logits, p)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	var xent SoftmaxCrossEntropy
	if xent.Name() == "" {
		t.Fatal("empty loss name")
	}
	// Uniform logits over 4 classes: loss = ln(4).
	l := xent.Loss(tensor.Vector{1, 1, 1, 1}, OneHot(2, 4))
	if math.Abs(l-math.Log(4)) > 1e-9 {
		t.Fatalf("xent loss = %v, want ln4", l)
	}
	g := tensor.NewVector(4)
	lg := xent.LossGrad(tensor.Vector{1, 1, 1, 1}, OneHot(2, 4), g)
	if math.Abs(g[2]-(0.25-1)) > 1e-9 || math.Abs(g[0]-0.25) > 1e-9 {
		t.Fatalf("xent grad = %v", g)
	}
	if lg != l {
		t.Fatalf("LossGrad loss %v != Loss %v", lg, l)
	}
}

func TestOneHotPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneHot(5, 3)
}

func TestNetworkConstruction(t *testing.T) {
	net := NewNetwork(MSE{}, NewDense(4, 8), NewReLU(8), NewDense(8, 2))
	want := 4*8 + 8 + 8*2 + 2
	if net.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", net.NumParams(), want)
	}
	if len(net.Params()) != want || len(net.Grads()) != want {
		t.Fatal("flat buffers have wrong length")
	}
	net.Init(rand.New(rand.NewSource(1)))
	if net.Params().Norm2() == 0 {
		t.Fatal("Init left all parameters zero")
	}
	if net.Loss().Name() != "mse" {
		t.Fatalf("Loss() = %v", net.Loss().Name())
	}
}

func TestNetworkParamsAliasLayers(t *testing.T) {
	net := NewNetwork(MSE{}, NewDense(1, 1))
	net.Params()[0] = 3 // weight
	net.Params()[1] = 1 // bias
	out := net.Forward([]tensor.Vector{{2}})[0]
	if out[0] != 7 {
		t.Fatalf("Forward = %v, want 7 (params not aliased)", out)
	}
}

func TestBatchGradientAveragesAndZeroes(t *testing.T) {
	net := NewNetwork(MSE{}, NewDense(1, 1))
	net.Params()[0] = 1
	net.Params()[1] = 0
	// Pollute the gradient buffer; BatchGradient must reset it.
	net.Grads().Fill(42)
	xs := []tensor.Vector{{1}, {3}}
	ys := []tensor.Vector{{0}, {0}}
	loss := net.BatchGradient(xs, ys)
	// Per-sample losses: 0.5*1, 0.5*9 => mean 2.5.
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("batch loss = %v", loss)
	}
	// dW per sample: (pred-target)*x = 1*1=1 and 3*3=9 => mean 5; db mean 2.
	if math.Abs(net.Grads()[0]-5) > 1e-12 || math.Abs(net.Grads()[1]-2) > 1e-12 {
		t.Fatalf("batch grads = %v", net.Grads())
	}
}

func TestBatchGradientValidation(t *testing.T) {
	net := NewNetwork(MSE{}, NewDense(1, 1))
	for _, fn := range []func(){
		func() { net.BatchGradient(nil, nil) },
		func() { net.BatchGradient([]tensor.Vector{{1}}, nil) },
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

// lossValue returns the loss of one sample without touching gradients.
func lossValue(net *Network, x, target tensor.Vector) float64 {
	return net.Loss().Loss(net.Forward([]tensor.Vector{x})[0], target)
}

// numericalGradient estimates dLoss/dParams with central differences.
func numericalGradient(params tensor.Vector, lossFn func() float64) tensor.Vector {
	const eps = 1e-5
	grad := tensor.NewVector(len(params))
	for i := range params {
		orig := params[i]
		params[i] = orig + eps
		up := lossFn()
		params[i] = orig - eps
		down := lossFn()
		params[i] = orig
		grad[i] = (up - down) / (2 * eps)
	}
	return grad
}

func TestNetworkGradientMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(SoftmaxCrossEntropy{}, NewDense(5, 7), NewTanh(7), NewDense(7, 3))
	net.Init(rng)
	x := tensor.NewVector(5)
	x.Randomize(rng, 1)
	target := OneHot(1, 3)

	net.ZeroGrads()
	net.AccumulateGradient(x, target)
	analytic := net.Grads().Clone()
	numeric := numericalGradient(net.Params(), func() float64 { return lossValue(net, x, target) })

	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := math.Max(1e-6, math.Abs(analytic[i])+math.Abs(numeric[i]))
		if diff/scale > 1e-4 {
			t.Fatalf("gradient mismatch at %d: analytic %v numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func TestNetworkGradientMatchesNumericalMSEReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork(MSE{}, NewDense(4, 6), NewReLU(6), NewDense(6, 2), NewSigmoid(2))
	net.Init(rng)
	x := tensor.NewVector(4)
	x.Randomize(rng, 1)
	target := tensor.Vector{0.3, 0.9}

	net.ZeroGrads()
	net.AccumulateGradient(x, target)
	analytic := net.Grads().Clone()
	numeric := numericalGradient(net.Params(), func() float64 { return lossValue(net, x, target) })

	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := math.Max(1e-6, math.Abs(analytic[i])+math.Abs(numeric[i]))
		if diff/scale > 1e-3 {
			t.Fatalf("gradient mismatch at %d: analytic %v numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func TestNetworkLearnsLinearRegression(t *testing.T) {
	// One dense layer must recover a linear relationship with plain SGD.
	rng := rand.New(rand.NewSource(11))
	const dim = 8
	truth := tensor.NewVector(dim)
	truth.Randomize(rng, 1)
	net := NewNetwork(MSE{}, NewDense(dim, 1))
	net.Init(rng)

	const lr = 0.1
	for step := 0; step < 400; step++ {
		xs := make([]tensor.Vector, 16)
		ys := make([]tensor.Vector, 16)
		for i := range xs {
			x := tensor.NewVector(dim)
			x.Randomize(rng, 1)
			xs[i] = x
			ys[i] = tensor.Vector{truth.Dot(x)}
		}
		net.BatchGradient(xs, ys)
		net.Params().Axpy(-lr, net.Grads())
	}
	// Evaluate on fresh data.
	var worst float64
	for i := 0; i < 50; i++ {
		x := tensor.NewVector(dim)
		x.Randomize(rng, 1)
		pred := net.Forward([]tensor.Vector{x})[0][0]
		if err := math.Abs(pred - truth.Dot(x)); err > worst {
			worst = err
		}
	}
	if worst > 0.05 {
		t.Fatalf("regression did not converge: worst error %v", worst)
	}
}

func TestNetworkLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(SoftmaxCrossEntropy{}, NewDense(2, 8), NewTanh(8), NewDense(8, 2))
	net.Init(rng)
	xs := []tensor.Vector{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	targets := make([]tensor.Vector, 4)
	for i, l := range labels {
		targets[i] = OneHot(l, 2)
	}
	for step := 0; step < 2000; step++ {
		net.BatchGradient(xs, targets)
		net.Params().Axpy(-0.5, net.Grads())
	}
	for i, x := range xs {
		if got := net.Forward([]tensor.Vector{x})[0].ArgMax(); got != labels[i] {
			t.Fatalf("XOR not learned: input %v predicted %d, want %d", x, got, labels[i])
		}
	}
}

func TestNetworkSegmentsTileFlatVector(t *testing.T) {
	net := NewNetwork(SoftmaxCrossEntropy{}, NewDense(6, 16), NewReLU(16), NewDense(16, 8), NewTanh(8), NewDense(8, 3))
	segs := net.Segments()
	if len(segs) != 3 {
		t.Fatalf("want one segment per parameterized layer (3), got %d", len(segs))
	}
	off := 0
	for _, s := range segs {
		if s.Offset != off {
			t.Fatalf("segment %q offset %d, want %d (segments must tile the flat vector)", s.Name, s.Offset, off)
		}
		if s.Len <= 0 {
			t.Fatalf("segment %q has non-positive length %d", s.Name, s.Len)
		}
		off += s.Len
	}
	if off != net.NumParams() {
		t.Fatalf("segments cover %d elements, want %d", off, net.NumParams())
	}
}

func TestNetworkBatchGradientBucketsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func() *Network {
		net := NewNetwork(MSE{}, NewDense(5, 12), NewTanh(12), NewDense(12, 7), NewReLU(7), NewDense(7, 2))
		net.Init(rand.New(rand.NewSource(99)))
		return net
	}
	plain, bucketed := build(), build()
	for _, batch := range []int{1, 4} {
		xs := make([]tensor.Vector, batch)
		ys := make([]tensor.Vector, batch)
		for i := range xs {
			xs[i] = tensor.NewVector(5)
			xs[i].Randomize(rng, 1)
			ys[i] = tensor.NewVector(2)
			ys[i].Randomize(rng, 1)
		}
		lossPlain := plain.BatchGradient(xs, ys)
		var order []int
		lossBucketed := bucketed.BatchGradientBuckets(xs, ys, func(s Segment) {
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
		if len(order) != 3 {
			t.Fatalf("batch %d: %d ready notifications, want 3", batch, len(order))
		}
		for i := 1; i < len(order); i++ {
			if order[i] >= order[i-1] {
				t.Fatalf("batch %d: ready offsets %v not in reverse layer order", batch, order)
			}
		}
	}
}
