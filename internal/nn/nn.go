// Package nn is the minimal neural-network substrate the training
// experiments run on: dense layers, element-wise activations, classification
// and regression losses, a feed-forward Network container, and an LSTM
// sequence classifier (lstm.go) for the variable-length video workload.
//
// Every model keeps its parameters and gradients in single flat
// tensor.Vector buffers. That mirrors how the paper's systems exchange
// gradients (one fused allreduce over the flattened model) and lets the
// distributed trainers in internal/core hand Grads() directly to a collective
// without any marshalling.
//
// Models compute at minibatch granularity: a pass runs the whole batch through
// one layer before the next, on the blocked matrix kernels of internal/tensor,
// and keeps its activations in workspaces the model owns and reuses across
// steps. Every gradient element still receives exactly the additions of a
// sample-by-sample pass, in sample order, so the results are bit-for-bit
// those of one (DESIGN.md "Model compute").
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"eagersgd/internal/tensor"
)

// Layer is one stage of a feed-forward network. A layer binds views into the
// network's flat parameter and gradient vectors, then transforms a minibatch
// of activations forward and its gradients backward.
type Layer interface {
	// NumParams returns how many scalar parameters the layer owns.
	NumParams() int
	// Bind hands the layer its views of the network's flat parameter and
	// gradient vectors. Both have length NumParams().
	Bind(params, grads tensor.Vector)
	// Init initializes the bound parameters.
	Init(rng *rand.Rand)
	// OutputSize returns the length of the activation vector the layer
	// produces for an input of the configured size.
	OutputSize() int
	// Forward computes the layer outputs for a batch of inputs. The outputs
	// belong to the layer and stay valid until its next Forward; the inputs
	// must stay unchanged until the matching Backward.
	Forward(xs []tensor.Vector) []tensor.Vector
	// Backward consumes dL/d(output) for the batch of the preceding Forward,
	// accumulates parameter gradients into the bound gradient view in sample
	// order, and returns dL/d(input), owned by the layer like Forward's
	// outputs. With needInput false it returns nil and skips that work: the
	// first layer's input gradient has no consumer.
	Backward(dOuts []tensor.Vector, needInput bool) []tensor.Vector
}

// workspace is a reusable batch of equal-length vectors carved from one
// backing array. It grows to the largest batch it has held and is reused
// across steps, so a steady-state pass allocates nothing.
type workspace struct {
	buf tensor.Vector
	vs  []tensor.Vector
}

// get returns n vectors of length size with stale contents, valid until the
// next get.
func (w *workspace) get(n, size int) []tensor.Vector {
	if n*size > len(w.buf) {
		w.buf = tensor.NewVector(n * size)
	}
	if n > cap(w.vs) {
		w.vs = make([]tensor.Vector, n)
	}
	vs := w.vs[:n]
	for s := range vs {
		vs[s] = w.buf[s*size : (s+1)*size : (s+1)*size]
	}
	return vs
}

// Dense is a fully connected layer: y = W*x + b.
type Dense struct {
	In, Out int

	w *tensor.Matrix
	b tensor.Vector

	gw *tensor.Matrix
	gb tensor.Vector

	in         []tensor.Vector // inputs of the last Forward
	outs, dIns workspace
}

// NewDense creates a fully connected layer with the given fan-in and fan-out.
func NewDense(in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %dx%d", out, in))
	}
	return &Dense{In: in, Out: out}
}

// NumParams returns Out*In weights plus Out biases.
func (d *Dense) NumParams() int { return d.Out*d.In + d.Out }

// OutputSize returns the fan-out.
func (d *Dense) OutputSize() int { return d.Out }

// Bind attaches parameter and gradient views.
func (d *Dense) Bind(params, grads tensor.Vector) {
	if len(params) != d.NumParams() || len(grads) != d.NumParams() {
		panic(fmt.Sprintf("nn: dense bind size %d/%d, want %d", len(params), len(grads), d.NumParams()))
	}
	nw := d.Out * d.In
	d.w, _ = tensor.MatrixFromData(d.Out, d.In, params[:nw])
	d.b = params[nw:]
	d.gw, _ = tensor.MatrixFromData(d.Out, d.In, grads[:nw])
	d.gb = grads[nw:]
}

// Init applies Xavier initialization to the weights and zeros the biases.
func (d *Dense) Init(rng *rand.Rand) {
	d.w.XavierInit(rng)
	d.b.Zero()
}

// Forward computes W*x + b for every sample with one pass over W.
func (d *Dense) Forward(xs []tensor.Vector) []tensor.Vector {
	outs := d.outs.get(len(xs), d.Out)
	d.w.MulMat(xs, outs)
	for _, out := range outs {
		out.Add(d.b)
	}
	d.in = xs
	return outs
}

// Backward accumulates dW (one pass over it for the batch) and db, and
// returns dL/dx when asked.
func (d *Dense) Backward(dOuts []tensor.Vector, needInput bool) []tensor.Vector {
	d.gw.AddOuters(dOuts, d.in)
	for _, g := range dOuts {
		d.gb.Add(g)
	}
	if !needInput {
		return nil
	}
	dIns := d.dIns.get(len(dOuts), d.In)
	for s, g := range dOuts {
		d.w.MulVecT(g, dIns[s])
	}
	return dIns
}

// activation is a parameter-free element-wise layer.
type activation struct {
	size       int
	fn         func(float64) float64
	deriv      func(x, y float64) float64 // derivative given input x and output y
	name       string
	in, out    []tensor.Vector // inputs and outputs of the last Forward
	outs, dIns workspace
}

// NewReLU returns a rectified linear activation for vectors of length size.
func NewReLU(size int) Layer {
	return &activation{
		size: size,
		name: "relu",
		fn:   func(x float64) float64 { return math.Max(0, x) },
		deriv: func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		},
	}
}

// NewTanh returns a hyperbolic tangent activation for vectors of length size.
func NewTanh(size int) Layer {
	return &activation{
		size:  size,
		name:  "tanh",
		fn:    math.Tanh,
		deriv: func(_, y float64) float64 { return 1 - y*y },
	}
}

// NewSigmoid returns a logistic activation for vectors of length size.
func NewSigmoid(size int) Layer {
	return &activation{
		size:  size,
		name:  "sigmoid",
		fn:    sigmoid,
		deriv: func(_, y float64) float64 { return y * (1 - y) },
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func (a *activation) NumParams() int          { return 0 }
func (a *activation) OutputSize() int         { return a.size }
func (a *activation) Bind(_, _ tensor.Vector) {}
func (a *activation) Init(_ *rand.Rand)       {}
func (a *activation) String() string          { return a.name }

func (a *activation) Forward(xs []tensor.Vector) []tensor.Vector {
	outs := a.outs.get(len(xs), a.size)
	for s, x := range xs {
		if len(x) != a.size {
			panic(fmt.Sprintf("nn: %s forward input %d, want %d", a.name, len(x), a.size))
		}
		out := outs[s]
		for i, v := range x {
			out[i] = a.fn(v)
		}
	}
	a.in, a.out = xs, outs
	return outs
}

func (a *activation) Backward(dOuts []tensor.Vector, needInput bool) []tensor.Vector {
	if !needInput {
		return nil
	}
	dIns := a.dIns.get(len(dOuts), a.size)
	for s, g := range dOuts {
		in, out, dIn := a.in[s], a.out[s], dIns[s]
		for i, gi := range g {
			dIn[i] = gi * a.deriv(in[i], out[i])
		}
	}
	return dIns
}

// Loss maps a prediction and target to a scalar loss and its gradient with
// respect to the prediction.
type Loss interface {
	// Loss returns the scalar loss for one sample.
	Loss(pred, target tensor.Vector) float64
	// LossGrad returns the scalar loss for one sample — the value Loss
	// returns — and writes dLoss/dPred into grad.
	LossGrad(pred, target, grad tensor.Vector) float64
	// Name identifies the loss in logs.
	Name() string
}

// MSE is the mean squared error loss 0.5*||pred-target||^2 (the 0.5 keeps the
// gradient free of constants).
type MSE struct{}

// Name returns "mse".
func (MSE) Name() string { return "mse" }

// Loss returns 0.5 * squared error.
func (MSE) Loss(pred, target tensor.Vector) float64 {
	var s float64
	for i, p := range pred {
		d := p - target[i]
		s += d * d
	}
	return 0.5 * s
}

// LossGrad returns 0.5 * squared error and writes pred - target into grad.
func (MSE) LossGrad(pred, target, grad tensor.Vector) float64 {
	var s float64
	for i, p := range pred {
		d := p - target[i]
		grad[i] = d
		s += d * d
	}
	return 0.5 * s
}

// SoftmaxCrossEntropy combines a softmax output layer with the cross-entropy
// loss; its gradient is the numerically stable softmax(pred)-onehot form. The
// target vector is a one-hot encoding of the class.
type SoftmaxCrossEntropy struct{}

// Name returns "softmax-xent".
func (SoftmaxCrossEntropy) Name() string { return "softmax-xent" }

// softmax writes the softmax distribution of logits into out.
func softmax(logits, out tensor.Vector) {
	maxLogit, _ := logits.Max()
	var sum float64
	for i, l := range logits {
		out[i] = math.Exp(l - maxLogit)
		sum += out[i]
	}
	out.Scale(1 / sum)
}

// Loss returns the cross entropy between softmax(pred) and the one-hot
// target. It evaluates softmax(pred)[i] — exp(pred[i]-max) times the
// normalizer, as softmax computes it — only where the target is positive, so
// it needs no buffer.
func (SoftmaxCrossEntropy) Loss(pred, target tensor.Vector) float64 {
	maxLogit, _ := pred.Max()
	var sum float64
	for _, l := range pred {
		sum += math.Exp(l - maxLogit)
	}
	inv := 1 / sum
	var loss float64
	for i, t := range target {
		if t > 0 {
			loss -= t * math.Log(math.Max(math.Exp(pred[i]-maxLogit)*inv, 1e-12))
		}
	}
	return loss
}

// LossGrad returns the cross entropy and writes softmax(pred) - target into
// grad, computing the softmax once for both.
func (SoftmaxCrossEntropy) LossGrad(pred, target, grad tensor.Vector) float64 {
	softmax(pred, grad)
	var loss float64
	for i, t := range target {
		if t > 0 {
			loss -= t * math.Log(math.Max(grad[i], 1e-12))
		}
	}
	grad.Sub(target)
	return loss
}

// OneHot returns a one-hot vector of the given length with index class set.
func OneHot(class, length int) tensor.Vector {
	if class < 0 || class >= length {
		panic(fmt.Sprintf("nn: one-hot class %d out of range [0,%d)", class, length))
	}
	v := tensor.NewVector(length)
	v[class] = 1
	return v
}

// OneHots returns the one-hot target of every class of a classes-way
// classification, indexed by class: minted once, read by every sample.
func OneHots(classes int) []tensor.Vector {
	vs := make([]tensor.Vector, classes)
	for c := range vs {
		vs[c] = OneHot(c, classes)
	}
	return vs
}

// Segment describes one layer-aligned slice of a model's flat parameter and
// gradient vectors — the natural bucket boundary of a bucketed gradient
// exchange: the slice [Offset, Offset+Len) of Params()/Grads() belongs to one
// layer, so it becomes final (and exchangeable) as soon as that layer's
// backward pass completes.
type Segment struct {
	// Name identifies the owning layer in diagnostics.
	Name string
	// Offset is the segment's start within the flat vectors.
	Offset int
	// Len is the segment's element count.
	Len int
}

// Network is a feed-forward stack of layers with a loss, holding all
// parameters and gradients in flat vectors.
type Network struct {
	layers   []Layer
	segments []Segment // per layer; Len is 0 for a parameter-free layer
	loss     Loss
	params   tensor.Vector
	grads    tensor.Vector
	dPreds   workspace
}

// NewNetwork assembles the layers into a network and allocates the flat
// parameter and gradient buffers. Call Init before training.
func NewNetwork(loss Loss, layers ...Layer) *Network {
	if loss == nil {
		panic("nn: nil loss")
	}
	if len(layers) == 0 {
		panic("nn: network needs at least one layer")
	}
	total := 0
	for _, l := range layers {
		total += l.NumParams()
	}
	n := &Network{
		layers:   layers,
		segments: make([]Segment, len(layers)),
		loss:     loss,
		params:   tensor.NewVector(total),
		grads:    tensor.NewVector(total),
	}
	off := 0
	for i, l := range layers {
		sz := l.NumParams()
		n.segments[i] = Segment{Name: layerName(i, l), Offset: off, Len: sz}
		l.Bind(n.params[off:off+sz], n.grads[off:off+sz])
		off += sz
	}
	return n
}

// layerName labels a layer for Segment diagnostics.
func layerName(i int, l Layer) string {
	if s, ok := l.(fmt.Stringer); ok {
		return fmt.Sprintf("%d:%s", i, s.String())
	}
	return fmt.Sprintf("%d:%T", i, l)
}

// Segments returns the layer-aligned segments of the flat parameter and
// gradient vectors in layer (offset) order, one per layer that owns
// parameters. The segments tile [0, NumParams()) exactly when every layer has
// parameters; parameter-free layers (activations) own no segment.
func (n *Network) Segments() []Segment {
	var segs []Segment
	for _, s := range n.segments {
		if s.Len > 0 {
			segs = append(segs, s)
		}
	}
	return segs
}

// Init initializes every layer's parameters.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.layers {
		l.Init(rng)
	}
}

// NumParams returns the total parameter count.
func (n *Network) NumParams() int { return len(n.params) }

// Params returns the flat parameter vector (aliased by the layers).
func (n *Network) Params() tensor.Vector { return n.params }

// Grads returns the flat gradient vector (aliased by the layers).
func (n *Network) Grads() tensor.Vector { return n.grads }

// ZeroGrads clears the accumulated gradients.
func (n *Network) ZeroGrads() { n.grads.Zero() }

// Forward runs a batch of samples through the network, one layer at a time,
// and returns their outputs. The outputs belong to the network and stay valid
// until its next Forward or gradient computation.
func (n *Network) Forward(xs []tensor.Vector) []tensor.Vector {
	out := xs
	for _, l := range n.layers {
		out = l.Forward(out)
	}
	return out
}

// accumulate runs the batch forward and backward, adding every sample's
// parameter gradients into Grads in sample order, and returns the summed
// loss. layerDone(i), when non-nil, runs right after layer i's batch
// backward: the moment that layer's gradient segment is final.
func (n *Network) accumulate(xs, targets []tensor.Vector, layerDone func(i int)) float64 {
	preds := n.Forward(xs)
	dPreds := n.dPreds.get(len(preds), n.layers[len(n.layers)-1].OutputSize())
	var total float64
	for s, pred := range preds {
		total += n.loss.LossGrad(pred, targets[s], dPreds[s])
	}
	g := dPreds
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(g, i > 0)
		if layerDone != nil {
			layerDone(i)
		}
	}
	return total
}

// AccumulateGradient runs forward and backward for one sample — a batch of
// one — and returns its loss. Gradients accumulate into Grads (call ZeroGrads
// between batches and scale by the batch size afterwards).
func (n *Network) AccumulateGradient(x, target tensor.Vector) float64 {
	return n.accumulate([]tensor.Vector{x}, []tensor.Vector{target}, nil)
}

// BatchGradient zeroes the gradients, accumulates over the batch, divides by
// the batch size, and returns the mean loss.
func (n *Network) BatchGradient(xs, targets []tensor.Vector) float64 {
	return n.BatchGradientBuckets(xs, targets, nil)
}

// BatchGradientBuckets computes exactly the gradients of BatchGradient but
// announces each layer's segment through ready as soon as it is final: right
// after that layer's batch backward, in reverse layer order (the output
// layer's gradient settles first). Each segment is already scaled by the
// batch size when its notification fires, so the callback may hand
// Grads()[Offset:Offset+Len] straight to a gradient exchange while the
// remaining layers are still backpropagating. A nil ready degrades to
// BatchGradient.
func (n *Network) BatchGradientBuckets(xs, targets []tensor.Vector, ready func(Segment)) float64 {
	if len(xs) != len(targets) {
		panic(fmt.Sprintf("nn: batch size mismatch %d inputs vs %d targets", len(xs), len(targets)))
	}
	if len(xs) == 0 {
		panic("nn: empty batch")
	}
	n.ZeroGrads()
	inv := 1 / float64(len(xs))
	total := n.accumulate(xs, targets, func(i int) {
		seg := n.segments[i]
		if seg.Len == 0 {
			return
		}
		n.grads[seg.Offset : seg.Offset+seg.Len].Scale(inv)
		if ready != nil {
			ready(seg)
		}
	})
	return total * inv
}

// Loss returns the network's loss function.
func (n *Network) Loss() Loss { return n.loss }
