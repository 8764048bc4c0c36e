package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eagersgd/internal/tensor"
)

// This file keeps the per-sample model code the batched path replaced, as the
// reference oracle of the differential tests below: one sample at a time
// through every layer, on the naive one-row kernels, allocating as it goes.
// The batched models must reproduce its gradients, losses and logits bit for
// bit — the guarantee that keeps sync-SGD runs identical across the change.

func refMulVec(m *tensor.Matrix, x, out tensor.Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = s
	}
}

func refMulVecT(m *tensor.Matrix, x, out tensor.Vector) {
	out.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, w := range row {
			out[j] += w * xi
		}
	}
}

func refAddOuter(m *tensor.Matrix, alpha float64, x, y tensor.Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		ax := alpha * x[i]
		if ax == 0 {
			continue
		}
		for j, yj := range y {
			row[j] += ax * yj
		}
	}
}

func refSoftmax(logits tensor.Vector) tensor.Vector {
	maxLogit, _ := logits.Max()
	out := tensor.NewVector(len(logits))
	var sum float64
	for i, l := range logits {
		out[i] = math.Exp(l - maxLogit)
		sum += out[i]
	}
	out.Scale(1 / sum)
	return out
}

// refLoss and refGrad are the parent's Loss.Loss and Loss.Grad: the softmax
// is computed (and allocated) by each.
func refLoss(loss Loss, pred, target tensor.Vector) float64 {
	if _, ok := loss.(MSE); ok {
		return MSE{}.Loss(pred, target)
	}
	probs := refSoftmax(pred)
	var l float64
	for i, t := range target {
		if t > 0 {
			l -= t * math.Log(math.Max(probs[i], 1e-12))
		}
	}
	return l
}

func refGrad(loss Loss, pred, target tensor.Vector) tensor.Vector {
	var out tensor.Vector
	if _, ok := loss.(MSE); ok {
		out = pred.Clone()
	} else {
		out = refSoftmax(pred)
	}
	out.Sub(target)
	return out
}

type refLayer interface {
	forward(x tensor.Vector) tensor.Vector
	backward(dOut tensor.Vector) tensor.Vector
}

type refDense struct {
	w, gw  *tensor.Matrix
	b, gb  tensor.Vector
	lastIn tensor.Vector
}

func (d *refDense) forward(x tensor.Vector) tensor.Vector {
	d.lastIn = x.Clone()
	out := tensor.NewVector(d.w.Rows)
	refMulVec(d.w, x, out)
	out.Add(d.b)
	return out
}

func (d *refDense) backward(dOut tensor.Vector) tensor.Vector {
	refAddOuter(d.gw, 1, dOut, d.lastIn)
	d.gb.Add(dOut)
	dIn := tensor.NewVector(d.w.Cols)
	refMulVecT(d.w, dOut, dIn)
	return dIn
}

type refActivation struct {
	fn              func(float64) float64
	deriv           func(x, y float64) float64
	lastIn, lastOut tensor.Vector
}

func (a *refActivation) forward(x tensor.Vector) tensor.Vector {
	a.lastIn = x.Clone()
	out := tensor.NewVector(len(x))
	for i, v := range x {
		out[i] = a.fn(v)
	}
	a.lastOut = out.Clone()
	return out
}

func (a *refActivation) backward(dOut tensor.Vector) tensor.Vector {
	dIn := tensor.NewVector(len(dOut))
	for i, g := range dOut {
		dIn[i] = g * a.deriv(a.lastIn[i], a.lastOut[i])
	}
	return dIn
}

// refNetwork is the parent's Network over its own copy of net's parameters.
type refNetwork struct {
	layers        []refLayer
	loss          Loss
	params, grads tensor.Vector
}

func newRefNetwork(net *Network) *refNetwork {
	r := &refNetwork{loss: net.loss, params: net.params.Clone(), grads: tensor.NewVector(len(net.params))}
	for i, l := range net.layers {
		seg := net.segments[i]
		p, g := r.params[seg.Offset:seg.Offset+seg.Len], r.grads[seg.Offset:seg.Offset+seg.Len]
		switch l := l.(type) {
		case *Dense:
			nw := l.Out * l.In
			w, _ := tensor.MatrixFromData(l.Out, l.In, p[:nw])
			gw, _ := tensor.MatrixFromData(l.Out, l.In, g[:nw])
			r.layers = append(r.layers, &refDense{w: w, gw: gw, b: p[nw:], gb: g[nw:]})
		case *activation:
			r.layers = append(r.layers, &refActivation{fn: l.fn, deriv: l.deriv})
		default:
			panic(fmt.Sprintf("no reference for %T", l))
		}
	}
	return r
}

func (r *refNetwork) forward(x tensor.Vector) tensor.Vector {
	for _, l := range r.layers {
		x = l.forward(x)
	}
	return x
}

// accumulate is the parent's AccumulateGradient; it also returns the
// prediction.
func (r *refNetwork) accumulate(x, target tensor.Vector) (float64, tensor.Vector) {
	pred := r.forward(x)
	loss := refLoss(r.loss, pred, target)
	g := refGrad(r.loss, pred, target)
	for l := len(r.layers) - 1; l >= 0; l-- {
		g = r.layers[l].backward(g)
	}
	return loss, pred
}

// batchGradient is the parent's BatchGradient; it also returns each sample's
// prediction.
func (r *refNetwork) batchGradient(xs, targets []tensor.Vector) (float64, []tensor.Vector) {
	r.grads.Zero()
	var total float64
	preds := make([]tensor.Vector, len(xs))
	for i, x := range xs {
		var l float64
		l, preds[i] = r.accumulate(x, targets[i])
		total += l
	}
	inv := 1 / float64(len(xs))
	r.grads.Scale(inv)
	return total * inv, preds
}

// refLSTM is the parent's LSTMClassifier over its own copy of m's parameters.
type refLSTM struct {
	h, classes                    int
	params, grads                 tensor.Vector
	wx, wh, wout, gwx, gwh, gwout *tensor.Matrix
	bias, bout, gbias, gbout      tensor.Vector
}

func newRefLSTM(m *LSTMClassifier) *refLSTM {
	r := &refLSTM{h: m.HiddenSize, classes: m.NumClasses, params: m.params.Clone(), grads: tensor.NewVector(len(m.params))}
	h, in, c := m.HiddenSize, m.InputSize, m.NumClasses
	off := 0
	view := func(v tensor.Vector, n int) tensor.Vector { return v[off : off+n] }
	mat := func(rows, cols int) (*tensor.Matrix, *tensor.Matrix) {
		w, _ := tensor.MatrixFromData(rows, cols, view(r.params, rows*cols))
		g, _ := tensor.MatrixFromData(rows, cols, view(r.grads, rows*cols))
		off += rows * cols
		return w, g
	}
	vec := func(n int) (tensor.Vector, tensor.Vector) {
		p, g := view(r.params, n), view(r.grads, n)
		off += n
		return p, g
	}
	r.wx, r.gwx = mat(4*h, in)
	r.wh, r.gwh = mat(4*h, h)
	r.bias, r.gbias = vec(4 * h)
	r.wout, r.gwout = mat(c, h)
	r.bout, r.gbout = vec(c)
	return r
}

type refStep struct {
	x, hPrev, cPrev, i, f, g, o, c, h tensor.Vector
}

func (r *refLSTM) forward(seq []tensor.Vector) (tensor.Vector, []refStep) {
	h := r.h
	hState, cState := tensor.NewVector(h), tensor.NewVector(h)
	var caches []refStep
	pre, preH := tensor.NewVector(4*h), tensor.NewVector(4*h)
	for _, x := range seq {
		refMulVec(r.wx, x, pre)
		refMulVec(r.wh, hState, preH)
		pre.Add(preH)
		pre.Add(r.bias)
		ig, fg, gg, og := tensor.NewVector(h), tensor.NewVector(h), tensor.NewVector(h), tensor.NewVector(h)
		for j := 0; j < h; j++ {
			ig[j] = sigmoid(pre[j])
			fg[j] = sigmoid(pre[h+j])
			gg[j] = tanh(pre[2*h+j])
			og[j] = sigmoid(pre[3*h+j])
		}
		newC, newH := tensor.NewVector(h), tensor.NewVector(h)
		for j := 0; j < h; j++ {
			newC[j] = fg[j]*cState[j] + ig[j]*gg[j]
			newH[j] = og[j] * tanh(newC[j])
		}
		caches = append(caches, refStep{x: x, hPrev: hState.Clone(), cPrev: cState.Clone(),
			i: ig, f: fg, g: gg, o: og, c: newC.Clone(), h: newH.Clone()})
		hState, cState = newH, newC
	}
	logits := tensor.NewVector(r.classes)
	refMulVec(r.wout, hState, logits)
	logits.Add(r.bout)
	return logits, caches
}

func (r *refLSTM) accumulate(seq []tensor.Vector, label int) (float64, tensor.Vector) {
	h := r.h
	logits, caches := r.forward(seq)
	target := OneHot(label, r.classes)
	loss := refLoss(SoftmaxCrossEntropy{}, logits, target)
	dLogits := refGrad(SoftmaxCrossEntropy{}, logits, target)
	refAddOuter(r.gwout, 1, dLogits, caches[len(caches)-1].h)
	r.gbout.Add(dLogits)
	dh, dc := tensor.NewVector(h), tensor.NewVector(h)
	refMulVecT(r.wout, dLogits, dh)
	dPre, scratch := tensor.NewVector(4*h), tensor.NewVector(h)
	for t := len(caches) - 1; t >= 0; t-- {
		cc := caches[t]
		for j := 0; j < h; j++ {
			tc := tanh(cc.c[j])
			dcj := dc[j] + dh[j]*cc.o[j]*(1-tc*tc)
			di := dcj * cc.g[j] * cc.i[j] * (1 - cc.i[j])
			df := dcj * cc.cPrev[j] * cc.f[j] * (1 - cc.f[j])
			dg := dcj * cc.i[j] * (1 - cc.g[j]*cc.g[j])
			do := dh[j] * tc * cc.o[j] * (1 - cc.o[j])
			dPre[j], dPre[h+j], dPre[2*h+j], dPre[3*h+j] = di, df, dg, do
			dc[j] = dcj * cc.f[j]
		}
		refAddOuter(r.gwx, 1, dPre, cc.x)
		refAddOuter(r.gwh, 1, dPre, cc.hPrev)
		r.gbias.Add(dPre)
		refMulVecT(r.wh, dPre, scratch)
		dh.CopyFrom(scratch)
	}
	return loss, logits
}

func (r *refLSTM) batchGradient(seqs [][]tensor.Vector, labels []int) (float64, []tensor.Vector) {
	r.grads.Zero()
	var total float64
	logits := make([]tensor.Vector, len(seqs))
	for i, seq := range seqs {
		var l float64
		l, logits[i] = r.accumulate(seq, labels[i])
		total += l
	}
	inv := 1 / float64(len(seqs))
	r.grads.Scale(inv)
	return total * inv, logits
}

func requireSameBits(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%x), want %v (%x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func requireSameLoss(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: loss %v, want %v (must be bit-for-bit)", what, got, want)
	}
}

// sgdStep moves both replicas by the same update, so later batches are
// compared at fresh parameters and the workspaces see several batch sizes.
func sgdStep(params, grads tensor.Vector) { params.Axpy(-0.3, grads) }

func TestNetworkMatchesPerSampleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	acts := map[string]func(int) Layer{"tanh": NewTanh, "relu": NewReLU, "sigmoid": NewSigmoid}
	for _, actName := range []string{"tanh", "relu", "sigmoid"} {
		for _, lossName := range []string{"mse", "xent"} {
			act := acts[actName]
			var loss Loss = MSE{}
			if lossName == "xent" {
				loss = SoftmaxCrossEntropy{}
			}
			in, hidden, hidden2, out := 7+rng.Intn(9), 5+rng.Intn(13), 3+rng.Intn(6), 2+rng.Intn(5)
			build := func() *Network {
				net := NewNetwork(loss, NewDense(in, hidden), act(hidden), NewDense(hidden, hidden2), act(hidden2), NewDense(hidden2, out))
				net.Init(rand.New(rand.NewSource(7)))
				return net
			}
			plain, bucketed := build(), build()
			ref := newRefNetwork(plain)
			for batch := 1; batch <= 9; batch++ {
				name := fmt.Sprintf("%s/%s/batch=%d", actName, lossName, batch)
				xs, ys := make([]tensor.Vector, batch), make([]tensor.Vector, batch)
				for s := range xs {
					xs[s] = tensor.NewVector(in)
					xs[s].Randomize(rng, 2)
					if lossName == "xent" {
						ys[s] = OneHot(rng.Intn(out), out)
					} else {
						ys[s] = tensor.NewVector(out)
						ys[s].Randomize(rng, 1)
					}
				}
				wantLoss, wantPreds := ref.batchGradient(xs, ys)
				requireSameLoss(t, name+" BatchGradient", plain.BatchGradient(xs, ys), wantLoss)
				requireSameBits(t, name+" BatchGradient grads", plain.Grads(), ref.grads)
				segs := 0
				requireSameLoss(t, name+" BatchGradientBuckets",
					bucketed.BatchGradientBuckets(xs, ys, func(Segment) { segs++ }), wantLoss)
				requireSameBits(t, name+" BatchGradientBuckets grads", bucketed.Grads(), ref.grads)
				if segs != 3 {
					t.Fatalf("%s: %d ready notifications, want 3", name, segs)
				}
				for s, pred := range plain.Forward(xs) {
					requireSameBits(t, fmt.Sprintf("%s Forward sample %d", name, s), pred, wantPreds[s])
				}
				for _, p := range [][2]tensor.Vector{{plain.Params(), plain.Grads()}, {bucketed.Params(), bucketed.Grads()}, {ref.params, ref.grads}} {
					sgdStep(p[0], p[1])
				}
			}
		}
	}
}

func TestLSTMMatchesPerSampleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const in, hidden, classes = 5, 7, 4
	build := func() *LSTMClassifier {
		m := NewLSTMClassifier(in, hidden, classes)
		m.Init(rand.New(rand.NewSource(9)))
		return m
	}
	plain, bucketed := build(), build()
	ref := newRefLSTM(plain)
	for round, batch := range []int{1, 3, 5, 2, 4, 1} {
		name := fmt.Sprintf("round %d batch=%d", round, batch)
		seqs, labels := make([][]tensor.Vector, batch), make([]int, batch)
		for s := range seqs {
			length := 1 + rng.Intn(9)
			if s == 0 {
				length = 1 // every batch holds a one-frame sequence
			}
			seqs[s] = randomSequence(rng, length, in)
			labels[s] = rng.Intn(classes)
		}
		wantLoss, wantLogits := ref.batchGradient(seqs, labels)
		requireSameLoss(t, name+" BatchGradient", plain.BatchGradient(seqs, labels), wantLoss)
		requireSameBits(t, name+" BatchGradient grads", plain.Grads(), ref.grads)
		var order []int
		requireSameLoss(t, name+" BatchGradientBuckets",
			bucketed.BatchGradientBuckets(seqs, labels, func(s Segment) { order = append(order, s.Offset) }), wantLoss)
		requireSameBits(t, name+" BatchGradientBuckets grads", bucketed.Grads(), ref.grads)
		if len(order) != 2 || order[0] <= order[1] {
			t.Fatalf("%s: ready offsets %v, want read-out (tail) before recurrent (head)", name, order)
		}
		for s, logits := range plain.Forward(seqs) {
			requireSameBits(t, fmt.Sprintf("%s Forward sequence %d", name, s), logits, wantLogits[s])
		}
		for _, p := range [][2]tensor.Vector{{plain.Params(), plain.Grads()}, {bucketed.Params(), bucketed.Grads()}, {ref.params, ref.grads}} {
			sgdStep(p[0], p[1])
		}
	}
}

// TestAccumulateGradientIsABatchOfOne pins the single-sample entry points to
// the oracle too: they accumulate without zeroing or scaling.
func TestAccumulateGradientIsABatchOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	net := NewNetwork(SoftmaxCrossEntropy{}, NewDense(4, 6), NewReLU(6), NewDense(6, 3))
	net.Init(rng)
	ref := newRefNetwork(net)
	x, y := tensor.NewVector(4), OneHot(1, 3)
	x.Randomize(rng, 1)
	net.ZeroGrads()
	for i := 0; i < 2; i++ {
		loss := net.AccumulateGradient(x, y)
		wantLoss, _ := ref.accumulate(x, y)
		requireSameLoss(t, "AccumulateGradient", loss, wantLoss)
	}
	requireSameBits(t, "twice-accumulated grads", net.Grads(), ref.grads)

	m := NewLSTMClassifier(3, 4, 2)
	m.Init(rng)
	refM := newRefLSTM(m)
	seq := randomSequence(rng, 4, 3)
	m.ZeroGrads()
	for i := 0; i < 2; i++ {
		loss := m.AccumulateGradient(seq, 1)
		wantLoss, _ := refM.accumulate(seq, 1)
		requireSameLoss(t, "LSTM AccumulateGradient", loss, wantLoss)
	}
	requireSameBits(t, "LSTM AccumulateGradient grads", m.Grads(), refM.grads)
}
