package nn

import (
	"fmt"
	"math"
	"math/rand"

	"eagersgd/internal/tensor"
)

// LSTMClassifier is a single-layer LSTM followed by a dense softmax read-out,
// matching the video-classification model of §2.1/§6.3: a sequence of
// per-frame feature vectors is consumed one step at a time and the final
// hidden state is classified. The computational cost of one sample is
// proportional to its sequence length, which is exactly the source of the
// inherent load imbalance the paper studies.
//
// Gate layout within the stacked weight matrices is [input, forget, cell,
// output], each block of HiddenSize rows.
type LSTMClassifier struct {
	InputSize  int
	HiddenSize int
	NumClasses int

	params tensor.Vector
	grads  tensor.Vector

	// Parameter views.
	wx   *tensor.Matrix // (4H x I) input-to-hidden
	wh   *tensor.Matrix // (4H x H) hidden-to-hidden
	bias tensor.Vector  // (4H)
	wout *tensor.Matrix // (C x H) read-out
	bout tensor.Vector  // (C)

	// Gradient views.
	gwx   *tensor.Matrix
	gwh   *tensor.Matrix
	gbias tensor.Vector
	gwout *tensor.Matrix
	gbout tensor.Vector

	targets []tensor.Vector // one-hot target of each class

	// Per-frame state of the last forward pass, frames newest first within
	// each sequence — the order backpropagation through time visits them —
	// and sequence after sequence. The slices index workspaces that grow to
	// the largest batch seen and are reused, so a steady-state pass
	// allocates nothing.
	x, hPrev, cPrev []tensor.Vector // input and previous states (zero before a sequence's first frame)
	// z is a frame's 4H pre-activations; the forward pass turns it in place
	// into the gate activations [i f g o], and BPTT, once it has used them,
	// into dL/d(pre-activation).
	z     []tensor.Vector
	c, h  []tensor.Vector
	lastH []tensor.Vector // per sequence: the final hidden state

	zs, cs, hs, logits, dLogits workspace
	zero, preH, dh, dc          tensor.Vector
	// wxT and whT are wxᵀ and whᵀ, refreshed by every Forward, so that each
	// frame's wx·x and wh·h run as column axpys over them
	// (tensor.Matrix.MulVecTDense).
	wxT, whT *tensor.Matrix
}

// NewLSTMClassifier allocates an LSTM classifier with the given feature size,
// hidden width, and class count.
func NewLSTMClassifier(inputSize, hiddenSize, numClasses int) *LSTMClassifier {
	if inputSize <= 0 || hiddenSize <= 0 || numClasses <= 0 {
		panic(fmt.Sprintf("nn: invalid LSTM shape in=%d hidden=%d classes=%d", inputSize, hiddenSize, numClasses))
	}
	m := &LSTMClassifier{InputSize: inputSize, HiddenSize: hiddenSize, NumClasses: numClasses}
	total := m.NumParams()
	m.params = tensor.NewVector(total)
	m.grads = tensor.NewVector(total)
	m.bind()
	m.targets = OneHots(numClasses)
	m.zero = tensor.NewVector(hiddenSize)
	m.preH = tensor.NewVector(4 * hiddenSize)
	m.dh = tensor.NewVector(hiddenSize)
	m.dc = tensor.NewVector(hiddenSize)
	m.whT = tensor.NewMatrix(hiddenSize, 4*hiddenSize)
	m.wxT = tensor.NewMatrix(inputSize, 4*hiddenSize)
	return m
}

// NumParams returns the total number of parameters.
func (m *LSTMClassifier) NumParams() int {
	h, i, c := m.HiddenSize, m.InputSize, m.NumClasses
	return 4*h*i + 4*h*h + 4*h + c*h + c
}

func (m *LSTMClassifier) bind() {
	h, i, c := m.HiddenSize, m.InputSize, m.NumClasses
	off := 0
	next := func(n int) tensor.Vector {
		v := m.params[off : off+n]
		off += n
		return v
	}
	m.wx, _ = tensor.MatrixFromData(4*h, i, next(4*h*i))
	m.wh, _ = tensor.MatrixFromData(4*h, h, next(4*h*h))
	m.bias = next(4 * h)
	m.wout, _ = tensor.MatrixFromData(c, h, next(c*h))
	m.bout = next(c)

	off = 0
	nextG := func(n int) tensor.Vector {
		v := m.grads[off : off+n]
		off += n
		return v
	}
	m.gwx, _ = tensor.MatrixFromData(4*h, i, nextG(4*h*i))
	m.gwh, _ = tensor.MatrixFromData(4*h, h, nextG(4*h*h))
	m.gbias = nextG(4 * h)
	m.gwout, _ = tensor.MatrixFromData(c, h, nextG(c*h))
	m.gbout = nextG(c)
}

// Init applies Xavier initialization to the weight matrices, zeroes the
// biases, and sets the forget-gate bias to one (the standard trick that keeps
// memory flowing early in training).
func (m *LSTMClassifier) Init(rng *rand.Rand) {
	m.wx.XavierInit(rng)
	m.wh.XavierInit(rng)
	m.bias.Zero()
	h := m.HiddenSize
	for j := h; j < 2*h; j++ { // forget gate block
		m.bias[j] = 1
	}
	m.wout.XavierInit(rng)
	m.bout.Zero()
}

// Params returns the flat parameter vector.
func (m *LSTMClassifier) Params() tensor.Vector { return m.params }

// Grads returns the flat gradient vector.
func (m *LSTMClassifier) Grads() tensor.Vector { return m.grads }

// ZeroGrads clears the accumulated gradients.
func (m *LSTMClassifier) ZeroGrads() { m.grads.Zero() }

// resize returns vs with length n, reallocating only to grow.
func resize(vs []tensor.Vector, n int) []tensor.Vector {
	if n > cap(vs) {
		return make([]tensor.Vector, n)
	}
	return vs[:n]
}

// Forward runs the LSTM over a batch of sequences, keeping every frame's
// state for backpropagation, and returns each sequence's logits. The logits
// belong to the model and stay valid until its next Forward or gradient
// computation. Each frame's input projection wx·x and recurrent wh·h run as
// column axpys over transposes of wx and wh taken once per call, on the
// vector axpy kernels: every element still receives the additions of
// wx.MulVec and wh.MulVec, in order. The recurrent product depends on the
// frame before, so it runs one frame at a time.
func (m *LSTMClassifier) Forward(seqs [][]tensor.Vector) []tensor.Vector {
	frames := 0
	for _, seq := range seqs {
		if len(seq) == 0 {
			panic("nn: empty sequence")
		}
		frames += len(seq)
	}
	h := m.HiddenSize
	m.x, m.hPrev, m.cPrev = resize(m.x, frames), resize(m.hPrev, frames), resize(m.cPrev, frames)
	m.z, m.c, m.h = m.zs.get(frames, 4*h), m.cs.get(frames, h), m.hs.get(frames, h)
	m.lastH = resize(m.lastH, len(seqs))
	base := 0
	for _, seq := range seqs {
		for t, x := range seq {
			m.x[base+len(seq)-1-t] = x
		}
		base += len(seq)
	}
	m.wx.TransposeInto(m.wxT)
	for k, x := range m.x {
		m.wxT.MulVecTDense(x, m.z[k])
	}
	m.wh.TransposeInto(m.whT)

	logits := m.logits.get(len(seqs), m.NumClasses)
	base = 0
	for s, seq := range seqs {
		hPrev, cPrev := m.zero, m.zero
		for k := base + len(seq) - 1; k >= base; k-- { // t ascending
			z := m.z[k]
			m.whT.MulVecTDense(hPrev, m.preH)
			z.Add(m.preH)
			z.Add(m.bias)
			for j := 0; j < h; j++ {
				z[j] = sigmoid(z[j])
				z[h+j] = sigmoid(z[h+j])
				z[2*h+j] = tanh(z[2*h+j])
				z[3*h+j] = sigmoid(z[3*h+j])
			}
			c, hv := m.c[k], m.h[k]
			for j := 0; j < h; j++ {
				c[j] = z[h+j]*cPrev[j] + z[j]*z[2*h+j]
				hv[j] = z[3*h+j] * tanh(c[j])
			}
			m.hPrev[k], m.cPrev[k] = hPrev, cPrev
			hPrev, cPrev = hv, c
		}
		m.wout.MulVec(hPrev, logits[s])
		logits[s].Add(m.bout)
		m.lastH[s] = hPrev
		base += len(seq)
	}
	return logits
}

// recurrentParams returns the element count of the recurrent block (wx, wh,
// bias) at the head of the flat vectors; the dense read-out (wout, bout)
// occupies the tail.
func (m *LSTMClassifier) recurrentParams() int {
	h, i := m.HiddenSize, m.InputSize
	return 4*h*i + 4*h*h + 4*h
}

// segments returns the recurrent and read-out segments by value.
func (m *LSTMClassifier) segments() (recurrent, readout Segment) {
	r := m.recurrentParams()
	return Segment{Name: "0:lstm", Offset: 0, Len: r}, Segment{Name: "1:readout", Offset: r, Len: m.NumParams() - r}
}

// Segments returns the two layer-aligned segments of the flat vectors: the
// recurrent block (wx, wh, bias) and the dense read-out (wout, bout). During
// backpropagation through time the read-out's gradient settles first and the
// recurrent block's last, so a bucketed exchange sees the segments become
// ready in reverse layer order.
func (m *LSTMClassifier) Segments() []Segment {
	recurrent, readout := m.segments()
	return []Segment{recurrent, readout}
}

// AccumulateGradient runs forward and full backpropagation through time for
// one labelled sequence — a batch of one — accumulating gradients, and
// returns the sample's cross-entropy loss.
func (m *LSTMClassifier) AccumulateGradient(seq []tensor.Vector, label int) float64 {
	return m.accumulate([][]tensor.Vector{seq}, []int{label}, nil)
}

// accumulate runs forward and full backpropagation through time for a batch
// of labelled sequences, adds every sequence's gradients into Grads in
// sequence order (and, within one, frames newest first), and returns the
// summed loss. readoutDone, when non-nil, runs as soon as the read-out
// gradients (gwout, gbout) are final: before the BPTT loop over the
// recurrent block.
func (m *LSTMClassifier) accumulate(seqs [][]tensor.Vector, labels []int, readoutDone func()) float64 {
	logits := m.Forward(seqs)
	dLogits := m.dLogits.get(len(seqs), m.NumClasses)
	var xent SoftmaxCrossEntropy
	var total float64
	for s, l := range logits {
		total += xent.LossGrad(l, m.targets[labels[s]], dLogits[s])
	}
	m.gwout.AddOuters(dLogits, m.lastH)
	for _, g := range dLogits {
		m.gbout.Add(g)
	}
	if readoutDone != nil {
		readoutDone()
	}

	h := m.HiddenSize
	dh, dc := m.dh, m.dc
	base := 0
	for s, seq := range seqs {
		m.wout.MulVecT(dLogits[s], dh)
		dc.Zero()
		first := base + len(seq) - 1     // the sequence's t = 0
		for k := base; k <= first; k++ { // t descending
			z, c, cPrev := m.z[k], m.c[k], m.cPrev[k]
			for j := 0; j < h; j++ {
				i, f, g, o := z[j], z[h+j], z[2*h+j], z[3*h+j]
				tc := tanh(c[j])
				dcj := dc[j] + dh[j]*o*(1-tc*tc)
				z[j] = dcj * g * i * (1 - i)
				z[h+j] = dcj * cPrev[j] * f * (1 - f)
				z[2*h+j] = dcj * i * (1 - g*g)
				z[3*h+j] = dh[j] * tc * o * (1 - o)
				dc[j] = dcj * f
			}
			if k < first { // t = 0's dL/dh feeds no earlier frame
				m.wh.MulVecT(z, dh)
			}
		}
		base = first + 1
	}
	m.gwx.AddOuters(m.z, m.x)
	m.gwh.AddOuters(m.z, m.hPrev)
	for _, dPre := range m.z {
		m.gbias.Add(dPre)
	}
	return total
}

// BatchGradient zeroes the gradients, accumulates over the labelled
// sequences, scales by the batch size, and returns the mean loss.
func (m *LSTMClassifier) BatchGradient(seqs [][]tensor.Vector, labels []int) float64 {
	return m.BatchGradientBuckets(seqs, labels, nil)
}

// BatchGradientBuckets computes exactly the gradients of BatchGradient but
// announces each segment through ready as soon as it is final: the read-out
// segment once the batch's read-out gradients settle, before any BPTT runs,
// and the recurrent segment after the BPTT loop. Each segment is already
// scaled by the batch size when its notification fires. A nil ready degrades
// to BatchGradient.
func (m *LSTMClassifier) BatchGradientBuckets(seqs [][]tensor.Vector, labels []int, ready func(Segment)) float64 {
	if len(seqs) != len(labels) {
		panic(fmt.Sprintf("nn: batch size mismatch %d sequences vs %d labels", len(seqs), len(labels)))
	}
	if len(seqs) == 0 {
		panic("nn: empty batch")
	}
	m.ZeroGrads()
	inv := 1 / float64(len(seqs))
	finish := func(seg Segment) {
		m.grads[seg.Offset : seg.Offset+seg.Len].Scale(inv)
		if ready != nil {
			ready(seg)
		}
	}
	recurrent, readout := m.segments()
	total := m.accumulate(seqs, labels, func() { finish(readout) })
	finish(recurrent)
	return total * inv
}

func tanh(x float64) float64 { return math.Tanh(x) }
