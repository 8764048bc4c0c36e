package simnet

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// A Sampler produces a deterministic sequence of non-negative durations in
// nanoseconds. Each entity (link, rank) gets its own sampler, backed by its
// own seed-derived stream, so samplers never contend and never share state.
type Sampler interface {
	Next() int64
}

// A Model is a named family of duration distributions: given an entity's
// seed it instantiates the Sampler for that entity. Models are immutable and
// shareable; all per-draw state lives in the samplers they create.
//
// The four families cover the paper's straggler axis:
//
//   - Constant: no variance — the calibration baseline.
//   - Uniform: bounded benign jitter (OS noise).
//   - Pareto: heavy-tailed stragglers (the distribution the eager-SGD paper
//     motivates with: most steps fast, occasional order-of-magnitude stalls).
//   - Trace: replay of recorded per-step durations, for reproducing a
//     specific observed straggler pattern (e.g. a coordinated slowdown).
type Model interface {
	// Sampler instantiates the model's deterministic sampler for one entity.
	Sampler(seed uint64) Sampler
	// String renders the model in the spec syntax ParseModel accepts.
	String() string
}

// Constant returns a model that always samples d.
func Constant(d time.Duration) Model {
	if d < 0 {
		d = 0
	}
	return constantModel{ns: int64(d)}
}

type constantModel struct{ ns int64 }

func (m constantModel) Sampler(uint64) Sampler { return constSampler(m.ns) }
func (m constantModel) String() string {
	return fmt.Sprintf("constant:%s", time.Duration(m.ns))
}

type constSampler int64

func (s constSampler) Next() int64 { return int64(s) }

// Uniform returns a model sampling uniformly from [lo, hi].
func Uniform(lo, hi time.Duration) Model {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return uniformModel{lo: int64(lo), hi: int64(hi)}
}

type uniformModel struct{ lo, hi int64 }

func (m uniformModel) Sampler(seed uint64) Sampler {
	return &uniformSampler{m: m, rng: NewStream(seed)}
}
func (m uniformModel) String() string {
	return fmt.Sprintf("uniform:%s,%s", time.Duration(m.lo), time.Duration(m.hi))
}

type uniformSampler struct {
	m   uniformModel
	rng *Stream
}

func (s *uniformSampler) Next() int64 {
	if s.m.hi == s.m.lo {
		return s.m.lo
	}
	return s.m.lo + s.rng.Int63n(s.m.hi-s.m.lo+1)
}

// Pareto returns a heavy-tailed model: samples follow a Pareto distribution
// with the given scale (minimum value) and tail exponent alpha, truncated at
// cap so a single draw cannot stall the simulation unboundedly. Small alpha
// (≤ ~1.5) produces the occasional extreme straggler the eager-SGD paper is
// designed around; large alpha degenerates toward the scale.
func Pareto(scale time.Duration, alpha float64, cap time.Duration) Model {
	if scale <= 0 {
		scale = time.Nanosecond
	}
	if alpha <= 0 {
		alpha = 1
	}
	if cap < scale {
		cap = scale
	}
	return paretoModel{scale: int64(scale), alpha: alpha, cap: int64(cap)}
}

type paretoModel struct {
	scale int64
	alpha float64
	cap   int64
}

func (m paretoModel) Sampler(seed uint64) Sampler {
	return &paretoSampler{m: m, rng: NewStream(seed)}
}
func (m paretoModel) String() string {
	return fmt.Sprintf("pareto:%s,%g,%s", time.Duration(m.scale), m.alpha, time.Duration(m.cap))
}

type paretoSampler struct {
	m   paretoModel
	rng *Stream
}

func (s *paretoSampler) Next() int64 {
	// Inverse-CDF: x = scale / U^(1/alpha), U in (0, 1].
	u := 1 - s.rng.Float64() // (0, 1]
	x := float64(s.m.scale) / math.Pow(u, 1/s.m.alpha)
	if x > float64(s.m.cap) {
		return s.m.cap
	}
	return int64(x)
}

// Trace returns a model replaying the recorded durations cyclically, in
// order. Every entity replays the same trace from the start; the seed only
// rotates the starting offset so a world of ranks sharing one trace does not
// stall in lockstep unless the trace is meant to model exactly that (pass
// identical seeds, as the sweep's coordinated-straggler scenario does).
func Trace(samples []time.Duration) Model {
	ns := make([]int64, len(samples))
	for i, d := range samples {
		if d < 0 {
			d = 0
		}
		ns[i] = int64(d)
	}
	return traceModel{ns: ns}
}

// TraceAligned is Trace without the per-entity offset rotation: every sampler
// replays from index 0 regardless of seed. This is the coordinated-straggler
// model — all ranks hit the trace's stall step in the same round.
func TraceAligned(samples []time.Duration) Model {
	m := Trace(samples).(traceModel)
	m.aligned = true
	return m
}

type traceModel struct {
	ns      []int64
	aligned bool
}

func (m traceModel) Sampler(seed uint64) Sampler {
	if len(m.ns) == 0 {
		return constSampler(0)
	}
	start := 0
	if !m.aligned {
		start = int(NewStream(seed).Uint64() % uint64(len(m.ns)))
	}
	return &traceSampler{ns: m.ns, i: start}
}

func (m traceModel) String() string {
	parts := make([]string, len(m.ns))
	for i, v := range m.ns {
		parts[i] = time.Duration(v).String()
	}
	name := "trace"
	if m.aligned {
		name = "tracealigned"
	}
	return name + ":" + strings.Join(parts, ",")
}

type traceSampler struct {
	ns []int64
	i  int
}

func (s *traceSampler) Next() int64 {
	v := s.ns[s.i]
	s.i++
	if s.i == len(s.ns) {
		s.i = 0
	}
	return v
}

// ParseModel parses the textual model spec syntax used by cmd/simsweep:
//
//	constant:DUR
//	uniform:LO,HI
//	pareto:SCALE,ALPHA,CAP
//	trace:DUR,DUR,...          (per-entity rotated replay)
//	tracealigned:DUR,DUR,...   (coordinated replay, all entities in phase)
//
// Durations use Go syntax ("2ms", "150us"). A bare duration is shorthand for
// constant.
func ParseModel(spec string) (Model, error) {
	spec = strings.TrimSpace(spec)
	kind, rest, found := strings.Cut(spec, ":")
	if !found {
		d, err := time.ParseDuration(spec)
		if err != nil {
			return nil, fmt.Errorf("simnet: bad model spec %q: want kind:args or a bare duration", spec)
		}
		return Constant(d), nil
	}
	args := strings.Split(rest, ",")
	durs := func(n int) ([]time.Duration, error) {
		if len(args) != n {
			return nil, fmt.Errorf("simnet: %s wants %d args, got %d in %q", kind, n, len(args), spec)
		}
		out := make([]time.Duration, n)
		for i, a := range args {
			d, err := time.ParseDuration(strings.TrimSpace(a))
			if err != nil {
				return nil, fmt.Errorf("simnet: bad duration %q in %q: %v", a, spec, err)
			}
			out[i] = d
		}
		return out, nil
	}
	switch kind {
	case "constant":
		d, err := durs(1)
		if err != nil {
			return nil, err
		}
		return Constant(d[0]), nil
	case "uniform":
		d, err := durs(2)
		if err != nil {
			return nil, err
		}
		if d[1] < d[0] {
			return nil, fmt.Errorf("simnet: uniform hi %v < lo %v in %q", d[1], d[0], spec)
		}
		return Uniform(d[0], d[1]), nil
	case "pareto":
		if len(args) != 3 {
			return nil, fmt.Errorf("simnet: pareto wants scale,alpha,cap, got %q", spec)
		}
		scale, err := time.ParseDuration(strings.TrimSpace(args[0]))
		if err != nil {
			return nil, fmt.Errorf("simnet: bad pareto scale in %q: %v", spec, err)
		}
		var alpha float64
		if _, err := fmt.Sscanf(strings.TrimSpace(args[1]), "%g", &alpha); err != nil || alpha <= 0 {
			return nil, fmt.Errorf("simnet: bad pareto alpha %q in %q", args[1], spec)
		}
		cap, err := time.ParseDuration(strings.TrimSpace(args[2]))
		if err != nil {
			return nil, fmt.Errorf("simnet: bad pareto cap in %q: %v", spec, err)
		}
		return Pareto(scale, alpha, cap), nil
	case "trace", "tracealigned":
		samples := make([]time.Duration, 0, len(args))
		for _, a := range args {
			d, err := time.ParseDuration(strings.TrimSpace(a))
			if err != nil {
				return nil, fmt.Errorf("simnet: bad trace duration %q in %q: %v", a, spec, err)
			}
			samples = append(samples, d)
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("simnet: empty trace in %q", spec)
		}
		if kind == "tracealigned" {
			return TraceAligned(samples), nil
		}
		return Trace(samples), nil
	default:
		return nil, fmt.Errorf("simnet: unknown model kind %q in %q (want constant, uniform, pareto, trace, or tracealigned)", kind, spec)
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the samples using
// nearest-rank on a sorted copy. Shared by the sweep's curve statistics and
// tests; returns 0 for an empty slice.
func Percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
