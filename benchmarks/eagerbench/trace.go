package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/nn"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/tensor"
)

// Span kinds. A step span is the parent of the compute, sleep, exchange and
// apply spans of its step; a submit span is a child of the compute span it
// interrupts; eval spans sit between steps and have no parent.
const (
	kindStep       = "step"
	kindCompute    = "compute"
	kindSubmit     = "submit"      // SubmitBucket from inside the backward pass
	kindSleep      = "sleep"       // modelled base + cost model + injected delay
	kindReduce     = "reduce"      // blocked in Reducer.Reduce
	kindBucketWait = "bucket_wait" // blocked on a bucket handle before its apply
	kindApply      = "apply"
	kindEval       = "eval"
)

// span is one timed interval on one rank; start and end are nanoseconds since
// the run's origin.
type span struct {
	kind       string
	rank, step int
	start, end int64
	parent     string
}

func (s span) dur() int64 { return s.end - s.start }

// rankTrace collects one rank's spans. Only the rank's training goroutine
// appends, so there is no lock; spans stay in memory until the run is over.
type rankTrace struct {
	rank   int
	origin time.Time
	clock  imbalance.Clock
	spans  []span
	step   int   // step of the compute span most recently opened
	last   int64 // end of the most recent compute span

	// allocs holds the process's heap allocation count as this rank entered
	// steps allocFrom and allocTo, when allocTo is set.
	allocFrom, allocTo int
	allocs             [2]uint64
}

// markAllocs asks the rank to read the allocation counter on entering the
// two steps, which brackets steady-state steps without set-up or the final
// evaluation.
func (rt *rankTrace) markAllocs(from, to int) { rt.allocFrom, rt.allocTo = from, to }

func (rt *rankTrace) enterStep(step int) {
	if rt.allocTo == 0 {
		return
	}
	switch step {
	case rt.allocFrom:
		rt.allocs[0] = heapAllocs()
	case rt.allocTo:
		rt.allocs[1] = heapAllocs()
	}
}

func (rt *rankTrace) now() int64 { return int64(time.Since(rt.origin)) }

func (rt *rankTrace) add(kind string, step int, start, end int64, parent string) {
	rt.spans = append(rt.spans, span{kind: kind, rank: rt.rank, step: step, start: start, end: end, parent: parent})
}

// runTrace is the trace of one run: one rankTrace per rank.
type runTrace struct {
	ranks []*rankTrace
}

func newRunTrace(size, stepsHint int, clock imbalance.Clock) *runTrace {
	t := &runTrace{ranks: make([]*rankTrace, size)}
	origin := time.Now()
	for r := range t.ranks {
		// Sized up front so that appending a span does not allocate inside
		// the steps being measured.
		t.ranks[r] = &rankTrace{rank: r, origin: origin, clock: clock, spans: make([]span, 0, stepsHint*8)}
	}
	return t
}

// tracedTask times the gradient computation, the bucket submissions that
// interrupt it, and evaluations.
type tracedTask struct {
	core.BucketedTask
	rt *rankTrace
}

func (t tracedTask) ComputeGradient(step int) float64 {
	t.rt.enterStep(step)
	start := t.rt.now()
	loss := t.BucketedTask.ComputeGradient(step)
	t.rt.step, t.rt.last = step, t.rt.now()
	t.rt.add(kindCompute, step, start, t.rt.last, kindStep)
	return loss
}

func (t tracedTask) ComputeGradientBuckets(step int, ready func(nn.Segment)) float64 {
	t.rt.enterStep(step)
	start := t.rt.now()
	loss := t.BucketedTask.ComputeGradientBuckets(step, func(seg nn.Segment) {
		s := t.rt.now()
		ready(seg)
		t.rt.add(kindSubmit, step, s, t.rt.now(), kindCompute)
	})
	t.rt.step, t.rt.last = step, t.rt.now()
	t.rt.add(kindCompute, step, start, t.rt.last, kindStep)
	return loss
}

func (t tracedTask) Evaluate() core.Metrics {
	start := t.rt.now()
	m := t.BucketedTask.Evaluate()
	t.rt.add(kindEval, t.rt.step, start, t.rt.now(), "")
	return m
}

// elasticReducer is what Node.Reducer returns, seen through the exported
// interfaces the trainer type-asserts; embedding it keeps BeginTrainStep,
// EndTrainStep and SyncParams firing in a traced run.
type elasticReducer interface {
	collective.Reducer
	collective.TrainStepper
	collective.ParamSyncer
	Name() string
}

// tracedReducer times the blocking exchange of the serial step path.
type tracedReducer struct {
	elasticReducer
	rt *rankTrace
}

func (r tracedReducer) Reduce(ctx context.Context, grad tensor.Vector) (collective.Result, error) {
	start := r.rt.now()
	res, err := r.elasticReducer.Reduce(ctx, grad)
	r.rt.add(kindReduce, r.rt.step, start, r.rt.now(), kindStep)
	return res, err
}

// tracedOptimizer times the parameter update, whole or per bucket.
type tracedOptimizer struct {
	optimizer.Optimizer
	rt *rankTrace
}

func (o tracedOptimizer) Step(params, grad tensor.Vector, step int) {
	start := o.rt.now()
	o.Optimizer.Step(params, grad, step)
	o.rt.add(kindApply, step, start, o.rt.now(), kindStep)
}

func (o tracedOptimizer) StepSegment(params, grad tensor.Vector, offset, step int) {
	start := o.rt.now()
	o.Optimizer.StepSegment(params, grad, offset, step)
	o.rt.add(kindApply, step, start, o.rt.now(), kindStep)
}

// tracedInjector records the step's modelled sleep. The trainer sleeps the
// base and cost-model time before it asks the injector and the injected delay
// right after, and the clock is not a seam, so the sleep span runs from the
// end of the compute span to the injector call plus the injected delay's
// nominal duration; timer overshoot lands in the step's self time.
type tracedInjector struct {
	imbalance.Injector
	rt *rankTrace
}

func (i tracedInjector) Delay(step, rank int) float64 {
	ms := i.Injector.Delay(step, rank)
	if end := i.rt.now() + int64(i.rt.clock.Duration(ms)); end > i.rt.last {
		i.rt.add(kindSleep, step, i.rt.last, end, kindStep)
	}
	return ms
}

// finish adds what only the finished run knows. A step span starts with its
// compute span (the trainer takes its start time immediately before) and
// lasts as long as the trainer's own recorder says. On the overlapped path,
// where the reducer cannot be decorated, the time between the end of the
// sleep and each bucket's apply is the wait on that bucket's handle.
func (t *runTrace) finish(res *core.RunResult, overlapped bool) {
	for r, rt := range t.ranks {
		recs := res.PerRank[r].Records()
		var extra []span
		prev := map[int]int64{} // step -> end of the last span a bucket wait can follow
		for _, s := range rt.spans {
			switch s.kind {
			case kindCompute:
				if s.step < len(recs) {
					extra = append(extra, span{kind: kindStep, rank: r, step: s.step, start: s.start, end: s.start + int64(recs[s.step].Duration)})
				}
				prev[s.step] = s.end
			case kindSleep:
				prev[s.step] = s.end
			case kindApply:
				if overlapped {
					if p, ok := prev[s.step]; ok && s.start > p {
						extra = append(extra, span{kind: kindBucketWait, rank: r, step: s.step, start: p, end: s.start, parent: kindStep})
					}
					prev[s.step] = s.end
				}
			}
		}
		rt.spans = append(rt.spans, extra...)
		sort.SliceStable(rt.spans, func(i, j int) bool { return rt.spans[i].start < rt.spans[j].start })
	}
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func covered(lo, hi int64, intervals [][2]int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	at := lo
	for _, iv := range intervals {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes returns, per span kind, the summed self time over all ranks and
// steps: a span's duration minus the part of it its children cover. Children
// may overlap each other (a sleep span's nominal end can pass the start of the
// next span), so coverage is a union, not a sum.
func selfTimes(spans []span) map[string]int64 {
	type key struct{ rank, step int }
	steps := map[key][]span{}
	for _, s := range spans {
		if s.kind != kindEval {
			k := key{s.rank, s.step}
			steps[k] = append(steps[k], s)
		}
	}
	self := map[string]int64{}
	for _, group := range steps {
		for _, s := range group {
			var children [][2]int64
			for _, c := range group {
				if c.parent == s.kind {
					children = append(children, [2]int64{c.start, c.end})
				}
			}
			self[s.kind] += s.dur() - covered(s.start, s.end, children)
		}
	}
	return self
}

func (t *runTrace) all() []span {
	var out []span
	for _, rt := range t.ranks {
		out = append(out, rt.spans...)
	}
	return out
}

// maxTraceEvents bounds one variant's share of the trace file; the metrics
// are computed from every span in memory regardless.
const maxTraceEvents = 40000

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the variants' spans as Chrome trace-event JSON: one
// process per variant, one thread per rank.
func writeChromeTrace(path string, names []string, traces []*runTrace) error {
	events := []chromeEvent{}
	for pid, t := range traces {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": names[pid]}})
		spans := t.all()
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		if len(spans) > maxTraceEvents {
			spans = spans[:maxTraceEvents]
		}
		for _, s := range spans {
			events = append(events, chromeEvent{
				Name: s.kind, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: pid, Tid: s.rank,
				Args: map[string]any{"step": s.step, "parent": s.parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// coreMetrics derives the core.<variant>.* per-layer metrics from one traced
// run: its spans' self times and the trainers' own step records.
func coreMetrics(v string, self map[string]int64, res *core.RunResult, allocsPerStep float64) []metric {
	durs := stepDurationsMs(res)
	n := float64(len(durs))
	slowest, fastest := 0.0, math.Inf(1)
	var nap, included float64
	for _, rec := range res.PerRank {
		steps := float64(rec.Steps())
		mean := rec.TotalTime().Seconds() / steps
		slowest, fastest = max(slowest, mean), min(fastest, mean)
		nap += rec.MeanActiveProcesses() * steps
		included += rec.InclusionRate() * steps
	}
	perStep := func(kinds ...string) float64 {
		var total int64
		for _, k := range kinds {
			total += self[k]
		}
		return float64(total) / 1e6 / n
	}
	exchange := perStep(kindReduce, kindSubmit, kindBucketWait)
	tail, _ := p95(durs)
	name := func(s string) string { return "core." + v + "." + s }
	return []metric{
		{name: name("step_ms_p50"), unit: "ms", value: median(durs)},
		{name: name("step_ms_p95"), unit: "ms", value: tail},
		{name: name("compute_ms"), unit: "ms", value: perStep(kindCompute)},
		{name: name("sleep_ms"), unit: "ms", value: perStep(kindSleep)},
		{name: name("exchange_ms"), unit: "ms", value: exchange},
		{name: name("apply_ms"), unit: "ms", value: perStep(kindApply)},
		{name: name("model_sync_ms"), unit: "ms", value: perStep(kindStep)},
		{name: name("exchange_share"), unit: "ratio", value: exchange / perStep(kindStep, kindCompute, kindSleep, kindReduce, kindSubmit, kindBucketWait, kindApply)},
		{name: name("nap_mean"), unit: "ranks", value: nap / n},
		{name: name("included_rate"), unit: "ratio", value: included / n},
		{name: name("allocs_per_step"), unit: "count", value: allocsPerStep},
		{name: name("rank_spread"), unit: "ratio", value: slowest / fastest},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
