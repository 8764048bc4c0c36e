package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eagersgd/internal/core"
	"eagersgd/internal/tensor"
	"eagersgd/internal/trace"
)

// Repetition protocol. After one untimed warm-up pass, a repetition runs the
// three variants back to back, each on a fresh world over identical seeded
// data and injection, in an order rotated per repetition. Each repetition
// draws its own seed from --seed, so that the median over repetitions averages
// over generated inputs as well as over machine noise. Repetitions repeat
// until the run's --seconds are used, warm-up included, and every published
// value is the median of the per-repetition values.
const (
	warmupShare = 10 // the warm-up pass runs steps/warmupShare steps per variant
	minReps     = 3
	maxReps     = 50
	quickShare  = 20   // -quick runs steps/quickShare steps, once
	seedStride  = 1000 // repetition r of --seed s runs on seed s + r*seedStride

	// setup_s counts a run's wall time up to the end of setupPercent of rank
	// 0's steps, plus whatever follows the last step. Set-up alone is all CPU,
	// and identical CPU-bound work on a shared host differs by 30-50% between
	// one quarter of an hour and the next; with the first half of the steps in
	// it, scaled-clock sleeps dominate the metric and set-up is a sixth to a
	// quarter of it.
	setupPercent = 50
)

// nextPort is the next free loopback port. It starts below the kernel's
// ephemeral range (32768 up), so a listener cannot collide with the local end
// of one of the benchmark's own earlier connections, and only moves forward.
var nextPort = 21000

func takePorts(n int) int {
	p := nextPort
	nextPort += n
	return p
}

// metric is one named value with the spread it was taken from.
type metric struct {
	name, unit string
	value      float64
	sum        summary
}

// report is the outcome of one workload's pass, untraced or traced.
type report struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// account books one run's steps over all its ranks as attempted and, when
// anything was wrong with the run, all of them as failed.
func (r *report) account(steps int, bad []string) (ok bool) {
	r.attempted += steps
	if len(bad) > 0 {
		r.failed += steps
		r.problems = append(r.problems, bad...)
	}
	return len(bad) == 0
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *report) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// outcome is one training run.
type outcome struct {
	res    *core.RunResult
	wall   time.Duration
	leaked int64 // tensor pool leases outstanding after World.Close
	err    error
}

// runOnce generates the inputs from seed and trains the variant for steps
// steps on a fresh world of size ranks through core.Run. wall covers all of
// it, so that wall minus rank 0's step time is the set-up a user pays around
// the steps: data generation, world and reducer construction, evaluations,
// the final model sync and world close.
func (w *workload) runOnce(v variant, seed int64, size, steps, evalEvery int, tr *runTrace) outcome {
	runtime.GC()
	before := tensor.ReadPoolStats()
	t0 := time.Now()
	p := w.prepare(seed)
	res, err := core.Run(core.RunConfig{
		Name:           w.name + "/" + v.name,
		Size:           size,
		Steps:          steps,
		EvalEverySteps: evalEvery,
		FinalSync:      true,
		WorldOptions:   w.worldOptions(takePorts(size)),
		Build:          w.build(p, v, seed, tr),
	})
	return outcome{res: res, wall: time.Since(t0), leaked: tensor.ReadPoolStats().OutstandingSince(before), err: err}
}

// stepDurationsMs returns every rank's step durations in milliseconds.
func stepDurationsMs(res *core.RunResult) []float64 {
	var out []float64
	for _, rec := range res.PerRank {
		for _, sr := range rec.Records() {
			out = append(out, ms(sr.Duration))
		}
	}
	return out
}

// options are the command-line settings of one pass.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	verbose bool
	outDir  string
}

// quickSteps returns the step count and evaluation period of a -quick run.
func (w *workload) quickSteps() (steps, evalEvery int) {
	steps = max(w.steps/quickShare, 8)
	return steps, max(steps/4, 1)
}

// warmUp runs each variant untimed for a tenth of steps, evaluating once: the
// first runs of a process are slow (cold pools, a small heap collecting often)
// and the first ladder rungs of a process even more so.
func (w *workload) warmUp(seed int64, steps int, rep *report) {
	for _, v := range variants {
		if out := w.runOnce(v, seed, ranks, max(steps/warmupShare, 2), 0, nil); out.err != nil {
			rep.problem("warm-up %s: %v", v.name, out.err)
		}
	}
}

// setupSeconds is the run's wall time less the time rank 0 spent in the steps
// after the first setupPercent of them: data generation, world and reducer
// construction, the first half of training, every evaluation, the final model
// sync and world close.
func setupSeconds(out outcome) float64 {
	recs := out.res.PerRank[0].Records()
	var rest time.Duration
	for _, r := range recs[len(recs)*setupPercent/100:] {
		rest += r.Duration
	}
	return (out.wall - rest).Seconds()
}

// endToEnd runs the repetition protocol and returns the nine end-to-end
// metrics of the workload.
func (w *workload) endToEnd(o options) *report {
	rep := &report{workload: w.name}
	began := time.Now()
	steps, evalEvery := w.steps, w.evalEvery
	reps := maxReps
	if o.quick {
		steps, evalEvery = w.quickSteps()
		reps = 1
	}
	w.warmUp(o.seed, steps, rep)

	type samples struct{ stepsPerS, toTarget []float64 }
	by := map[string]*samples{}
	for _, v := range variants {
		by[v.name] = &samples{}
	}
	var perRep []map[string]float64 // variant -> steps/s, one map per repetition
	var setup []float64

	var lastRep time.Duration
	for r := 0; r < reps; r++ {
		elapsed := time.Since(began)
		if r >= minReps && (elapsed+lastRep/2).Seconds() > o.seconds {
			break
		}
		this := map[string]float64{}
		setupSum := 0.0
		seed := o.seed + int64(r)*seedStride
		for i := range variants {
			v := variants[(i+r)%len(variants)]
			out := w.runOnce(v, seed, ranks, steps, evalEvery, nil)
			if !rep.account(steps*ranks, w.check(v, out, !o.quick)) {
				continue
			}
			s := by[v.name]
			s.stepsPerS = append(s.stepsPerS, out.res.Throughput)
			this[v.name] = out.res.Throughput
			if x, ok := firstCrossing(out.res.EvalLoss.Points, w.target); ok {
				s.toTarget = append(s.toTarget, x)
			}
			setupSum += setupSeconds(out)
			if o.verbose {
				fmt.Fprintf(os.Stderr, "%s rep %d %-8s %8.1f steps/s  wall %.2fs  loss %.4f  nap %.2f  curve%s\n",
					w.name, r, v.name, out.res.Throughput, out.wall.Seconds(), out.res.Final.Loss,
					out.res.MeanActiveProcesses, curveString(out.res.EvalLoss))
			}
		}
		perRep = append(perRep, this)
		if len(this) == len(variants) {
			// The variants' steps differ in length, so set-up is averaged over
			// the three runs of a repetition before the median across them.
			setup = append(setup, setupSum/float64(len(variants)))
		}
		lastRep = time.Since(began) - elapsed
	}

	add := func(name, unit string, xs []float64) {
		s := summarize(xs)
		rep.metrics = append(rep.metrics, metric{name: name, unit: unit, value: s.med, sum: s})
	}
	add("setup_s", "s", setup)
	for _, v := range variants {
		add(v.name+"_steps_per_s", "steps/s", by[v.name].stepsPerS)
	}
	add("solo_speedup", "ratio", speedups(perRep, "solo"))
	add("majority_speedup", "ratio", speedups(perRep, "majority"))
	for _, v := range variants {
		add(v.name+"_time_to_target_s", "s", by[v.name].toTarget)
	}
	return rep
}

// speedups returns, for every repetition in which both ran, the variant's
// steps/s over sync's. The ratio is taken inside a repetition, where the
// variants ran seconds apart on one machine state and one set of inputs, and
// only then medianed.
func speedups(perRep []map[string]float64, variant string) []float64 {
	var out []float64
	for _, rep := range perRep {
		base, ok := rep["sync"]
		x, ran := rep[variant]
		if ok && ran {
			out = append(out, x/base)
		}
	}
	return out
}

// check returns what is wrong with a run; a run with anything wrong counts
// all of its steps as failed. full is false for -quick runs, which are too
// short to converge: they must still finish, stay finite and leak nothing.
func (w *workload) check(v variant, out outcome, full bool) []string {
	if out.err != nil {
		return []string{fmt.Sprintf("%s/%s: %v", w.name, v.name, out.err)}
	}
	var bad []string
	loss := out.res.Final.Loss
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		bad = append(bad, fmt.Sprintf("%s/%s: final held-out loss is %v", w.name, v.name, loss))
	}
	if full {
		if loss > w.ceiling {
			bad = append(bad, fmt.Sprintf("%s/%s: final held-out loss %.4f above the ceiling %.4f", w.name, v.name, loss, w.ceiling))
		}
		if _, ok := firstCrossing(out.res.EvalLoss.Points, w.target); !ok {
			bad = append(bad, fmt.Sprintf("%s/%s: held-out loss never reached the target %.4f", w.name, v.name, w.target))
		}
	}
	if out.leaked != 0 {
		bad = append(bad, fmt.Sprintf("%s/%s: %d tensor pool leases outstanding after World.Close", w.name, v.name, out.leaked))
	}
	return bad
}

// perLayer runs the traced pass: the ladder rungs, a plain single-worker run,
// one untraced sync run and one traced run per variant, and returns the 64
// per-layer metrics. The spans are written as Chrome trace-event JSON under
// o.outDir.
func (w *workload) perLayer(o options) *report {
	rep := &report{workload: w.name}
	poolBefore := tensor.ReadPoolStats()
	steps, evalEvery := w.steps, w.evalEvery
	if o.quick {
		steps, evalEvery = w.quickSteps()
	}
	w.warmUp(o.seed, steps, rep)

	p := w.prepare(o.seed)
	l := &ladder{report: rep, w: w, p: p, seed: o.seed, d: p.task(0, ranks).NumParams(), quick: o.quick}
	l.run()

	var runSetup []float64 // per four-rank run: wall time outside rank 0's steps
	run := func(v variant, size, steps int, tr *runTrace) (outcome, bool) {
		out := w.runOnce(v, o.seed, size, steps, evalEvery, tr)
		ok := rep.account(steps*size, w.check(v, out, false))
		if ok && size == ranks {
			runSetup = append(runSetup, ms(out.wall-out.res.TrainingTime))
		}
		return out, ok
	}

	// The kind sheet's baseline: the same task on one worker, no exchange
	// partner.
	single := math.NaN()
	if out, ok := run(variants[0], 1, max(steps/4, 8), nil); ok {
		single = out.res.Throughput
	}
	rep.metrics = append(rep.metrics, metric{name: "nn.single_rank_steps_per_s", unit: "steps/s", value: single})

	// Tracing overhead is read off the median step, which a burst in either
	// of the two runs compared does not move.
	untraced := math.NaN()
	if out, ok := run(variants[0], ranks, steps, nil); ok {
		untraced = median(stepDurationsMs(out.res))
	}
	var names []string
	var traces []*runTrace
	overhead := math.NaN()
	for _, v := range variants {
		tr := newRunTrace(ranks, steps, w.clock())
		tr.ranks[0].markAllocs(steps/10, steps-1)
		out, ok := run(v, ranks, steps, tr)
		if !ok {
			continue
		}
		tr.finish(out.res, w.overlap)
		allocs := float64(tr.ranks[0].allocs[1]-tr.ranks[0].allocs[0]) / float64((steps-1-steps/10)*ranks)
		self := selfTimes(tr.all())
		rep.metrics = append(rep.metrics, coreMetrics(v.name, self, out.res, allocs)...)
		if v.name == "sync" {
			overhead = (median(stepDurationsMs(out.res))/untraced - 1) * 100
		}
		names, traces = append(names, v.name), append(traces, tr)
		if w.overlap && self[kindSubmit] == 0 {
			rep.problem("%s/%s: traced run recorded no bucket submissions, the overlapped path did not run", w.name, v.name)
		}
	}
	leaked := tensor.ReadPoolStats().OutstandingSince(poolBefore)
	if leaked != 0 {
		rep.problem("%s: %d tensor pool leases outstanding after the traced pass", w.name, leaked)
	}
	rep.metrics = append(rep.metrics,
		metric{name: "core.run_setup_ms", unit: "ms", value: median(runSetup)},
		metric{name: "trace.overhead_pct", unit: "%", value: overhead},
		metric{name: "tensor.pool_leaked", unit: "count", value: float64(leaked)})
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
	if err := writeChromeTrace(path, names, traces); err != nil {
		rep.problem("write trace: %v", err)
	}
	return rep
}

// curveString renders an evaluation curve for -v output.
func curveString(c *trace.Curve) string {
	s := ""
	for _, p := range c.Points {
		s += fmt.Sprintf(" %.3fs:%.4f", p.X, p.Y)
	}
	return s
}
