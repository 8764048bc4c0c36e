package main

import (
	"errors"
	"math"
	"testing"

	"eagersgd/internal/core"
	"eagersgd/internal/trace"
)

func TestQuartilesMatchInclusiveMethod(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4, method="inclusive")
	// gives [1.75, 3.5, 5.25].
	s := summarize([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	want := summary{n: 8, min: 1, q1: 1.75, med: 3.5, q3: 5.25, max: 9}
	if s != want {
		t.Fatalf("summarize = %+v, want %+v", s, want)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median of three = %v, want the middle value", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of four = %v, want the mean of the middle two", m)
	}
	if s := summarize(nil); s.n != 0 || !math.IsNaN(s.med) {
		t.Fatalf("summary of nothing = %+v, want n=0 and NaN", s)
	}
}

func TestP95KeepsTenSamplesBeyondFrom200(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200 down to 1: p95 must sort
	}
	v, beyond := p95(xs)
	if v != 190 || beyond != 10 {
		t.Fatalf("p95 of 1..200 = %v with %d beyond, want 190 with 10 beyond", v, beyond)
	}
	if _, beyond := p95(xs[:100]); beyond >= 10 {
		t.Fatalf("100 samples leave %d beyond p95; the workload table relies on that being too few", beyond)
	}
	for _, w := range workloads {
		if _, beyond := p95(make([]float64, w.steps*ranks)); beyond < 10 {
			t.Errorf("%s: a traced run of %d steps x %d ranks leaves %d samples beyond p95, want at least 10", w.name, w.steps, ranks, beyond)
		}
	}
}

func TestSpeedupIsRatioThenMedian(t *testing.T) {
	// The machine halves its speed in the second repetition, and solo failed
	// in the fourth. The ratio inside each repetition is unmoved by the
	// former; the ratio of the medians is not.
	perRep := []map[string]float64{
		{"sync": 100, "solo": 150},
		{"sync": 50, "solo": 75},
		{"sync": 100, "solo": 130},
		{"sync": 100},
	}
	got := speedups(perRep, "solo")
	if len(got) != 3 {
		t.Fatalf("speedups = %v, want one per repetition in which both variants ran", got)
	}
	if m := median(got); m != 1.5 {
		t.Fatalf("median of per-repetition ratios = %v, want 1.5", m)
	}
	if naive := median([]float64{150, 75, 130}) / median([]float64{100, 50, 100, 100}); naive == 1.5 {
		t.Fatal("the test data does not tell ratio-then-median from median-then-ratio")
	}
}

func TestFirstCrossingInterpolates(t *testing.T) {
	curve := []trace.CurvePoint{{X: 1, Y: 0.9}, {X: 2, Y: 0.5}, {X: 3, Y: 0.1}, {X: 4, Y: 0.3}, {X: 5, Y: 0.05}}
	x, ok := firstCrossing(curve, 0.3)
	if !ok || math.Abs(x-2.5) > 1e-12 {
		t.Fatalf("crossing of 0.3 = %v, %v; want 2.5 (halfway from 0.5 to 0.1), the first crossing not the later one", x, ok)
	}
	if x, ok := firstCrossing(curve, 0.5); !ok || x != 2 {
		t.Fatalf("crossing exactly at an evaluation = %v, %v; want 2", x, ok)
	}
	if x, ok := firstCrossing(curve, 0.95); !ok || x != 1 {
		t.Fatalf("curve that starts below the target = %v, %v; want the first point's x", x, ok)
	}
	if x, ok := firstCrossing(curve, 0.01); ok {
		t.Fatalf("target never reached gave %v, true; it must not read as a time", x)
	}
	if _, ok := firstCrossing(nil, 1); ok {
		t.Fatal("empty curve reached a target")
	}
}

func TestFailedStepAccounting(t *testing.T) {
	w := workloads[0]
	good := outcome{res: &core.RunResult{
		EvalLoss: &trace.Curve{Points: []trace.CurvePoint{{X: 1, Y: 2 * w.target}, {X: 2, Y: w.target / 2}}},
		Final:    core.Metrics{Loss: w.ceiling / 2},
	}}
	over := good
	over.res = &core.RunResult{EvalLoss: good.res.EvalLoss, Final: core.Metrics{Loss: 2 * w.ceiling}}
	late := good
	late.res = &core.RunResult{EvalLoss: &trace.Curve{Points: []trace.CurvePoint{{X: 1, Y: 2 * w.target}}}, Final: good.res.Final}
	leaky := good
	leaky.leaked = 3
	broken := outcome{err: errors.New("rank 2: connection reset")}

	rep := &report{}
	for _, c := range []struct {
		name string
		out  outcome
		full bool
		ok   bool
	}{
		{"good", good, true, true},
		{"above the ceiling", over, true, false},
		{"above the ceiling, quick", over, false, true},
		{"target never reached", late, true, false},
		{"target never reached, quick", late, false, true},
		{"leaked leases", leaky, false, false},
		{"run error", broken, false, false},
	} {
		if ok := rep.account(100, w.check(variants[0], c.out, c.full)); ok != c.ok {
			t.Errorf("%s: accepted = %v, want %v", c.name, ok, c.ok)
		}
	}
	if rep.attempted != 700 || rep.failed != 400 {
		t.Fatalf("attempted %d failed %d, want 700 and 400: every step of a failed run fails", rep.attempted, rep.failed)
	}
	if rep.correct() || len(rep.problems) != 4 {
		t.Fatalf("correct = %v with %d problems, want false with 4", rep.correct(), len(rep.problems))
	}
}
