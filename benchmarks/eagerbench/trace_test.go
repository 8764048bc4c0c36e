package main

import (
	"testing"

	"eagersgd/collective"
	"eagersgd/internal/core"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/optimizer"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	// One step of 100: compute 0-40 with two bucket submissions inside it,
	// a sleep whose nominal end (70) passes the start of the first bucket
	// wait (65), an apply, and 5 left over at the end for the step itself.
	spans := []span{
		{kind: kindStep, step: 3, start: 0, end: 100},
		{kind: kindCompute, step: 3, start: 0, end: 40, parent: kindStep},
		{kind: kindSubmit, step: 3, start: 10, end: 14, parent: kindCompute},
		{kind: kindSubmit, step: 3, start: 30, end: 36, parent: kindCompute},
		{kind: kindSleep, step: 3, start: 40, end: 70, parent: kindStep},
		{kind: kindBucketWait, step: 3, start: 65, end: 90, parent: kindStep},
		{kind: kindApply, step: 3, start: 90, end: 95, parent: kindStep},
		// Another rank's and another step's spans must not be subtracted.
		{kind: kindCompute, rank: 1, step: 3, start: 0, end: 100, parent: kindStep},
		{kind: kindCompute, step: 4, start: 0, end: 100, parent: kindStep},
		{kind: kindEval, step: 3, start: 95, end: 100},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		kindStep:       5,          // 100 minus the union [0,95]
		kindCompute:    30 + 100*2, // 40 minus the 10 its submissions cover, plus the two strangers
		kindSubmit:     10,
		kindSleep:      30,
		kindBucketWait: 25,
		kindApply:      5,
	}
	for kind, w := range want {
		if self[kind] != w {
			t.Errorf("self time of %s = %d, want %d", kind, self[kind], w)
		}
	}
	if _, ok := self[kindEval]; ok {
		t.Error("evaluations sit between steps and must not count towards step time")
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	got := covered(10, 50, [][2]int64{{30, 45}, {0, 20}, {15, 25}, {48, 90}, {60, 70}})
	if want := int64(15 + 15 + 2); got != want { // [10,25] + [30,45] + [48,50]
		t.Fatalf("covered = %d, want %d", got, want)
	}
}

// The trainer picks its code path by type-asserting the exchanger, so a
// decorator that drops an interface silently changes what a traced run
// measures. The static half: the decorator is a Reducer that still brackets
// the step and still syncs parameters through the epoch-aware path.
var (
	_ collective.Reducer      = tracedReducer{}
	_ collective.TrainStepper = tracedReducer{}
	_ collective.ParamSyncer  = tracedReducer{}
	_ core.BucketedTask       = tracedTask{}
	_ optimizer.Optimizer     = tracedOptimizer{}
	_ imbalance.Injector      = tracedInjector{}
)

func TestDecoratedReducerKeepsTheTrainersAssertions(t *testing.T) {
	world, err := collective.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	bare, err := world.Node(0).Reducer(8, collective.WithOverlap())
	if err != nil {
		t.Fatal(err)
	}
	tr := newRunTrace(2, 1, imbalance.ScaledClock(1))
	var wrapped collective.Reducer = tracedReducer{bare.(elasticReducer), tr.ranks[0]}
	if _, ok := wrapped.(collective.TrainStepper); !ok {
		t.Error("decorated reducer lost TrainStepper")
	}
	if _, ok := wrapped.(collective.ParamSyncer); !ok {
		t.Error("decorated reducer lost ParamSyncer")
	}
	if got, want := collective.ReducerName(wrapped), collective.ReducerName(bare); got != want {
		t.Errorf("decorated reducer is named %q, want %q", got, want)
	}
	// This is why build leaves the reducer bare on overlapped workloads: the
	// overlap switch is an unexported method a decorator cannot forward.
	if on, _ := collective.OverlapSettings(bare); !on {
		t.Fatal("bare reducer built WithOverlap does not report overlap")
	}
	if on, _ := collective.OverlapSettings(wrapped); on {
		t.Error("OverlapSettings now sees through a decorator: decorate overlapped runs too and drop the bucket-wait inference")
	}
}
