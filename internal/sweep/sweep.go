// Package sweep is the deterministic lockstep sweep: it replays {solo,
// majority, quorum(k), sync} partial-collective policies against one
// imbalance.Injector — the same per-(step, rank) delays the training stack
// injects — producing the paper's NAP-vs-step-time trade-off curves at world
// sizes (1000+ ranks) the socket transports cannot reach. The CLI is
// cmd/simsweep.
//
// The driver follows the seeded tick-world idiom (see SNIPPETS.md Snippet 1):
// one generated load is handed to every policy, and the whole sweep is pure
// arithmetic over the event-level model below — no goroutines, no channels,
// no wall clock — so two runs with the same Config are bit-identical, which
// CI gates on.
//
// # Event-level model
//
// Per step, rank r finishes its gradient at
//
//	arr[r] = start[r] + BaseCompute + Skew.Delay(step, r)
//
// where the injector's paper milliseconds are read as virtual milliseconds.
// The policy then decides the round's activation time:
//
//	sync:      max over live arr (everyone waits for the last straggler)
//	solo:      min over live arr (the fastest rank activates immediately)
//	majority:  arr of the round's designated initiator — partial.Initiator,
//	           the formula the engine itself calls — or, when that initiator
//	           is dead, the dead-initiator failover: the fastest live arrival
//	           plus PeerDeadline
//	quorum(k): min arr over the round's k candidates (same failover)
//
// NAP (the paper's "number of active processes", RoundInfo.ActiveProcesses)
// is the count of live ranks whose contribution arrived by activation. The
// round's result is formed at activation and propagated in ceil(log2 n)
// hops of Hop each:
//
//	end = activation + ceil(log2 n)*Hop
//	start[r] = max(arr[r], end)
//
// A rank slower than the round (arr[r] > end) continues from its own late
// arrival — partial collectives never block on stragglers; their stale
// contribution lands in a later round, exactly the eager-SGD semantics.
//
// Crashes come from faults.Scenario.CrashAtStep: rank r leaves the world at
// its scheduled step and contributes to no later round. What the model
// deliberately omits: per-message queueing inside the collective's hop
// graph, transport backpressure, and tag-level protocol detail — the real
// stack on the inproc, TCP and shm transports has those. DESIGN.md
// "Deterministic simulation" states the split.
package sweep

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"eagersgd/internal/faults"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/partial"
)

// Policy names one activation policy of the sweep.
type Policy struct {
	// Name labels the policy in curves and benchmark names ("solo",
	// "majority", "quorum3", ...).
	Name string
	// Mode is one of "sync", "solo", "majority", "quorum".
	Mode string
	// K is the candidate count for quorum mode (ignored otherwise).
	K int
}

// Config parameterizes one sweep cell: one world size × one injector, swept
// across every policy in lockstep.
type Config struct {
	// Seed is the shared initiator-selection seed (partial.Options.Seed).
	Seed uint64
	// Ranks is the world size.
	Ranks int
	// Steps is the number of training steps simulated.
	Steps int
	// BaseCompute is the skew-free per-step compute time.
	BaseCompute time.Duration
	// Skew injects the per-(step, rank) compute delay, in paper milliseconds
	// read as virtual milliseconds (nil = none).
	Skew imbalance.Injector
	// Hop is the fixed per-hop wire latency of the collective.
	Hop time.Duration
	// Policies are the activation policies compared in lockstep.
	Policies []Policy
	// Faults optionally schedules rank crashes via CrashAtStep (other
	// Scenario fields are outside this model — the real stack honors them
	// through faults.Injector).
	Faults *faults.Scenario
	// PeerDeadline is the dead-initiator failover delay: when every
	// designated initiator of a round is dead, the fastest live rank
	// self-activates after waiting this long (default 50ms), mirroring
	// partial.Options.PeerDeadline.
	PeerDeadline time.Duration
}

// Curve is one policy's aggregate result over the sweep.
type Curve struct {
	Policy Policy
	// Steps actually simulated (can stop early if every rank crashes).
	Steps int
	// Step-time statistics in virtual nanoseconds.
	MeanStepNs float64
	P50StepNs  int64
	P95StepNs  int64
	P99StepNs  int64
	// NAP statistics (the paper's active-process count per round).
	MeanNAP float64
	MinNAP  int
	MaxNAP  int
	// Survivors is the live rank count after the last step.
	Survivors int
	// TotalNs is the virtual time of the last round's completion.
	TotalNs int64
}

// Run sweeps every policy of cfg over the same load and returns one curve
// per policy, in cfg.Policies order. It rejects negative or NaN delays and any
// delay, base, deadline or wire time whose sum over Steps could overflow int64.
func Run(cfg Config) ([]Curve, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("sweep: ranks %d must be positive", cfg.Ranks)
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("sweep: steps %d must be positive", cfg.Steps)
	}
	if cfg.Hop < 0 {
		return nil, fmt.Errorf("sweep: hop %v must not be negative", cfg.Hop)
	}
	if len(cfg.Policies) == 0 {
		return nil, fmt.Errorf("sweep: no policies")
	}
	for _, p := range cfg.Policies {
		switch p.Mode {
		case "sync", "solo", "majority":
		case "quorum":
			if p.K <= 0 {
				return nil, fmt.Errorf("sweep: quorum policy %q needs K > 0", p.Name)
			}
		default:
			return nil, fmt.Errorf("sweep: unknown mode %q in policy %q", p.Mode, p.Name)
		}
	}
	skew := cfg.Skew
	if skew == nil {
		skew = imbalance.None{}
	}
	deadline := cfg.PeerDeadline
	if deadline <= 0 {
		deadline = 50 * time.Millisecond
	}

	n := cfg.Ranks
	hops := int64(1)
	if n > 1 {
		hops = int64(bits.Len(uint(n - 1))) // ceil(log2 n)
	}
	// A step advances the clock by at most base + delay + deadline + wire;
	// each held to a quarter of the per-step budget, Steps of them fit int64.
	limit := math.MaxInt64 / (4 * int64(cfg.Steps))
	if int64(cfg.BaseCompute) > limit || int64(deadline) > limit || int64(cfg.Hop) > limit/hops {
		return nil, fmt.Errorf("sweep: base %v, deadline %v or %d hops of %v exceed the %v per-step bound of %d steps",
			cfg.BaseCompute, deadline, hops, cfg.Hop, time.Duration(limit), cfg.Steps)
	}
	wire := hops * int64(cfg.Hop)
	// One generated load: every policy sees the same delays — the lockstep
	// property that makes the curves apples-to-apples.
	skews := make([][]int64, cfg.Steps) // skews[step][r]
	row := make([]float64, n)
	for step := range skews {
		imbalance.StepDelays(skew, step, row)
		skews[step] = make([]int64, n)
		for r, ms := range row {
			ns := ms * float64(time.Millisecond)
			if !(ns >= 0 && ns < math.MaxInt64/2) || int64(ns) > limit {
				return nil, fmt.Errorf("sweep: %s delay %g ms at step %d, rank %d is negative or above the %v per-step bound of %d steps",
					skew.Name(), ms, step, r, time.Duration(limit), cfg.Steps)
			}
			skews[step][r] = int64(ns)
		}
	}
	// Crash schedule: deadAt[r] = step at which rank r leaves, -1 = never.
	deadAt := make([]int, n)
	for r := range deadAt {
		deadAt[r] = -1
	}
	if cfg.Faults != nil {
		for r, step := range cfg.Faults.CrashAtStep {
			if r >= 0 && r < n && step >= 0 {
				deadAt[r] = step
			}
		}
	}

	curves := make([]Curve, 0, len(cfg.Policies))
	for _, pol := range cfg.Policies {
		curves = append(curves, runPolicy(cfg, pol, skews, wire, deadAt, int64(deadline)))
	}
	return curves, nil
}

func runPolicy(cfg Config, pol Policy, skews [][]int64, wire int64, deadAt []int, deadline int64) Curve {
	n := cfg.Ranks
	base := int64(cfg.BaseCompute)
	start := make([]int64, n)
	arr := make([]int64, n)
	stepDurs := make([]int64, 0, cfg.Steps)
	naps := make([]int, 0, cfg.Steps)
	var prevEnd int64

	for step := 0; step < cfg.Steps; step++ {
		live := 0
		var minArr, maxArr int64 = math.MaxInt64, 0
		for r := 0; r < n; r++ {
			if deadAt[r] >= 0 && step >= deadAt[r] {
				continue
			}
			live++
			arr[r] = start[r] + base + skews[step][r]
			if arr[r] < minArr {
				minArr = arr[r]
			}
			if arr[r] > maxArr {
				maxArr = arr[r]
			}
		}
		if live == 0 {
			break
		}
		isLive := func(r int) bool { return deadAt[r] < 0 || step < deadAt[r] }

		var act int64
		switch pol.Mode {
		case "sync":
			act = maxArr
		case "solo":
			act = minArr
		case "majority":
			if i0 := partial.Initiator(int64(cfg.Seed), step, 0, n); isLive(i0) {
				act = arr[i0]
			} else {
				act = minArr + deadline // dead-initiator failover
			}
		case "quorum":
			act = int64(math.MaxInt64)
			for idx := 0; idx < pol.K; idx++ {
				if c := partial.Initiator(int64(cfg.Seed), step, idx, n); isLive(c) && arr[c] < act {
					act = arr[c]
				}
			}
			if act == math.MaxInt64 {
				act = minArr + deadline // every candidate dead
			}
		}

		nap := 0
		for r := 0; r < n; r++ {
			if isLive(r) && arr[r] <= act {
				nap++
			}
		}
		end := act + wire
		stepDurs = append(stepDurs, end-prevEnd)
		prevEnd = end
		naps = append(naps, nap)
		for r := 0; r < n; r++ {
			if !isLive(r) {
				continue
			}
			if arr[r] > end {
				start[r] = arr[r] // straggler: continues from its late arrival
			} else {
				start[r] = end
			}
		}
	}

	c := Curve{Policy: pol, Steps: len(stepDurs), TotalNs: prevEnd}
	if len(stepDurs) == 0 {
		return c
	}
	var sumDur int64
	for _, d := range stepDurs {
		sumDur += d
	}
	c.MeanStepNs = float64(sumDur) / float64(len(stepDurs))
	c.P50StepNs = percentile(stepDurs, 50)
	c.P95StepNs = percentile(stepDurs, 95)
	c.P99StepNs = percentile(stepDurs, 99)
	c.MinNAP, c.MaxNAP = naps[0], naps[0]
	sumNAP := 0
	for _, v := range naps {
		sumNAP += v
		if v < c.MinNAP {
			c.MinNAP = v
		}
		if v > c.MaxNAP {
			c.MaxNAP = v
		}
	}
	c.MeanNAP = float64(sumNAP) / float64(len(naps))
	// Survivors are the ranks still live at the step where the sweep stopped
	// (one past the last completed step — a rank whose crash step equals the
	// stop step is dead, which is exactly why an all-crashed world stops).
	stop := len(stepDurs)
	for r := 0; r < cfg.Ranks; r++ {
		if deadAt[r] < 0 || stop < deadAt[r] {
			c.Survivors++
		}
	}
	return c
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of samples by
// nearest rank on a sorted copy; samples must be non-empty.
func percentile(samples []int64, p float64) int64 {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}
