// Package sweep is the lockstep sweep driver over the simnet models: it
// replays {solo, majority, quorum(k), sync} partial-collective policies
// against identical per-rank compute-skew draws and per-step wire draws,
// producing the paper's NAP-vs-step-time trade-off curves at world sizes
// (1000+ ranks) the socket transports cannot reach.
//
// The driver follows the seeded tick-world idiom (see SNIPPETS.md Snippet 1):
// one root seed derives every stream, every policy consumes the same draws,
// and the whole sweep is pure arithmetic over the event-level model below —
// no goroutines, no channels, no wall clock — so two runs with the same
// Config are bit-identical, which CI gates on.
//
// # Event-level model
//
// Per step, rank r finishes its gradient at
//
//	arr[r] = start[r] + BaseCompute + skew[r][step]
//
// where skew draws come from per-rank streams seeded (simnet.DomainSkew, r).
// The policy then decides the round's activation time:
//
//	sync:      max over live arr (everyone waits for the last straggler)
//	solo:      min over live arr (the fastest rank activates immediately)
//	majority:  arr of the round's designated initiator — selected by the
//	           exact seeded formula internal/partial uses — or, when every
//	           designated initiator is dead, the dead-initiator failover:
//	           the fastest live arrival plus PeerDeadline
//	quorum(k): min arr over the round's k seeded candidates (same failover)
//
// NAP (the paper's "number of active processes", RoundInfo.ActiveProcesses)
// is the count of live ranks whose contribution arrived by activation. The
// round's result is formed at activation and propagated in ceil(log2 n)
// hops, each drawing wire latency from a shared per-step stream:
//
//	end = activation + wire[step]
//	start[r] = max(arr[r], end)
//
// A rank slower than the round (arr[r] > end) continues from its own late
// arrival — partial collectives never block on stragglers; their stale
// contribution lands in a later round, exactly the eager-SGD semantics.
//
// Crashes come from faults.Scenario.CrashAtStep (the PR 5 vocabulary): rank
// r leaves the world at its scheduled step and contributes to no later
// round. What the model deliberately omits: per-message queueing inside the
// collective's hop graph, transport backpressure, and tag-level protocol
// detail — the real stack on the inproc, TCP and shm transports has those.
// DESIGN.md "Deterministic simulation" states the split.
package sweep

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"eagersgd/internal/faults"
	"eagersgd/internal/simnet"
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

// Config parameterizes one sweep cell: one world size × one skew model,
// swept across every policy in lockstep.
type Config struct {
	// Seed is the root seed; every stream (skew, wire, initiator selection)
	// derives from it.
	Seed uint64
	// Ranks is the world size.
	Ranks int
	// Steps is the number of training steps simulated.
	Steps int
	// BaseCompute is the skew-free per-step compute time.
	BaseCompute time.Duration
	// Skew models per-rank per-step compute skew (nil = none).
	Skew simnet.Model
	// Link models per-hop wire latency of the collective (nil = none).
	Link simnet.Model
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

// Run sweeps every policy of cfg over identical draws and returns one curve
// per policy, in cfg.Policies order.
func Run(cfg Config) ([]Curve, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("sweep: ranks %d must be positive", cfg.Ranks)
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("sweep: steps %d must be positive", cfg.Steps)
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
	skewModel := cfg.Skew
	if skewModel == nil {
		skewModel = simnet.Constant(0)
	}
	linkModel := cfg.Link
	if linkModel == nil {
		linkModel = simnet.Constant(0)
	}
	deadline := cfg.PeerDeadline
	if deadline <= 0 {
		deadline = 50 * time.Millisecond
	}

	n := cfg.Ranks
	// Shared draws: every policy sees the same skew and wire samples — the
	// lockstep property that makes the curves apples-to-apples.
	skews := make([][]int64, n) // skews[r][step]
	for r := 0; r < n; r++ {
		s := skewModel.Sampler(simnet.DeriveSeed(cfg.Seed, simnet.DomainSkew, uint64(r)))
		draws := make([]int64, cfg.Steps)
		for step := range draws {
			draws[step] = s.Next()
		}
		skews[r] = draws
	}
	hops := int64(1)
	if n > 1 {
		hops = int64(bits.Len(uint(n - 1))) // ceil(log2 n)
	}
	wire := make([]int64, cfg.Steps)
	ws := linkModel.Sampler(simnet.DeriveSeed(cfg.Seed, simnet.DomainWire, 0))
	for step := range wire {
		var sum int64
		for h := int64(0); h < hops; h++ {
			sum += ws.Next()
		}
		wire[step] = sum
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

func runPolicy(cfg Config, pol Policy, skews [][]int64, wire []int64, deadAt []int, deadline int64) Curve {
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
			arr[r] = start[r] + base + skews[r][step]
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
			if i0 := initiatorFor(cfg.Seed, step, 0, n); isLive(i0) {
				act = arr[i0]
			} else {
				act = minArr + deadline // dead-initiator failover
			}
		case "quorum":
			act = int64(math.MaxInt64)
			for idx := 0; idx < pol.K; idx++ {
				if c := initiatorFor(cfg.Seed, step, idx, n); isLive(c) && arr[c] < act {
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
		end := act + wire[step]
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
	c.P50StepNs = simnet.Percentile(stepDurs, 50)
	c.P95StepNs = simnet.Percentile(stepDurs, 95)
	c.P99StepNs = simnet.Percentile(stepDurs, 99)
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

// initiatorFor mirrors internal/partial's designated-initiator selection
// exactly — same SplitMix64 finalizer, same mixing constants — so the sweep
// model activates the very rank the real engine would for a given (seed,
// round, idx).
func initiatorFor(seed uint64, round, idx, size int) int {
	h := mix64(seed ^ (uint64(round)+1)*0x9e3779b97f4a7c15 ^ uint64(idx)*0xbf58476d1ce4e5b9)
	return int(h % uint64(size))
}

// mix64 is the SplitMix64 finalizer (see internal/partial.splitmix64).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
