// Package sweep is the deterministic lockstep sweep: it replays {solo,
// majority, quorum(k), sync} partial-collective policies against one
// imbalance.Injector — the same per-(step, rank) delays the training stack
// injects — producing the paper's NAP-vs-step-time trade-off curves at world
// sizes (1000+ ranks) the socket transports cannot reach. The CLI is
// cmd/simsweep.
//
// The driver follows the seeded tick-world idiom (see SNIPPETS.md Snippet 1):
// one generated load is handed to every policy, and one driver steps each in
// virtual time — no goroutines, no channels, no wall clock — so two runs with
// the same Config are bit-identical, which CI gates on.
//
// # Event-level model
//
// Per step, rank r finishes its gradient at
//
//	arr[r] = start[r] + BaseCompute + Skew.Delay(step, r)
//
// where the injector's paper milliseconds are read as virtual milliseconds.
// A sync round activates at the last live arrival and counts every live rank.
// The eager policies are the engine's modes (solo, majority, quorum(K)) and
// run its own protocol: one partial.Activation per rank, fed the arrivals,
// the flood's stamps (Hop per hop) and the peer deadlines as the engine feeds
// it. So activation, failover and NAP (the paper's "number of active
// processes": the ranks whose snapshot is fresh at their own activation) come
// from the machine alone. The result then takes ceil(log2 n) hops of Hop:
//
//	end = last live activation + ceil(log2 n)*Hop
//	start[r] = max(arr[r], end)
//
// A rank slower than the round (arr[r] > end) continues from its own late
// arrival — partial collectives never block on stragglers; their stale
// contribution lands in a later round, exactly the eager-SGD semantics.
//
// Crashes come from faults.Scenario.CrashAtStep: rank r leaves the world at
// its scheduled step and contributes to no later round. What the model
// deliberately omits (per-message queueing, backpressure, the data phase's
// cost of a dead peer, a detector that suspects a live rank) DESIGN.md
// "Deterministic simulation" states.
package sweep

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	// K is the candidate count for quorum mode (ignored otherwise); a K at or
	// above Ranks makes every rank a candidate, as in solo.
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
	// PeerDeadline is partial.Options.PeerDeadline (default 50ms): a rank
	// still unactivated this long after it arrives marks the round's crashed
	// candidates down, for good, and fails over if none is left.
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
// per policy, in cfg.Policies order. It rejects negative or NaN delays, any
// delay, base, deadline, flood or wire time whose sum over Steps could overflow
// int64, and a round that leaves a live rank unactivated (cut off by deaths).
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
		if _, eager := eagerModes[p.Mode]; !eager && p.Mode != "sync" {
			return nil, fmt.Errorf("sweep: unknown mode %q in policy %q", p.Mode, p.Name)
		}
		if p.Mode == "quorum" && p.K <= 0 {
			return nil, fmt.Errorf("sweep: quorum policy %q needs K > 0", p.Name)
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
	// deadAt[r] is the step rank r leaves at (-1 never). The flood takes at
	// most ceil(log2 n) hops (measured for n ≤ 2048), or n-1 after deaths.
	deadAt, flood := make([]int, n), hops
	crash := cmp.Or(cfg.Faults, &faults.Scenario{}).CrashAtStep
	for r := range deadAt {
		deadAt[r] = -1
		if step, ok := crash[r]; ok && step >= 0 {
			deadAt[r], flood = step, max(hops, int64(n-1))
		}
	}
	// A step advances the clock by at most base + delay + deadline + flood and
	// wire; each held to a quarter of the per-step budget, Steps of them fit.
	limit := math.MaxInt64 / (4 * int64(cfg.Steps))
	if int64(cfg.BaseCompute) > limit || int64(deadline) > limit || int64(cfg.Hop) > limit/(flood+hops) {
		return nil, fmt.Errorf("sweep: base %v, deadline %v or %d hops of %v exceed the %v per-step bound of %d steps",
			cfg.BaseCompute, deadline, flood+hops, cfg.Hop, time.Duration(limit), cfg.Steps)
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
	curves := make([]Curve, 0, len(cfg.Policies))
	for _, pol := range cfg.Policies {
		c, err := runPolicy(cfg, pol, skews, wire, deadAt, int64(deadline))
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// eagerModes maps each eager policy mode to the engine mode whose machine
// steps it.
var eagerModes = map[string]partial.Mode{"solo": partial.Solo, "majority": partial.Majority, "quorum": partial.Quorum}

// runPolicy steps one policy over the load: sync in closed form, a round
// ending one wire term after its last live arrival with every live rank in it;
// an eager policy on the engine's own machines (engines.round).
func runPolicy(cfg Config, pol Policy, skews [][]int64, wire int64, deadAt []int, deadline int64) (Curve, error) {
	n := cfg.Ranks
	mode, eager := eagerModes[pol.Mode]
	var e engines
	if eager { // sync steps no machine
		e = engines{m: make([]partial.Activation, n), hop: int64(cfg.Hop), peers: make([][]int, n), down: make([][]int, n),
			view: make([]func(int) bool, n), act: make([]bool, n),
			opts: partial.Options{Mode: mode, Candidates: pol.K, Seed: int64(cfg.Seed), PeerDeadline: time.Duration(deadline)}}
		for q := range e.m {
			e.m[q] = partial.NewActivation(q, n, e.opts)
			e.peers[q] = e.m[q].Peers()
			e.view[q] = func(p int) bool { return !slices.Contains(e.down[q], p) }
		}
	}
	base := int64(cfg.BaseCompute)
	start, arr, order := make([]int64, n), make([]int64, n), make([]int, 0, n) // order: the step's live ranks
	stepDurs, naps := make([]int64, 0, cfg.Steps), make([]int, 0, cfg.Steps)
	var prevEnd int64

	for step := 0; step < cfg.Steps; step++ {
		isLive := func(r int) bool { return deadAt[r] < 0 || step < deadAt[r] }
		order = order[:0]
		var last int64
		for r := 0; r < n; r++ {
			if isLive(r) {
				arr[r] = start[r] + base + skews[step][r]
				last = max(last, arr[r])
				order = append(order, r)
			}
		}
		if len(order) == 0 {
			break
		}
		nap := len(order)
		if eager {
			var err error
			if last, nap, err = e.round(step, prevEnd, arr, order, isLive); err != nil {
				return Curve{}, fmt.Errorf("sweep: policy %q, step %d: %w", pol.Name, step, err)
			}
		}
		end := last + wire
		stepDurs = append(stepDurs, end-prevEnd)
		prevEnd = end
		naps = append(naps, nap)
		for _, r := range order {
			// A straggler (arr[r] > end) continues from its late arrival.
			start[r] = max(arr[r], end)
		}
	}

	c := Curve{Policy: pol, Steps: len(stepDurs), TotalNs: prevEnd}
	if len(stepDurs) == 0 {
		return c, nil
	}
	c.MeanStepNs = float64(prevEnd) / float64(len(stepDurs)) // the durations sum to the last end
	c.P50StepNs = percentile(stepDurs, 50)
	c.P95StepNs = percentile(stepDurs, 95)
	c.P99StepNs = percentile(stepDurs, 99)
	c.MinNAP, c.MaxNAP = slices.Min(naps), slices.Max(naps)
	sumNAP := 0
	for _, v := range naps {
		sumNAP += v
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
	return c, nil
}

// engines holds one partial.Activation per rank of an eager policy and steps
// them through its rounds, delivering each event to the method the engine
// calls for it.
type engines struct {
	m      []partial.Activation
	opts   partial.Options
	hop    int64
	peers  [][]int          // each rank's flood neighbours
	down   [][]int          // the crashed ranks each rank's own deadlines marked down
	view   []func(int) bool // a rank's view: a peer is alive until it marks it down
	act    []bool           // activated in the current round
	stamps []stamp          // the round's flood, in the order its stamps land
}

// stamp is one activation stamp that lands at rank to at virtual time at.
type stamp struct{ at, to int64 }

// round steps round step from prev, the previous round's completion, over the
// live ranks in order, which arrive at arr. A rank arms the round at prev and
// after each event that reports true; its first true activation floods a stamp
// to each peer one Hop later. So stamps land in the order sent, and with the
// arrivals and deadlines (PeerDeadline after them) three sorted queues hold the
// round: arrivals first, then stamps, then deadlines on equal times. A deadline
// that reports true marks the round's crashed candidates down in the rank's own
// view. round returns the last activation and the NAP.
func (e *engines) round(step int, prev int64, arr []int64, order []int, isLive func(int) bool) (last int64, nap int, err error) {
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(arr[a], arr[b]), a-b) })
	e.stamps, last = e.stamps[:0], prev
	activated, deadlines := 0, len(order)
	if e.m[order[0]].EveryRank() {
		deadlines = 0 // no candidate to wait for: the engine arms no timer
	}
	arm := func(q int, at int64, woken bool) {
		if !woken || e.act[q] || !e.m[q].Arm(step) {
			return
		}
		e.act[q], last, activated = true, at, activated+1
		if e.m[q].Fresh(step) {
			nap++
		}
		for _, p := range e.peers[q] {
			e.stamps = append(e.stamps, stamp{at + e.hop, int64(p)})
		}
	}
	for _, q := range order {
		e.act[q] = false
		arm(q, prev, true)
	}
	for a, s, d := 0, 0, 0; a < len(order) || s < len(e.stamps) || d < deadlines; {
		ta, ts, td := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
		if a < len(order) {
			ta = arr[order[a]]
		}
		if s < len(e.stamps) {
			ts = e.stamps[s].at
		}
		if d < deadlines {
			td = arr[order[d]] + int64(e.opts.PeerDeadline)
		}
		switch {
		case ta <= ts && ta <= td:
			q := order[a]
			a++
			arm(q, ta, e.m[q].Arrive(step, e.view[q]))
		case ts <= td:
			q := int(e.stamps[s].to)
			s++
			arm(q, ts, isLive(q) && e.m[q].Receive(step)) // a dead rank receives nothing
		default:
			q := order[d]
			d++
			if !e.m[q].Deadline(step) {
				continue
			}
			partial.Candidates(e.opts.Mode, e.opts.Candidates, e.opts.Seed, step, len(e.m), func(c int) bool {
				if !isLive(c) && !slices.Contains(e.down[q], c) {
					e.down[q] = append(e.down[q], c)
				}
				return true
			})
			arm(q, td, e.m[q].PeerDown(e.view[q]))
		}
	}
	if activated < len(order) {
		return 0, 0, fmt.Errorf("%d of %d live ranks never activated", len(order)-activated, len(order))
	}
	for _, q := range order {
		e.m[q].Complete(step)
	}
	return last, nap, nil
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of samples by
// nearest rank on a sorted copy; samples must be non-empty.
func percentile(samples []int64, p float64) int64 {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}
