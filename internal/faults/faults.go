// Package faults is the deterministic fault-injection substrate of the
// degraded-cluster test axis: a transport-endpoint wrapper that injects
// seed-driven faults per link — message delay distributions, drops,
// reordering, one-way partitions — and scripted rank crashes, all described
// by a small Scenario spec.
//
// The injector sits between a comm.Endpoint (in-process hub or TCP) and the
// communicator, so every layer above — comm matching, the schedule executor,
// the sync collectives, the partial engine — experiences the faults through
// its ordinary interfaces. Determinism comes from per-link SplitMix64-seeded
// PRNG streams: given the same Scenario (seed included) and the same per-link
// message order, the same messages are dropped, delayed, and reordered.
// Delays use real timers, but chaos tests assert liveness and participant-set
// invariants, never wall-clock thresholds, so timing jitter cannot flip a
// verdict.
//
// Crash semantics: a crashed rank's endpoint refuses sends with ErrCrashed
// and closes its inbox (its communicator observes a closed transport, so the
// rank's own blocked operations fail fast), while messages addressed to it
// are silently dropped by the sender's wrapper — the network black-holes
// traffic to a dead process. Peers learn of the crash either through the
// comm layer's per-peer deadlines (the detection path real clusters need) or,
// when Scenario.SignalCrashes is set, through a failure message in their
// inbox (comm.Message.Err) modelling a TCP connection reset: it arrives after
// what the crashed rank had already delivered.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Link identifies one directed sender→receiver pair.
type Link struct {
	From, To int
}

// LinkRule describes the faults injected on one directed link. The zero
// value injects nothing.
type LinkRule struct {
	// Drop is the probability in [0, 1] that a message is silently dropped.
	Drop float64
	// Cut drops every message on the link — a one-way partition. (Cut in both
	// directions partitions the pair completely.)
	Cut bool
	// DelayProb is the probability in [0, 1] that a message is delayed by a
	// uniform sample from [DelayMin, DelayMax]. Delayed and undelayed
	// messages still deliver in FIFO order per link (a slow link, not a
	// reordering one).
	DelayProb          float64
	DelayMin, DelayMax time.Duration
	// Reorder is the probability in [0, 1] that a message is delivered out of
	// band after a short delay, letting later messages on the link overtake
	// it (per-(source, tag) FIFO is deliberately broken for it).
	Reorder float64
}

// active reports whether the rule injects anything.
func (r LinkRule) active() bool {
	return r.Cut || r.Drop > 0 || r.DelayProb > 0 || r.Reorder > 0
}

// hasDelay reports whether the rule can delay messages in FIFO order, which
// forces all the link's ordinary traffic through a serializing worker.
func (r LinkRule) hasDelay() bool { return r.DelayProb > 0 }

// String summarizes the rule.
func (r LinkRule) String() string {
	if !r.active() {
		return "clean"
	}
	var parts []string
	if r.Cut {
		parts = append(parts, "cut")
	}
	if r.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", r.Drop))
	}
	if r.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%.2f[%v,%v]", r.DelayProb, r.DelayMin, r.DelayMax))
	}
	if r.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%.2f", r.Reorder))
	}
	return strings.Join(parts, ",")
}

// Scenario is the scriptable fault spec one injector executes. The zero value
// injects nothing.
type Scenario struct {
	// Name labels the scenario in test output and CI summaries.
	Name string
	// Seed drives every per-link PRNG stream. Two injectors built from equal
	// scenarios make identical per-link decisions.
	Seed int64
	// Default applies to every directed link without an explicit entry in
	// Links.
	Default LinkRule
	// Links overrides Default per directed (From, To) pair.
	Links map[Link]LinkRule
	// CrashAtStep schedules rank crashes: rank r crashes when its own step
	// counter (Injector.AdvanceStep(r)) reaches the given value. Crashes are
	// deterministic in the rank's step sequence, not in wall-clock time.
	CrashAtStep map[int]int
	// SignalCrashes queues a peer-failure message on every surviving rank's
	// inbox when a rank crashes, modelling a TCP connection reset.
	// When false, survivors only learn of the crash through per-peer
	// deadlines — the harsher detection model.
	SignalCrashes bool
}

// clone returns a deep copy of the scenario: the Links and CrashAtStep maps
// are duplicated so an injector's view cannot race the caller mutating its
// own Scenario (SetLink/CutOneWay are a documented chaining API).
func (s Scenario) clone() Scenario {
	out := s
	if s.Links != nil {
		out.Links = make(map[Link]LinkRule, len(s.Links))
		for k, v := range s.Links {
			out.Links[k] = v
		}
	}
	if s.CrashAtStep != nil {
		out.CrashAtStep = make(map[int]int, len(s.CrashAtStep))
		for k, v := range s.CrashAtStep {
			out.CrashAtStep[k] = v
		}
	}
	return out
}

// rule returns the effective rule for a directed link.
func (s *Scenario) rule(from, to int) LinkRule {
	if r, ok := s.Links[Link{From: from, To: to}]; ok {
		return r
	}
	return s.Default
}

// SetLink sets the rule for the directed from→to link, allocating the map as
// needed, and returns the scenario for chaining.
func (s *Scenario) SetLink(from, to int, r LinkRule) *Scenario {
	if s.Links == nil {
		s.Links = make(map[Link]LinkRule)
	}
	s.Links[Link{From: from, To: to}] = r
	return s
}

// CutOneWay drops every message from→to (a one-way partition).
func (s *Scenario) CutOneWay(from, to int) *Scenario {
	r := s.rule(from, to)
	r.Cut = true
	return s.SetLink(from, to, r)
}

// String renders a short human-readable description of the scenario, for
// logs and CI job summaries.
func (s Scenario) String() string {
	var b strings.Builder
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	fmt.Fprintf(&b, "%s(seed=%d", name, s.Seed)
	if s.Default.active() {
		fmt.Fprintf(&b, " default=%s", s.Default)
	}
	if len(s.Links) > 0 {
		links := make([]Link, 0, len(s.Links))
		for l := range s.Links {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].From != links[j].From {
				return links[i].From < links[j].From
			}
			return links[i].To < links[j].To
		})
		for _, l := range links {
			fmt.Fprintf(&b, " %d->%d=%s", l.From, l.To, s.Links[l])
		}
	}
	if len(s.CrashAtStep) > 0 {
		ranks := make([]int, 0, len(s.CrashAtStep))
		for r := range s.CrashAtStep {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			fmt.Fprintf(&b, " crash[%d]@step%d", r, s.CrashAtStep[r])
		}
		if s.SignalCrashes {
			b.WriteString(" signaled")
		}
	}
	b.WriteString(")")
	return b.String()
}
