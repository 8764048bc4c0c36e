package partial

import "slices"

// Activation is one rank's activation protocol as a value, with no I/O and no
// lock: the persistent schedule's consumable OR-activation (§4.1.1, Fig. 6),
// §4.2's shared-seed candidates with their failover, and the snapshot's fresh
// flag (Fig. 7). Each event is one method: the Allreducer calls it under a.mu,
// explore_test.go in every order, and internal/sweep in virtual time.
type Activation struct {
	rank, size int
	opts       Options
	stats      Stats // the Allreducer's: Rounds and the activation counters are counted here

	// The highest round the application arrived at, asked to start here, took
	// a peer's stamp for, activated and completed here (-1 none).
	arrived, internal, stamp, active, done int
}

// NewActivation returns the machine of rank in a world of size, before round 0.
func NewActivation(rank, size int, opts Options) Activation {
	return Activation{rank: rank, size: size, opts: opts, arrived: -1, internal: -1, stamp: -1, active: -1, done: -1}
}

// Arrive is the application arriving at round r. It reports whether to wake
// the engine: this rank may start the round, and does.
func (m *Activation) Arrive(r int, alive func(rank int) bool) bool {
	m.arrived = max(m.arrived, r)
	return m.request(r, alive)
}

// Receive is a peer's activation stamped s arriving; it reports whether to
// wake the engine. A stamp at or below a round activated here is a redundant
// flood copy, never the next round's; a later one is kept until its round.
func (m *Activation) Receive(s int) bool {
	if s <= m.stamp || s <= m.active {
		m.stats.StaleActivations++
		return false
	}
	m.stamp = s
	return true
}

// Arm is the engine arming round r, or waking while armed on it. It reports
// whether the round is activated, internally or externally, and must run now.
func (m *Activation) Arm(r int) bool {
	switch {
	case m.internal >= r:
		m.stats.InternalActivations++
		if m.stamp == r {
			m.stats.StaleActivations++ // a peer's activation was waiting too; ours won
		}
	case m.stamp >= r:
		m.stats.ExternalActivations++
	default:
		return false
	}
	m.active = r
	return true
}

// PeerDown is a peer being marked down: the application's round may have lost
// its last live candidate and fail over. It reports whether to wake the engine.
func (m *Activation) PeerDown(alive func(rank int) bool) bool {
	return m.request(m.arrived, alive)
}

// Deadline is round r's deadline firing at a rank waiting on it. It reports
// whether to suspect the round's candidates: only before it activated here,
// as then the wait is on the data phase, whose deadlines handle dead ranks.
func (m *Activation) Deadline(r int) bool {
	return m.done < r && m.active < r
}

// Complete is round r completing here.
func (m *Activation) Complete(r int) {
	m.done = r
	m.stats.Rounds++
}

// Fresh reports whether round r's snapshot carries a fresh contribution.
func (m *Activation) Fresh(r int) bool { return m.arrived >= r }

// request starts round r for the application if it is still to run and this
// rank is a candidate, or with a peer deadline every candidate is down.
func (m *Activation) request(r int, alive func(rank int) bool) bool {
	if m.done >= r || m.internal >= r {
		return false
	}
	if !m.isInitiator(r) {
		if m.opts.PeerDeadline <= 0 || m.anyCandidate(r, alive) {
			return false
		}
		m.stats.FailoverActivations++
	}
	m.internal = r
	return true
}

// isInitiator reports whether this rank is a candidate of the round.
func (m *Activation) isInitiator(r int) bool {
	return m.EveryRank() || m.anyCandidate(r, func(c int) bool { return c == m.rank })
}

// EveryRank reports whether every rank is a candidate of every round.
func (m *Activation) EveryRank() bool {
	return candidateCount(m.opts.Mode, m.opts.Candidates, m.size) >= m.size
}

// anyCandidate reports whether pred holds for one of the round's Candidates.
func (m *Activation) anyCandidate(r int, pred func(rank int) bool) bool {
	found := false
	Candidates(m.opts.Mode, m.opts.Candidates, m.opts.Seed, r, m.size, func(c int) bool {
		found = pred(c)
		return !found
	})
	return found
}

// Peers returns the ranks this rank floods an activation to: its neighbours in
// the hypercube of dimension k = ⌈log₂ size⌉, rank v − 2^(k−1) standing in
// for each vertex v ≥ size. A round reaches all within k hops, and a death (at
// most two vertices of the k-connected hypercube) leaves the rest connected.
func (m *Activation) Peers() []int {
	top := 1
	for top*2 < m.size {
		top *= 2
	}
	var out []int
	for v := m.rank; v < 2*top && (v == m.rank || v >= m.size); v += top {
		for d := 1; d < 2*top; d *= 2 {
			p := v ^ d
			if p >= m.size {
				p -= top
			}
			if p != m.rank && !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}
