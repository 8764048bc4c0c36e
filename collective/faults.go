package collective

import (
	"eagersgd/internal/comm"
	"eagersgd/internal/faults"
)

// The fault-injection substrate lives in internal/faults; these aliases are
// its public surface, following the same pattern as package harness. A
// FaultScenario describes deterministic, seed-driven faults per directed link
// (drops, delay distributions, reordering, one-way partitions) plus scripted
// rank crashes; pass one to WithFaults to run a world's transport through it.
type (
	// FaultScenario is the scriptable fault spec (see WithFaults).
	FaultScenario = faults.Scenario
	// FaultLink identifies one directed sender→receiver link.
	FaultLink = faults.Link
	// FaultLinkRule describes the faults injected on one link.
	FaultLinkRule = faults.LinkRule
	// FaultInjector executes a scenario; obtain a world's via FaultInjector.
	FaultInjector = faults.Injector
)

// ErrRankCrashed is returned by a crashed rank's own operations under an
// injected crash scenario.
var ErrRankCrashed = faults.ErrCrashed

// FaultInjector returns the injector executing the world's WithFaults
// scenario over the current epoch's transports, or nil when the world was
// built without one. Training loops call AdvanceStep on it at step boundaries
// so crash-at-step scripts fire deterministically; chaos tests use it to
// crash ranks and cut links at runtime. Each epoch runs its own injector —
// re-fetch the handle after a membership change (OnMembershipChange), because
// the previous epoch's injector retires with its transports.
func (w *World) FaultInjector() *FaultInjector {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen.injector
}

// PeerStatus is one member's health as observed by the world's failure
// detectors.
type PeerStatus struct {
	// Rank is the member's dense rank index within Epoch.
	Rank int
	// ID is the member's stable identity, constant across epochs; health
	// tracked across a reconfiguration must key on this, not on Rank, which
	// is reassigned at every epoch boundary.
	ID RankID
	// Epoch is the membership epoch this status describes.
	Epoch uint64
	// Up is false once any node's communicator has marked the member down
	// (or an injected fault scenario crashed it).
	Up bool
	// Err is the first cause recorded for the marking (nil while up): a
	// transport read failure, comm.ErrPeerDeadline, or an injected crash.
	Err error
}

// Peers returns the per-member health view of the current epoch: the member
// at dense rank r is reported down as soon as any node's failure detector
// marked it down, or the fault injector crashed it. A world without failures
// (and without deadlines or fault injection configured) reports every member
// up. An epoch transition reads the same verdict to skip dead members when
// it drains and picks the state source for joiners.
func (w *World) Peers() []PeerStatus {
	w.mu.Lock()
	gen, view, size := w.gen, w.view, len(w.nodes)
	w.mu.Unlock()
	out := make([]PeerStatus, size)
	for r := range out {
		err := w.downCause(gen, r)
		out[r] = PeerStatus{Rank: r, Up: err == nil, Err: err, Epoch: view.Epoch}
		if r < len(view.Members) {
			out[r].ID = view.Members[r].ID
		}
	}
	return out
}

// PeerDown reports whether this node's communicator has marked the rank down
// (see comm-level failure detection); the node's own rank is always up.
func (n *Node) PeerDown(rank int) bool { return n.comm.PeerError(rank) != nil }

// MarkPeerDown lets integrations with external failure detectors (a cluster
// membership service, an orchestrator's liveness probe) declare a rank dead
// on this node: blocked operations naming it unblock with a typed error and
// eager reducers drop it from subsequent rounds. The marking is sticky.
func (n *Node) MarkPeerDown(rank int, cause error) { n.comm.MarkPeerDown(rank, cause) }

// ErrPeerDown is the comm-layer sentinel matched by every peer-failure error
// surfaced through this package (errors.Is). See also ErrRankUnreachable.
var ErrPeerDown = comm.ErrPeerDown
