// Package membership implements epoch-based membership reconfiguration for
// elastic worlds: ranks join, leave, and are replaced while training runs.
//
// The design follows the old-world/new-world handoff shape of dynamic-
// committee protocols: membership is versioned by a monotonically increasing
// epoch, each epoch has an immutable member set, and a transition from epoch
// N to N+1 overlaps the outgoing and incoming membership for exactly one
// window — the outgoing world drains its in-flight work, model state is
// transferred to joiners, and then the new epoch is committed atomically.
//
// Two identities coexist on purpose:
//
//   - RankID is stable: assigned once when a member first joins and never
//     reused. Health views, membership verbs, and the transition protocol
//     speak RankIDs.
//   - The dense rank index (a member's position in the epoch's sorted member
//     list) is per-epoch wire state: transports, communicators, and
//     collective schedules are built over [0, Size) indices, and a member's
//     index may change across epochs when earlier members leave.
//
// The transition itself is a small coordinator-driven state machine
// (Transition): the lowest live member proposes epoch N+1, every live member
// acknowledges once its in-flight bucketed steps are drained, state is
// transferred to joiners (see transfer.go), and the coordinator commits. A
// coordinator that dies mid-transition is re-elected from the surviving
// members via the same health view that detected the death.
package membership

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// RankID is the stable identity of a member, distinct from its dense
// per-epoch rank index: assigned when the member first joins, never reused,
// and constant across every epoch the member belongs to.
type RankID int64

// Member is one participant of an epoch: its stable identity plus the
// (possibly empty) transport address it announced when joining.
type Member struct {
	ID   RankID
	Addr string
}

// View is one epoch's immutable membership: the epoch counter and the member
// set in dense rank-index order (Members[i] holds rank index i).
type View struct {
	Epoch   uint64
	Members []Member
}

// Size returns the number of members.
func (v View) Size() int { return len(v.Members) }

// IndexOf returns the dense rank index of the member with the given stable
// ID, or -1 when the ID is not part of this epoch.
func (v View) IndexOf(id RankID) int {
	for i, m := range v.Members {
		if m.ID == id {
			return i
		}
	}
	return -1
}

// IDs returns the member IDs in dense rank-index order.
func (v View) IDs() []RankID {
	out := make([]RankID, len(v.Members))
	for i, m := range v.Members {
		out[i] = m.ID
	}
	return out
}

// clone deep-copies the view so committed epochs stay immutable.
func (v View) clone() View {
	return View{Epoch: v.Epoch, Members: append([]Member(nil), v.Members...)}
}

// ChangeKind enumerates the membership verbs.
type ChangeKind int

const (
	// ChangeJoin adds a fresh member.
	ChangeJoin ChangeKind = iota
	// ChangeLeave removes a member.
	ChangeLeave
	// ChangeReplace removes a (typically dead) member and adds a fresh one
	// in the same transition, the crash-recovery verb.
	ChangeReplace
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeJoin:
		return "join"
	case ChangeLeave:
		return "leave"
	case ChangeReplace:
		return "replace"
	default:
		return fmt.Sprintf("change(%d)", int(k))
	}
}

// Change is one requested membership edit.
type Change struct {
	Kind ChangeKind
	// Dead is the member being removed (Leave and Replace).
	Dead RankID
	// Addr is the announced address of the incoming member (Join, Replace).
	Addr string
}

// Phase is a transition's position in the epoch-handoff state machine.
type Phase int

const (
	// PhaseProposed: the coordinator has proposed the new view; survivors
	// have not yet drained.
	PhaseProposed Phase = iota
	// PhaseDraining: live members are finishing their in-flight steps.
	PhaseDraining
	// PhaseTransferring: model state is being pushed to the joiners.
	PhaseTransferring
	// PhaseCommitted: the new epoch is installed; the transition is over.
	PhaseCommitted
	// PhaseAborted: the transition was abandoned (world closing, build
	// failure); the old epoch remains in force.
	PhaseAborted
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseProposed:
		return "proposed"
	case PhaseDraining:
		return "draining"
	case PhaseTransferring:
		return "transferring"
	case PhaseCommitted:
		return "committed"
	case PhaseAborted:
		return "aborted"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Errors of the membership protocol.
var (
	// ErrNotMember is returned for verbs naming a RankID outside the current
	// epoch.
	ErrNotMember = errors.New("membership: rank is not a member of the current epoch")
	// ErrTransitionActive is returned when a second transition is proposed
	// while one is still in flight.
	ErrTransitionActive = errors.New("membership: a transition is already in flight")
	// ErrEmptyWorld is returned by a change that would leave the epoch with
	// no members.
	ErrEmptyWorld = errors.New("membership: change would leave an empty world")
	// ErrNoCoordinator is returned when every member is down, so no
	// coordinator can be elected.
	ErrNoCoordinator = errors.New("membership: no live member to coordinate the transition")
)

// Coordinator elects the transition coordinator from a view: the live member
// with the lowest stable RankID (down reports the health view's verdict for
// a member). The bool is false when every member is down.
func Coordinator(v View, down func(RankID) bool) (RankID, bool) {
	best := RankID(-1)
	for _, m := range v.Members {
		if down != nil && down(m.ID) {
			continue
		}
		if best < 0 || m.ID < best {
			best = m.ID
		}
	}
	return best, best >= 0
}

// Transition records one epoch handoff in flight: the outgoing and proposed
// views, the elected coordinator, the protocol phase, and per-member drain
// acknowledgements.
type Transition struct {
	mu          sync.Mutex
	from, to    View
	changes     []Change
	coordinator RankID
	phase       Phase
	acks        map[RankID]bool
	joined      []RankID // stable IDs minted for the incoming members
}

// From returns the outgoing epoch's view.
func (t *Transition) From() View { t.mu.Lock(); defer t.mu.Unlock(); return t.from.clone() }

// To returns the proposed epoch's view.
func (t *Transition) To() View { t.mu.Lock(); defer t.mu.Unlock(); return t.to.clone() }

// Joined returns the stable IDs minted for the transition's incoming
// members, in the order their changes were given.
func (t *Transition) Joined() []RankID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]RankID(nil), t.joined...)
}

// Coordinator returns the currently elected coordinator.
func (t *Transition) Coordinator() RankID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.coordinator
}

// Phase returns the transition's current phase.
func (t *Transition) Phase() Phase { t.mu.Lock(); defer t.mu.Unlock(); return t.phase }

// setPhase advances the state machine. Phases only move forward; Committed
// and Aborted are terminal.
func (t *Transition) setPhase(p Phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.phase == PhaseCommitted || t.phase == PhaseAborted {
		return
	}
	t.phase = p
}

// Advance moves the state machine to the given phase (the transition driver
// calls it at each protocol boundary). Phases only move forward; Committed
// and Aborted are terminal and owned by the tracker's Commit/Abort.
func (t *Transition) Advance(p Phase) {
	if p == PhaseCommitted || p == PhaseAborted {
		return
	}
	t.setPhase(p)
}

// Ack records that the member has drained its in-flight work at the epoch
// boundary. Unknown IDs are ignored.
func (t *Transition) Ack(id RankID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.acks[id]; ok {
		t.acks[id] = true
	}
}

// AllAcked reports whether every surviving member (one that is in both the
// outgoing and proposed views and that down does not report dead) has
// acknowledged the drain.
func (t *Transition) AllAcked(down func(RankID) bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, acked := range t.acks {
		if acked {
			continue
		}
		if down != nil && down(id) {
			continue // the dead do not vote
		}
		return false
	}
	return true
}

// Reelect re-runs the coordinator election over the outgoing view's live
// members — the recovery step when the health view reports the coordinator
// dead mid-transition. It returns the new coordinator and whether one exists.
func (t *Transition) Reelect(down func(RankID) bool) (RankID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := Coordinator(t.from, down)
	if ok {
		t.coordinator = id
	}
	return id, ok
}

// Tracker owns the authoritative membership view of one world and serializes
// its transitions: at most one Transition is in flight at a time, and commits
// are atomic — observers never see a half-installed epoch.
type Tracker struct {
	mu     sync.Mutex
	cur    View
	nextID RankID
	trans  *Transition
	subs   []func(View)
}

// NewTracker builds the epoch-0 tracker for a world of the given size.
// Stable IDs 0..size-1 are assigned to the founding members in rank order,
// so for epoch 0 the stable ID and the dense index coincide.
func NewTracker(size int) *Tracker {
	members := make([]Member, size)
	for i := range members {
		members[i] = Member{ID: RankID(i)}
	}
	return &Tracker{cur: View{Epoch: 0, Members: members}, nextID: RankID(size)}
}

// View returns the current committed epoch's view.
func (tr *Tracker) View() View {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.cur.clone()
}

// Subscribe registers fn to be invoked (outside the tracker lock) after every
// committed epoch change.
func (tr *Tracker) Subscribe(fn func(View)) {
	tr.mu.Lock()
	tr.subs = append(tr.subs, fn)
	tr.mu.Unlock()
}

// Propose validates the requested changes against the current epoch, elects
// a coordinator among the live members, and opens the transition to epoch
// N+1. The proposed view keeps surviving members in stable-ID order and
// appends joiners (with freshly minted IDs) after them, then re-sorts by ID —
// so dense indices are the by-ID order of the new member set. At most one
// transition may be in flight.
func (tr *Tracker) Propose(changes []Change, down func(RankID) bool) (*Transition, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.trans != nil {
		return nil, ErrTransitionActive
	}
	if len(changes) == 0 {
		return nil, errors.New("membership: empty change set")
	}
	next := make([]Member, len(tr.cur.Members))
	copy(next, tr.cur.Members)
	var joined []RankID
	remove := func(id RankID) error {
		for i, m := range next {
			if m.ID == id {
				next = append(next[:i], next[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("%w: id %d", ErrNotMember, id)
	}
	nextID := tr.nextID
	for _, ch := range changes {
		switch ch.Kind {
		case ChangeLeave:
			if err := remove(ch.Dead); err != nil {
				return nil, err
			}
		case ChangeReplace:
			if err := remove(ch.Dead); err != nil {
				return nil, err
			}
			next = append(next, Member{ID: nextID, Addr: ch.Addr})
			joined = append(joined, nextID)
			nextID++
		case ChangeJoin:
			next = append(next, Member{ID: nextID, Addr: ch.Addr})
			joined = append(joined, nextID)
			nextID++
		default:
			return nil, fmt.Errorf("membership: unknown change kind %v", ch.Kind)
		}
	}
	if len(next) == 0 {
		return nil, ErrEmptyWorld
	}
	sort.Slice(next, func(i, j int) bool { return next[i].ID < next[j].ID })
	coord, ok := Coordinator(tr.cur, down)
	if !ok {
		return nil, ErrNoCoordinator
	}
	t := &Transition{
		from:        tr.cur.clone(),
		to:          View{Epoch: tr.cur.Epoch + 1, Members: next},
		changes:     append([]Change(nil), changes...),
		coordinator: coord,
		phase:       PhaseProposed,
		acks:        make(map[RankID]bool),
		joined:      joined,
	}
	// Only members present in both views drain: joiners have nothing in
	// flight and the removed are gone (or dead) by definition.
	for _, m := range tr.cur.Members {
		if t.to.IndexOf(m.ID) >= 0 {
			t.acks[m.ID] = false
		}
	}
	tr.trans = t
	tr.nextID = nextID
	return t, nil
}

// Transition returns the in-flight transition, or nil.
func (tr *Tracker) Transition() *Transition {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.trans
}

// Commit installs the transition's proposed view as the new current epoch and
// notifies subscribers (outside the lock). The transition must be the one
// opened by Propose.
func (tr *Tracker) Commit(t *Transition) {
	tr.mu.Lock()
	if tr.trans != t {
		tr.mu.Unlock()
		return
	}
	t.setPhase(PhaseCommitted)
	tr.cur = t.to.clone()
	tr.trans = nil
	subs := append([]func(View){}, tr.subs...)
	view := tr.cur.clone()
	tr.mu.Unlock()
	for _, fn := range subs {
		fn(view)
	}
}

// Abort abandons the transition: the outgoing epoch stays in force and the
// minted joiner IDs are burned (never reused).
func (tr *Tracker) Abort(t *Transition) {
	tr.mu.Lock()
	if tr.trans == t {
		tr.trans = nil
	}
	tr.mu.Unlock()
	t.setPhase(PhaseAborted)
}
