package collective

import (
	"errors"

	"eagersgd/internal/faults"
	"eagersgd/internal/membership"
)

// RankID is the stable identity of a world member, distinct from its dense
// per-epoch rank index: assigned when the member first joins, never reused,
// and constant across every epoch the member belongs to. Founding members'
// IDs equal their epoch-0 ranks.
type RankID = membership.RankID

// Member is one participant of an epoch, as reported by Membership and
// OnMembershipChange.
type Member struct {
	// ID is the member's stable identity.
	ID RankID
	// Rank is the member's dense rank index in this epoch.
	Rank int
	// Addr is the transport address the member announced when joining (empty
	// for founding members).
	Addr string
}

// Epoch is one committed membership: the epoch counter plus the member set in
// dense rank order.
type Epoch struct {
	Number  uint64
	Members []Member
}

// Membership errors.
var (
	// ErrNotMember is returned by verbs naming a RankID outside the current
	// epoch, and by operations on a Node that has left the world.
	ErrNotMember = membership.ErrNotMember
	// ErrWorldClosed is returned by membership verbs once Close has begun.
	ErrWorldClosed = errors.New("collective: world is closed")
)

// errNoLiveMember is returned by a membership change while every member of
// the current epoch is down: nobody is left to drain or to hand state over.
var errNoLiveMember = errors.New("collective: no live member in the current epoch")

// Membership returns the current committed epoch.
func (w *World) Membership() Epoch {
	w.mu.Lock()
	defer w.mu.Unlock()
	return epochOf(w.view)
}

func epochOf(view membership.View) Epoch {
	e := Epoch{Number: view.Epoch, Members: make([]Member, len(view.Members))}
	for i, m := range view.Members {
		e.Members[i] = Member{ID: m.ID, Rank: i, Addr: m.Addr}
	}
	return e
}

// OnMembershipChange registers fn to be called after every committed epoch
// transition, outside the world's locks, with the new epoch. External
// schedulers subscribe here instead of polling Membership; training loops use
// it to re-fetch per-epoch handles (Node.Communicator) after a change.
func (w *World) OnMembershipChange(fn func(Epoch)) {
	w.mu.Lock()
	w.subs = append(w.subs, fn)
	w.mu.Unlock()
}

// Join admits a fresh member while training runs: the world transitions to
// the next epoch, in-flight steps drain at the epoch boundary, the joiner
// receives a copy of a surviving member's model parameters (SetStateProvider),
// and the returned Node is a full member of the new epoch — mint its reducers
// (same dim and options as everyone else) and start its training loop. addr is
// recorded as the member's announced address; for the in-process transports
// it is an opaque label.
func (w *World) Join(addr string) (*Node, error) {
	nodes, err := w.transition([]membership.Change{{Kind: membership.ChangeJoin, Addr: addr}})
	if err != nil {
		return nil, err
	}
	return nodes[0], nil
}

// Leave removes the member with the given stable ID at the next epoch
// boundary. The member's Node and reducers return ErrNotMember /
// ErrReducerClosed afterwards; its trainer should stop. The member itself
// need not be alive — Leave is also how a dead rank is excised without a
// replacement.
func (w *World) Leave(id RankID) error {
	_, err := w.transition([]membership.Change{{Kind: membership.ChangeLeave, Dead: id}})
	return err
}

// Replace excises a (typically dead) member and admits a fresh one in the
// same epoch transition — the crash-recovery verb. The replacement gets a new
// stable ID (identities are never reused) and receives the surviving
// members' model state exactly like a Join.
func (w *World) Replace(dead RankID, addr string) (*Node, error) {
	nodes, err := w.transition([]membership.Change{{Kind: membership.ChangeReplace, Dead: dead, Addr: addr}})
	if err != nil {
		return nil, err
	}
	return nodes[0], nil
}

// transition drives one epoch handoff end to end — propose, drain, build the
// next transport generation, hand the state over, commit (DESIGN.md,
// "Elastic membership & epochs") — holding transMu from the proposal to the
// commit or abort, so no two transitions ever overlap. Any failure, and Close
// racing the transition, takes the abort path instead: the half-built
// generation is retired, the outgoing epoch stays in force, and the drain
// barrier lifts. Either way every pool lease the transition minted is
// released before it returns.
func (w *World) transition(changes []membership.Change) ([]*Node, error) {
	w.transMu.Lock()
	defer w.transMu.Unlock()
	if w.isClosing() {
		return nil, ErrWorldClosed
	}

	w.mu.Lock()
	from, oldGen := w.view, w.gen
	oldNodes := append([]*Node(nil), w.nodes...)
	to, joined, err := membership.Next(from, w.nextID, changes)
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	isDown := w.downByID(oldGen, oldNodes)
	live := false
	survivors := make([]*Node, 0, len(oldNodes))
	for _, n := range oldNodes {
		if isDown(n.id) {
			continue
		}
		live = true
		if to.IndexOf(n.id) >= 0 {
			survivors = append(survivors, n)
		}
	}
	if !live {
		return nil, errNoLiveMember
	}
	// The joiners' IDs are spent from here on, even if the transition aborts.
	w.mu.Lock()
	w.nextID += RankID(len(joined))
	w.mu.Unlock()

	// Drain: flip every survivor's barrier, raise each matched group's
	// allowance to its furthest started round (drainBarrier), and wait for a
	// globally idle instant, where the allowances are revoked. Dead members
	// are skipped; their wedged steps unblock with errors when the old
	// generation retires.
	reducerSets := make([][]*elasticReducer, len(survivors))
	var allReducers []*elasticReducer
	groupMax := make(map[int]uint64)
	for i, n := range survivors {
		reducerSets[i] = n.snapshotReducers()
		allReducers = append(allReducers, reducerSets[i]...)
		for idx, r := range reducerSets[i] {
			r.event(func(b *drainBarrier) bool { groupMax[idx] = b.beginDrain(groupMax[idx]); return false })
		}
	}
	for _, rs := range reducerSets {
		for idx, r := range rs {
			r.event(func(b *drainBarrier) bool { return b.allow(groupMax[idx]) })
		}
	}
	for !quiesceReducers(allReducers) {
		for _, r := range allReducers {
			r.awaitIdle()
		}
	}
	undrain := func() { // transMu keeps Node.Reducer from adding to allReducers
		for _, r := range allReducers {
			r.event(func(b *drainBarrier) bool { b.undrain(); return true })
		}
	}
	if w.isClosing() {
		undrain()
		return nil, ErrWorldClosed
	}

	newGen, err := w.buildGeneration(to.Size(), carryCrashes(oldGen, from, to))
	if err != nil {
		undrain()
		return nil, err
	}
	// Members that were already down in the old epoch but remain in the view
	// (e.g. a Join while some rank is dead) stay down in the new one: carry
	// the verdict forward so nobody waits a fresh deadline on a known corpse.
	for _, m := range to.Members {
		if oldIdx := from.IndexOf(m.ID); oldIdx >= 0 && isDown(m.ID) {
			dense := to.IndexOf(m.ID)
			cause := w.downCause(oldGen, oldIdx)
			for _, c := range newGen.comms {
				c.MarkPeerDown(dense, cause)
			}
			if newGen.injector != nil {
				newGen.injector.Crash(dense)
			}
		}
	}
	abort := func() {
		newGen.closeComms()
		if newGen.injector != nil {
			newGen.injector.Close()
		}
		undrain()
	}

	// Hand over: the survivors are quiesced, so one snapshot serves every
	// joiner. Each joiner owns its copy; the provider may return live state.
	joiners := make(map[RankID]*Node, len(joined))
	var state []float64
	if len(joined) > 0 {
		state = firstState(survivors)
	}
	for _, id := range joined {
		joiners[id] = &Node{world: w, id: id, initState: append([]float64(nil), state...)}
	}
	if w.isClosing() {
		abort()
		return nil, ErrWorldClosed
	}

	// Commit: re-mint every survivor's reducers over the new generation (the
	// retired inners are closed now and joined with the old generation), swap
	// the node handles, install the epoch, lift the barrier, retire the old
	// world, and notify subscribers.
	var retired []engine
	for _, n := range survivors {
		dense := to.IndexOf(n.id)
		for _, r := range n.snapshotReducers() {
			retired = append(retired, r.remint(newGen.comms[dense]))
		}
	}
	for _, old := range retired {
		_ = old.Close() // a drained reducer's Close only fails on double close
	}

	w.mu.Lock()
	newNodes := make([]*Node, to.Size())
	for dense, m := range to.Members {
		n := joiners[m.ID]
		if oldIdx := from.IndexOf(m.ID); oldIdx >= 0 {
			n = oldNodes[oldIdx]
		}
		n.mu.Lock()
		n.comm, n.rank, n.epoch = newGen.comms[dense], dense, to.Epoch
		n.mu.Unlock()
		newNodes[dense] = n
	}
	w.nodes, w.gen, w.view = newNodes, newGen, to
	subs := append([]func(Epoch){}, w.subs...)
	w.mu.Unlock()

	// Departed members: their handles go dead, their reducers close, so a
	// trainer still holding them observes ErrReducerClosed / ErrNotMember.
	var departed []*elasticReducer
	for _, n := range oldNodes {
		if to.IndexOf(n.id) >= 0 {
			continue
		}
		n.mu.Lock()
		n.left = true
		departed = append(departed, n.reducers...)
		n.mu.Unlock()
	}
	for _, r := range departed {
		r.markClosed()
	}
	undrain()

	// Retire the outgoing generation: transports down, engines joined,
	// injector drained — zero outstanding leases from epoch N survive it.
	oldGen.closeComms()
	for _, old := range retired {
		old.joinEngine()
	}
	for _, r := range departed {
		r.joinEngine()
	}
	if oldGen.injector != nil {
		oldGen.injector.Close()
	}

	committed := epochOf(to)
	for _, fn := range subs {
		fn(committed)
	}
	out := make([]*Node, len(joined))
	for i, id := range joined {
		out[i] = joiners[id]
	}
	return out, nil
}

// firstState snapshots the model state joiners start from: the provider of
// the first survivor (outgoing rank order) that registered one, called once.
// It returns nil when no survivor serves state.
func firstState(survivors []*Node) []float64 {
	for _, n := range survivors {
		n.mu.Lock()
		provider := n.stateProvider
		n.mu.Unlock()
		if provider != nil {
			return provider()
		}
	}
	return nil
}

// carryCrashes moves the outgoing epoch's pending scripted crashes to the
// next epoch's dense slots. A script names a founding rank and counts that
// rank's own steps, so it follows the member to its new slot, less the steps
// the member already took; a crash that fired, or whose member leaves, is
// dropped, so each scripted crash fires at most once. A step a member counts
// on the outgoing injector after this read is lost, which can delay its
// crash by that step.
func carryCrashes(old *generation, from, to membership.View) map[int]int {
	if old.injector == nil {
		return nil
	}
	crashAt := map[int]int{}
	for oldIdx, m := range from.Members {
		steps, ok := old.injector.CrashIn(oldIdx)
		if dense := to.IndexOf(m.ID); ok && dense >= 0 {
			crashAt[dense] = steps
		}
	}
	return crashAt
}

// downByID builds the transition's health verdict over the outgoing epoch,
// keyed by stable ID: a member is down once any communicator's failure
// detector marked it, or the fault injector crashed it.
func (w *World) downByID(g *generation, nodes []*Node) func(RankID) bool {
	down := make(map[RankID]bool, len(nodes))
	for i, n := range nodes {
		if w.downCause(g, i) != nil {
			down[n.id] = true
		}
	}
	return func(id RankID) bool { return down[id] }
}

// downCause returns the first recorded cause for the dense-ranked member
// being down in the given generation, or nil while it is believed up.
func (w *World) downCause(g *generation, dense int) error {
	for _, c := range g.comms {
		if err := c.PeerError(dense); err != nil {
			return err
		}
	}
	if g.injector != nil && g.injector.Crashed(dense) {
		return faults.ErrCrashed
	}
	return nil
}

func (w *World) isClosing() bool {
	select {
	case <-w.closing:
		return true
	default:
		return false
	}
}

// snapshotReducers returns the node's reducers minted so far.
func (n *Node) snapshotReducers() []*elasticReducer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*elasticReducer(nil), n.reducers...)
}
