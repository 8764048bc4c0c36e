package collective

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
	// ErrTransitionActive is returned when a second membership change is
	// requested while one is still in flight.
	ErrTransitionActive = membership.ErrTransitionActive
	// ErrWorldClosed is returned by membership verbs once Close has begun.
	ErrWorldClosed = errors.New("collective: world is closed")
)

// stateTransferDeadline bounds each blocking receive of a joiner's state
// fetch when the world has no WithPeerDeadline configured.
const stateTransferDeadline = 5 * time.Second

// Membership returns the current committed epoch.
func (w *World) Membership() Epoch {
	view := w.tracker.View()
	return epochOf(view)
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
// the next epoch, in-flight steps drain at the epoch boundary, the model
// parameters are state-transferred to the joiner from the surviving members'
// state providers, and the returned Node is a full member of the new epoch —
// mint its reducers (same dim and options as everyone else) and start its
// training loop. addr is recorded as the member's announced address; for the
// in-process transports it is an opaque label.
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

// Reconfigure applies several membership changes in one epoch transition
// (e.g. growing a world by two ranks drains and rebuilds once, not twice).
// It returns the Nodes of the incoming members in change order.
func (w *World) Reconfigure(changes []membership.Change) ([]*Node, error) {
	return w.transition(changes)
}

// transition drives one epoch handoff end to end:
//
//	propose (coordinator elected from the PR 5 health view, re-elected if the
//	         health view says the coordinator itself is dead)
//	→ drain  (every live survivor finishes its in-flight steps and acks)
//	→ build  (next generation's transports; old epoch's tag blocks are
//	          registered as arrival-discard ranges on the new communicators)
//	→ transfer (joiners pull model state from surviving providers, resumable
//	            with failover if a source dies mid-transfer)
//	→ commit (nodes swap to the new generation, reducers re-mint over it,
//	          the old generation retires, subscribers are notified)
//
// Any failure — and Close racing the transition — takes the abort path
// instead: the half-built generation is retired, the outgoing epoch stays in
// force, and the drain barrier lifts so surviving trainers continue
// undisturbed. Either way the window is leak-free: every pool lease minted by
// the transition is released before it returns.
func (w *World) transition(changes []membership.Change) ([]*Node, error) {
	w.transMu.Lock()
	defer w.transMu.Unlock()
	if w.isClosing() {
		return nil, ErrWorldClosed
	}

	w.mu.Lock()
	oldGen := w.gen
	oldNodes := append([]*Node(nil), w.nodes...)
	w.mu.Unlock()

	isDown := w.downByID(oldGen, oldNodes)
	trans, err := w.tracker.Propose(changes, isDown)
	if err != nil {
		return nil, err
	}
	// Coordinator-death recovery: the proposer elected the lowest live ID,
	// but the health view may have aged between observation and proposal (or
	// a chaos scenario killed the coordinator in the window). Re-elect before
	// draining; a transition with no live member to coordinate cannot run.
	if isDown(trans.Coordinator()) {
		if _, ok := trans.Reelect(isDown); !ok {
			w.tracker.Abort(trans)
			return nil, membership.ErrNoCoordinator
		}
	}
	from, to := trans.From(), trans.To()

	// Drain: flip every survivor's barrier, wait for idle, ack per member.
	// Dead members are skipped (AllAcked ignores them); their wedged steps
	// unblock with errors when the old generation retires.
	//
	// The barrier admits catch-up rounds rather than parking members outright:
	// synchronous collectives are lockstep, so when the gate falls while one
	// member is mid-collective, its peers must run their matching round or the
	// drain deadlocks against the in-flight step. Reducers minted at the same
	// index across nodes form one matched group; each group's allowance is the
	// furthest round any member has started. The drain completes at a globally
	// idle instant (quiesceReducers), at which point unused allowances are
	// revoked — a member that stopped pumping below the target (its operations
	// errored on a dead peer) must not hold the epoch boundary open.
	trans.Advance(membership.PhaseDraining)
	survivors := make([]*Node, 0, len(oldNodes))
	for _, n := range oldNodes {
		if to.IndexOf(n.id) < 0 || isDown(n.id) {
			continue
		}
		survivors = append(survivors, n)
	}
	reducerSets := make([][]*elasticReducer, len(survivors))
	var allReducers []*elasticReducer
	groupTarget := make(map[int]uint64)
	for i, n := range survivors {
		reducerSets[i] = n.snapshotReducers()
		allReducers = append(allReducers, reducerSets[i]...)
		for idx, r := range reducerSets[i] {
			if started := r.beginDrain(); started > groupTarget[idx] {
				groupTarget[idx] = started
			}
		}
	}
	for _, rs := range reducerSets {
		for idx, r := range rs {
			r.allowRounds(groupTarget[idx])
		}
	}
	var drainWG sync.WaitGroup
	for i, n := range survivors {
		drainWG.Add(1)
		go func(n *Node, rs []*elasticReducer) {
			defer drainWG.Done()
			for _, r := range rs {
				r.awaitIdle()
			}
			trans.Ack(n.id)
		}(n, reducerSets[i])
	}
	drainWG.Wait()
	for !quiesceReducers(allReducers) {
		for _, r := range allReducers {
			r.awaitIdle()
		}
	}
	undrain := func() {
		for _, n := range survivors {
			for _, r := range n.snapshotReducers() {
				r.undrain()
			}
		}
	}
	if w.isClosing() {
		undrain()
		w.tracker.Abort(trans)
		return nil, ErrWorldClosed
	}

	// Build the next generation and blocklist the outgoing epoch's tag
	// blocks on its communicators: a straggler frame from epoch N is released
	// on arrival, never misdelivered into epoch N+1.
	newGen, err := w.buildGeneration(to.Epoch, to.Size())
	if err != nil {
		undrain()
		w.tracker.Abort(trans)
		return nil, err
	}
	for _, c := range newGen.comms {
		for _, tr := range membership.EpochTagRanges(from.Epoch) {
			c.DiscardTagsOnArrival(tr[0], tr[1])
		}
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
		w.tracker.Abort(trans)
	}

	// State transfer: joiners pull the model parameters over the incoming
	// generation from every surviving member that registered a provider,
	// failing over down the source list if one dies mid-transfer.
	joinerNodes, err := w.transferState(trans, from, to, newGen, survivors)
	if err != nil || w.isClosing() {
		abort()
		if w.isClosing() {
			// A transfer canceled by Close reports the close, not the fetch.
			return nil, ErrWorldClosed
		}
		return nil, err
	}

	// Commit: re-mint every survivor's reducers over the new generation (the
	// retired inners are closed now and joined with the old generation), swap
	// the node handles, install the epoch, lift the barrier, retire the old
	// world, and notify subscribers.
	var retired []Reducer
	for _, n := range survivors {
		dense := to.IndexOf(n.id)
		for _, r := range n.snapshotReducers() {
			old, err := r.remint(newGen.comms[dense], to.Epoch)
			if err != nil {
				// A remint failure is unrecoverable mid-swap only if some
				// reducers already moved; with per-reducer remint the failure
				// mode is config-invariant (same cfg that built the original),
				// so treat it as fatal to the transition but roll nothing back.
				abort()
				return nil, fmt.Errorf("collective: reminting reducer for epoch %d: %w", to.Epoch, err)
			}
			retired = append(retired, old)
		}
	}
	for _, old := range retired {
		if err := old.Close(); err != nil && !errors.Is(err, ErrReducerClosed) {
			// Close on a drained reducer only fails on double close; ignore.
			_ = err
		}
	}

	w.mu.Lock()
	newNodes := make([]*Node, to.Size())
	for dense, m := range to.Members {
		if oldIdx := from.IndexOf(m.ID); oldIdx >= 0 {
			n := oldNodes[oldIdx]
			n.mu.Lock()
			n.comm = newGen.comms[dense]
			n.rank = dense
			n.epoch = to.Epoch
			n.mu.Unlock()
			newNodes[dense] = n
		} else {
			n := joinerNodes[m.ID]
			n.mu.Lock()
			n.comm = newGen.comms[dense]
			n.rank = dense
			n.epoch = to.Epoch
			n.mu.Unlock()
			newNodes[dense] = n
		}
	}
	w.nodes = newNodes
	w.gen = newGen
	subs := append([]func(Epoch){}, w.subs...)
	w.mu.Unlock()

	// Departed members: their handles go dead, their reducers close, so a
	// trainer still holding them observes ErrReducerClosed / ErrNotMember.
	for _, n := range oldNodes {
		if to.IndexOf(n.id) >= 0 {
			continue
		}
		n.mu.Lock()
		n.left = true
		departed := append([]*elasticReducer(nil), n.reducers...)
		n.mu.Unlock()
		for _, r := range departed {
			r.markClosed()
		}
	}

	w.tracker.Commit(trans)
	undrain()

	// Retire the outgoing generation: transports down, engines joined,
	// injector drained — zero outstanding leases from epoch N survive it.
	oldGen.closeComms()
	for _, old := range retired {
		if j, ok := old.(engineJoiner); ok {
			j.joinEngine()
		}
	}
	for _, n := range oldNodes {
		if to.IndexOf(n.id) >= 0 {
			continue
		}
		n.mu.Lock()
		departed := append([]*elasticReducer(nil), n.reducers...)
		n.mu.Unlock()
		for _, r := range departed {
			r.joinEngine()
		}
	}
	if oldGen.injector != nil {
		oldGen.injector.Close()
	}

	committed := epochOf(w.tracker.View())
	for _, fn := range subs {
		fn(committed)
	}

	out := make([]*Node, 0, len(trans.Joined()))
	for _, id := range trans.Joined() {
		out = append(out, joinerNodes[id])
	}
	return out, nil
}

// transferState runs the state-transfer phase: every surviving member with a
// registered provider serves its post-drain parameter snapshot over the new
// generation, and each joiner pulls the state with failover. It returns the
// joiner Nodes (keyed by stable ID) with their fetched initial state. Worlds
// without providers skip the wire protocol entirely.
func (w *World) transferState(trans *membership.Transition, from, to membership.View, newGen *generation, survivors []*Node) (map[RankID]*Node, error) {
	joiners := make(map[RankID]*Node)
	for _, id := range trans.Joined() {
		joiners[id] = &Node{world: w, id: id}
	}
	if len(joiners) == 0 {
		return joiners, nil
	}

	type source struct {
		node  *Node
		dense int
		snap  []float64
	}
	var sources []source
	for _, n := range survivors {
		n.mu.Lock()
		provider := n.stateProvider
		n.mu.Unlock()
		if provider == nil {
			continue
		}
		sources = append(sources, source{node: n, dense: to.IndexOf(n.id), snap: provider()})
	}
	if len(sources) == 0 {
		return joiners, nil // nothing to transfer; joiners start from scratch
	}

	trans.Advance(membership.PhaseTransferring)
	deadline := w.cfg.peerDeadline
	if deadline <= 0 {
		deadline = stateTransferDeadline
	}

	stopServe := make(chan struct{})
	var serveWG sync.WaitGroup
	for _, s := range sources {
		serveWG.Add(1)
		go func(s source) {
			defer serveWG.Done()
			membership.ServeState(newGen.comms[s.dense], s.snap, 0, stopServe)
		}(s)
	}
	srcRanks := make([]int, len(sources))
	for i, s := range sources {
		srcRanks[i] = s.dense
	}

	var fetchWG sync.WaitGroup
	fetchErrs := make(map[RankID]error, len(joiners))
	var fetchMu sync.Mutex
	for _, id := range trans.Joined() {
		fetchWG.Add(1)
		go func(id RankID) {
			defer fetchWG.Done()
			dense := to.IndexOf(id)
			state, err := membership.FetchState(newGen.comms[dense], srcRanks, deadline, w.closing)
			fetchMu.Lock()
			defer fetchMu.Unlock()
			if err != nil {
				fetchErrs[id] = err
				return
			}
			n := joiners[id]
			n.mu.Lock()
			n.initState = state
			n.mu.Unlock()
		}(id)
	}
	fetchWG.Wait()
	close(stopServe)
	serveWG.Wait()
	// Transfer-tag hygiene: the window is over, so any straggler transfer
	// frame on this generation (a suspected-slow source's late chunks) is
	// released on arrival from here on.
	for _, c := range newGen.comms {
		c.DiscardTagsOnArrival(membership.TransferTagBase, membership.TransferTagBase+3)
	}
	for _, err := range fetchErrs {
		return nil, fmt.Errorf("collective: state transfer to joiner: %w", err)
	}
	return joiners, nil
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
