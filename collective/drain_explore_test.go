package collective

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The drain explorer drives the elastic barrier of every reducer of a small
// world through every order of its events — trainers admitting, parking and
// finishing lockstep operations (plain, or nested in a TrainStepper
// bracket), epoch transitions with their drain, quiescence, remint and
// undrain, one World.Close and one member's death at any point — by
// depth-first search over hashed states. It calls drainBarrier as
// elasticReducer, World.transition and World.Close do, one critical section
// per event, and models the rest: lockstep rounds on the wire, the transport
// generations, the engines' lifecycle. A violated invariant fails the test
// with the event trace that reached it, which -explore.replay runs again.
//
// The model: every member's trainer runs a script of ops operations per
// reducer. A lockstep operation finishes when every other member of its
// epoch has started the matching one on the same engine generation, and
// fails once its generation's transport closed or, with a dead member in the
// epoch, whenever the peer deadline fires. A transition is a Join: it drains
// the live members, remints their reducers and admits the joiner, whose
// trainer resumes at the survivors' step. The dead member keeps no trainer
// going past its current step.

var (
	drainFull   = flag.Bool("explore.full", false, "explore the drain barrier at its full bound")
	drainReplay = flag.String("explore.replay", "", "replay one trace printed by TestDrainExplore")
)

// drainScope is one explored world: members founding members with reducers
// reducers each, whose trainers run ops operations apiece (reducer 0's
// inside TrainStepper brackets when bracket is set), up to transitions
// Joins, and optionally one World.Close and one member's death.
type drainScope struct {
	members, reducers, ops, transitions int
	bracket, close, crash               bool
}

const drainScopeFormat = "members=%d reducers=%d ops=%d transitions=%d bracket=%t close=%t crash=%t"

func (s drainScope) String() string {
	return fmt.Sprintf(drainScopeFormat, s.members, s.reducers, s.ops, s.transitions, s.bracket, s.close, s.crash)
}

// drainScopes lists the explored worlds: the full bound, or the small one
// every go test runs.
func drainScopes(full bool) []drainScope {
	if !full {
		return []drainScope{
			{members: 2, reducers: 1, ops: 2, transitions: 1, close: true},
			{members: 2, reducers: 1, ops: 2, transitions: 1, bracket: true, close: true},
			{members: 2, reducers: 1, ops: 2, transitions: 1, crash: true},
			{members: 2, reducers: 1, ops: 2, transitions: 2},
			{members: 3, reducers: 1, ops: 1, transitions: 1, close: true, crash: true},
		}
	}
	// The full bound: two members over two Joins with every combination of
	// brackets, Close and a death but all three together, then wider worlds,
	// each kept near a million states or below.
	var out []drainScope
	for _, f := range [][3]bool{{}, {true}, {false, true}, {false, false, true}, {true, true}, {true, false, true}, {false, true, true}} {
		out = append(out, drainScope{members: 2, reducers: 1, ops: 2, transitions: 2, bracket: f[0], close: f[1], crash: f[2]})
	}
	return append(out,
		drainScope{members: 2, reducers: 1, ops: 3, transitions: 1, bracket: true, close: true, crash: true},
		drainScope{members: 3, reducers: 1, ops: 2, transitions: 1, bracket: true, close: true},
		drainScope{members: 3, reducers: 1, ops: 2, transitions: 1, bracket: true, crash: true},
		drainScope{members: 3, reducers: 1, ops: 2, transitions: 1, close: true, crash: true},
		drainScope{members: 3, reducers: 1, ops: 1, transitions: 1, bracket: true, close: true, crash: true},
		drainScope{members: 2, reducers: 2, ops: 1, transitions: 1, bracket: true, close: true},
		drainScope{members: 2, reducers: 2, ops: 1, transitions: 1, bracket: true, crash: true},
		drainScope{members: 3, reducers: 2, ops: 1, transitions: 1, bracket: true},
		drainScope{members: 3, reducers: 2, ops: 1, transitions: 1, close: true},
		drainScope{members: 3, reducers: 2, ops: 1, transitions: 1, crash: true},
	)
}

const maxMembers, maxReducers, maxEpochs = 5, 2, 3

// Trainer phases, one per reducer of a member.
const (
	tReady   = iota // next: admit its next operation, once its script has one
	tParked         // parked at the gate until the reducer broadcasts
	tBracket        // a bracket is open; next: admit the operation nested in it
	tOp             // a plain operation is on the wire
	tNested         // the bracket's operation is on the wire
	tEnding         // the nested operation finished; next: end the bracket
	tStopped        // the gate returned ErrReducerClosed
)

// slot is one reducer of one member and the trainer driving it.
type slot struct {
	b            drainBarrier
	phase        int8
	step         int8 // script operations done
	epoch        int8 // the epoch of the reducer's engine
	issued       int8 // lockstep operations started on that engine
	op, opEpoch  int8 // the operation on the wire: its index and its engine's epoch
	engineClosed bool // the reducer's current engine is closed
	failed       bool // an operation on the current engine failed
	quiesced     bool // the drain quiesced this reducer and has not undrained it
}

// Transition phases: World.transition's steps, one critical section each.
const (
	xIdle    = iota // no transition holds transMu
	xDrain          // beginDrain on each survivor reducer in turn
	xAllow          // allow on each in turn
	xQuiesce        // waiting for an idle instant: quiesceReducers
	xCheck          // the isClosing checks: abort, or build and hand over
	xRemint         // remint each survivor reducer in turn
	xCommit         // install the epoch and admit the joiner
	xUndrain        // undrain each in turn, then retire the old generation
	xAbort          // undrain each in turn; the old generation stays
)

// Close phases: World.Close's steps.
const (
	cOpen  = iota // not called
	cMark         // markClosed on each reducer of its snapshot in turn
	cComms        // close the current generation's transports
	cJoin         // wait out the transition, close the final generation, join the engines
	cDone
)

// dworld is the explored state.
type dworld struct {
	m       [maxMembers][maxReducers]slot
	n       int8             // members so far, founders and joiners
	views   [maxEpochs]uint8 // each epoch's members, one bit each
	epoch   int8             // the committed epoch
	dead    int8             // -1 none
	retired uint8            // epochs whose transport generation is closed

	begun     int8 // transitions begun
	tphase    int8
	tcur      int8  // the transition's cursor over its survivors' reducers
	survivors uint8 // members the transition drains
	groupMax  [maxReducers]uint64

	closing  bool
	cphase   int8
	ccur     int8
	snapshot uint8 // members whose reducers Close closes and joins
}

func newDrainWorld(s drainScope) dworld {
	w := dworld{n: int8(s.members), dead: -1}
	w.views[0] = 1<<s.members - 1
	return w
}

// drainEvent is one step of the world: kind 'a' (q's trainer on reducer i
// admits its next operation), 'n' (it admits the operation nested in its
// bracket), 'f' (its operation finishes), 'e' (its operation fails), 'b'
// (it ends its bracket), 't' (the transition's next step, or a new
// transition), 'c' (World.Close's next step) or 'x' (q dies).
type drainEvent struct {
	kind byte
	q, i int8
}

func (e drainEvent) String() string {
	switch e.kind {
	case 't', 'c':
		return string(e.kind)
	case 'x':
		return fmt.Sprintf("x%d", e.q)
	}
	return fmt.Sprintf("%c%d.%d", e.kind, e.q, e.i)
}

func parseDrainEvent(tok string) (drainEvent, error) {
	e := drainEvent{kind: tok[0]}
	var err error
	switch e.kind {
	case 't', 'c':
		if len(tok) != 1 {
			err = fmt.Errorf("trailing %q", tok[1:])
		}
	case 'x':
		var q int
		q, err = strconv.Atoi(tok[1:])
		e.q = int8(q)
	default:
		var q, i int
		_, err = fmt.Sscanf(tok[1:], "%d.%d", &q, &i)
		e.q, e.i = int8(q), int8(i)
	}
	return e, err
}

// nth is the cur-th reducer of the members in set, in member order.
func (w *dworld) nth(s drainScope, set uint8, cur int) (q, i int) {
	for q := 0; q < int(w.n); q++ {
		if set&(1<<q) != 0 {
			if cur < s.reducers {
				return q, cur
			}
			cur -= s.reducers
		}
	}
	panic("explore: reducer cursor out of range")
}

// matched reports whether the operation on the wire at q's reducer i has
// every other member of its epoch at its round: they started the matching
// operation on the same engine generation.
func (w *dworld) matched(q, i int) bool {
	sl := &w.m[q][i]
	for p := 0; p < int(w.n); p++ {
		if p == q || w.views[sl.opEpoch]&(1<<p) == 0 {
			continue
		}
		if o := &w.m[p][i]; o.epoch != sl.opEpoch || o.issued <= sl.op {
			return false
		}
	}
	return true
}

// canFail reports whether the operation on the wire at q's reducer i may
// fail: its generation's transport is closed, or its epoch holds the dead
// member and the peer deadline may fire.
func (w *dworld) canFail(q, i int) bool {
	e := w.m[q][i].opEpoch
	return w.retired&(1<<e) != 0 || (w.dead >= 0 && w.views[e]&(1<<w.dead) != 0)
}

// events lists the steps enabled in w.
func (w *dworld) events(s drainScope) []drainEvent {
	var out []drainEvent
	for q := 0; q < int(w.n); q++ {
		for i := 0; i < s.reducers; i++ {
			sl := &w.m[q][i]
			ev := func(kind byte) { out = append(out, drainEvent{kind: kind, q: int8(q), i: int8(i)}) }
			switch sl.phase {
			case tReady:
				if int(sl.step) < s.ops && int(w.dead) != q {
					ev('a')
				}
			case tBracket:
				ev('n')
			case tOp, tNested:
				if w.matched(q, i) {
					ev('f')
				}
				if w.canFail(q, i) {
					ev('e')
				}
			case tEnding:
				ev('b')
			}
		}
	}
	if w.tphase != xIdle || int(w.begun) < s.transitions {
		if w.tphase != xQuiesce || w.allIdle(s) {
			out = append(out, drainEvent{kind: 't'})
		}
	}
	if s.close && w.cphase != cDone && (w.cphase != cJoin || w.tphase == xIdle) {
		out = append(out, drainEvent{kind: 'c'})
	}
	if s.crash && w.dead < 0 {
		for q := 0; q < int(w.n); q++ {
			if w.views[w.epoch]&(1<<q) != 0 {
				out = append(out, drainEvent{kind: 'x', q: int8(q)})
			}
		}
	}
	return out
}

// allIdle is quiesceReducers' check across the transition's reducers.
func (w *dworld) allIdle(s drainScope) bool {
	for cur := 0; cur < bits.OnesCount8(w.survivors)*s.reducers; cur++ {
		if q, i := w.nth(s, w.survivors, cur); !w.m[q][i].b.idle() {
			return false
		}
	}
	return true
}

// broadcast is the reducer's cond broadcast: a parked trainer wakes and asks
// the gate again.
func (w *dworld) broadcast(q, i int) {
	if sl := &w.m[q][i]; sl.phase == tParked {
		sl.phase = tReady
	}
}

// start puts an admitted lockstep operation on the wire, on the engine the
// reducer holds.
func (w *dworld) start(q, i int, phase int8) error {
	sl := &w.m[q][i]
	if sl.quiesced {
		return fmt.Errorf("member %d reducer %d admitted an operation between quiescence and undrain", q, i)
	}
	sl.op, sl.opEpoch, sl.phase = sl.issued, sl.epoch, phase
	sl.issued++
	return nil
}

func (w *dworld) apply(s drainScope, e drainEvent) error {
	q, i := int(e.q), int(e.i)
	switch e.kind {
	case 'a':
		sl := &w.m[q][i]
		bracket := s.bracket && i == 0
		park, err := sl.b.admit(bracket)
		switch {
		case err != nil:
			sl.phase = tStopped
		case park:
			sl.phase = tParked
		case bracket:
			if sl.quiesced {
				return fmt.Errorf("member %d reducer %d admitted a bracket between quiescence and undrain", q, i)
			}
			sl.phase = tBracket
		default:
			return w.start(q, i, tOp)
		}
	case 'n':
		sl := &w.m[q][i]
		park, err := sl.b.admit(false)
		switch {
		case err != nil:
			sl.phase = tEnding // the nested call fails; the trainer ends its bracket
		case park:
			return fmt.Errorf("member %d reducer %d parked the operation nested in its open bracket: the drain waits for the bracket, the bracket for the drain", q, i)
		default:
			return w.start(q, i, tNested)
		}
	case 'f', 'e':
		sl := &w.m[q][i]
		sl.failed = sl.failed || (e.kind == 'e' && sl.opEpoch == sl.epoch)
		sl.b.finish(false)
		w.broadcast(q, i)
		if sl.phase == tNested {
			sl.phase = tEnding
		} else {
			sl.phase, sl.step = tReady, sl.step+1
		}
	case 'b':
		sl := &w.m[q][i]
		sl.b.finish(true)
		w.broadcast(q, i)
		sl.phase, sl.step = tReady, sl.step+1
	case 't':
		return w.transition(s)
	case 'c':
		return w.close(s)
	case 'x':
		w.dead = e.q
	}
	return nil
}

// transition runs World.transition's next step.
func (w *dworld) transition(s drainScope) error {
	n := bits.OnesCount8(w.survivors) * s.reducers
	var q, i int
	if w.tphase >= xDrain && w.tphase != xCheck && w.tphase != xCommit && w.tphase != xQuiesce {
		q, i = w.nth(s, w.survivors, int(w.tcur))
	}
	advance := func(next int8) {
		if w.tcur++; int(w.tcur) == n {
			w.tphase, w.tcur = next, 0
		}
	}
	switch w.tphase {
	case xIdle:
		w.begun++
		if w.closing {
			return nil // ErrWorldClosed
		}
		w.survivors = w.views[w.epoch]
		if w.dead >= 0 {
			w.survivors &^= 1 << w.dead
		}
		if w.survivors == 0 {
			return nil // errNoLiveMember
		}
		w.tphase, w.tcur, w.groupMax = xDrain, 0, [maxReducers]uint64{}
	case xDrain:
		w.groupMax[i] = w.m[q][i].b.beginDrain(w.groupMax[i])
		advance(xAllow)
	case xAllow:
		if w.m[q][i].b.allow(w.groupMax[i]) {
			w.broadcast(q, i)
		}
		advance(xQuiesce)
	case xQuiesce:
		if err := w.quiesce(s); err != nil {
			return err
		}
		w.tphase = xCheck
	case xCheck:
		w.tphase = xRemint
		if w.closing {
			w.tphase = xAbort
		}
	case xRemint:
		sl := &w.m[q][i]
		if !sl.b.idle() {
			return fmt.Errorf("member %d reducer %d reminted with an operation in flight", q, i)
		}
		sl.engineClosed = sl.b.remint()
		if sl.b.rounds != 0 || sl.b.target != 0 {
			return fmt.Errorf("member %d reducer %d's round counters did not restart at remint: rounds %d, allowance %d", q, i, sl.b.rounds, sl.b.target)
		}
		sl.epoch, sl.issued, sl.failed = w.epoch+1, 0, false
		advance(xCommit)
	case xCommit:
		if int(w.n) == maxMembers || int(w.epoch)+1 == maxEpochs {
			panic("explore: world bound exceeded")
		}
		j := w.n
		fq, _ := w.nth(s, w.survivors, 0)
		for i := 0; i < s.reducers; i++ {
			w.m[j][i] = slot{epoch: w.epoch + 1, step: w.m[fq][i].step}
		}
		w.n++
		w.epoch++
		w.views[w.epoch] = w.views[w.epoch-1] | 1<<j
		w.tphase = xUndrain
	case xUndrain, xAbort:
		sl := &w.m[q][i]
		sl.b.undrain()
		sl.quiesced = false
		w.broadcast(q, i)
		if w.tcur++; int(w.tcur) == n {
			if w.tphase == xUndrain {
				w.retired |= 1 << (w.epoch - 1)
			}
			w.tphase, w.tcur, w.survivors = xIdle, 0, 0
		}
	}
	return nil
}

// quiesce completes the drain at an idle instant (quiesceReducers) and
// checks that no admitted lockstep operation lacks a live peer's matching
// round: nothing is on the wire, and live members that saw no failure
// started the same operations.
func (w *dworld) quiesce(s drainScope) error {
	for cur := 0; cur < bits.OnesCount8(w.survivors)*s.reducers; cur++ {
		q, i := w.nth(s, w.survivors, cur)
		sl := &w.m[q][i]
		if sl.phase != tReady && sl.phase != tParked && sl.phase != tStopped {
			return fmt.Errorf("member %d reducer %d has an operation in flight at quiescence", q, i)
		}
		sl.b.revoke()
		sl.quiesced = true
	}
	for i := 0; i < s.reducers; i++ {
		for q := 0; q < int(w.n); q++ {
			for p := q + 1; p < int(w.n); p++ {
				a, b := &w.m[q][i], &w.m[p][i]
				if w.survivors&(1<<q) == 0 || w.survivors&(1<<p) == 0 || int(w.dead) == q || int(w.dead) == p || a.failed || b.failed {
					continue
				}
				if a.issued != b.issued {
					return fmt.Errorf("reducer %d at quiescence: member %d started %d operations, member %d %d — an admitted operation lacks its peer's round", i, q, a.issued, p, b.issued)
				}
			}
		}
	}
	return nil
}

// close runs World.Close's next step.
func (w *dworld) close(s drainScope) error {
	switch w.cphase {
	case cOpen:
		w.closing = true
		w.snapshot = w.views[w.epoch]
		w.cphase, w.ccur = cMark, 0
	case cMark:
		q, i := w.nth(s, w.snapshot, int(w.ccur))
		if sl := &w.m[q][i]; sl.b.close() {
			sl.engineClosed = true
			w.broadcast(q, i)
		}
		if w.ccur++; int(w.ccur) == bits.OnesCount8(w.snapshot)*s.reducers {
			w.cphase = cComms
		}
	case cComms:
		w.retired |= 1 << w.epoch
		w.cphase = cJoin
	case cJoin:
		w.retired |= 1 << w.epoch
		for cur := 0; cur < bits.OnesCount8(w.snapshot)*s.reducers; cur++ {
			if q, i := w.nth(s, w.snapshot, cur); !w.m[q][i].engineClosed {
				return fmt.Errorf("World.Close joins member %d reducer %d's engine, which nobody closed: Close hangs", q, i)
			}
		}
		w.cphase = cDone
	}
	return nil
}

var transitionPhases = [...]string{"idle", "drain", "allow", "quiesce", "check", "remint", "commit", "undrain", "abort"}

var trainerPhases = [...]string{"ready", "parked", "in a bracket", "on the wire", "on the wire in a bracket", "ending a bracket", "stopped"}

// progress reports whether evs hold a step other than a fault: a death, or
// the call of World.Close. A world that cannot progress without one must be
// finished, since neither ever has to come.
func (w *dworld) progress(evs []drainEvent) bool {
	for _, e := range evs {
		if e.kind != 'x' && (e.kind != 'c' || w.cphase != cOpen) {
			return true
		}
	}
	return false
}

// finished checks a world that cannot progress on its own: no transition or Close is
// stuck, and every live member's trainer ran its script or was stopped by a
// closed reducer.
func (w *dworld) finished(s drainScope) error {
	if w.tphase != xIdle {
		return fmt.Errorf("stuck: the transition never completes or aborts (at %s)", transitionPhases[w.tphase])
	}
	for q := 0; q < int(w.n); q++ {
		if int(w.dead) == q {
			continue
		}
		for i := 0; i < s.reducers; i++ {
			if sl := &w.m[q][i]; sl.phase != tStopped && (sl.phase != tReady || int(sl.step) < s.ops) {
				return fmt.Errorf("stuck: member %d reducer %d is %s after %d of %d operations", q, i, trainerPhases[sl.phase], sl.step, s.ops)
			}
		}
	}
	return nil
}

// key hashes the state.
func (w *dworld) key(s drainScope, buf []byte) uint64 {
	buf = buf[:0]
	b2 := func(bs ...bool) byte {
		var out byte
		for k, b := range bs {
			if b {
				out |= 1 << k
			}
		}
		return out
	}
	for q := 0; q < int(w.n); q++ {
		for i := 0; i < s.reducers; i++ {
			sl := &w.m[q][i]
			buf = append(buf, byte(sl.b.active), byte(sl.b.rounds), byte(sl.b.brackets), byte(sl.b.target),
				b2(sl.b.stepOpen, sl.b.draining, sl.b.closed, sl.engineClosed, sl.failed, sl.quiesced),
				byte(sl.phase), byte(sl.step), byte(sl.epoch), byte(sl.issued), byte(sl.op), byte(sl.opEpoch))
		}
	}
	buf = append(buf, byte(w.n), byte(w.epoch), byte(w.dead), w.retired, byte(w.begun), byte(w.tphase), byte(w.tcur),
		w.survivors, b2(w.closing), byte(w.cphase), byte(w.ccur), w.snapshot)
	for _, v := range w.views {
		buf = append(buf, v)
	}
	for _, g := range w.groupMax {
		buf = append(buf, byte(g))
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// drainExplorer is the depth-first search of one scope.
type drainExplorer struct {
	s      drainScope
	seen   map[uint64]struct{}
	trace  []drainEvent
	buf    []byte
	states int
	err    error
}

func exploreDrain(s drainScope) (states int, err error) {
	x := &drainExplorer{s: s, seen: map[uint64]struct{}{}, buf: make([]byte, 0, 256)}
	w := newDrainWorld(s)
	x.visit(&w)
	return x.states, x.err
}

func (x *drainExplorer) visit(w *dworld) {
	h := w.key(x.s, x.buf)
	if _, ok := x.seen[h]; ok {
		return
	}
	x.seen[h] = struct{}{}
	x.states++
	evs := w.events(x.s)
	if !w.progress(evs) {
		if err := w.finished(x.s); err != nil {
			x.fail(err)
			return
		}
	}
	for _, e := range evs {
		next := *w
		x.trace = append(x.trace, e)
		if err := next.apply(x.s, e); err != nil {
			x.fail(err)
			return
		}
		x.visit(&next)
		x.trace = x.trace[:len(x.trace)-1]
		if x.err != nil {
			return
		}
	}
}

func (x *drainExplorer) fail(err error) {
	toks := make([]string, len(x.trace))
	for i, e := range x.trace {
		toks[i] = e.String()
	}
	x.err = fmt.Errorf("%w\nreplay: go test ./collective -run TestDrainExploreReplay -explore.replay='%v: %s'", err, x.s, strings.Join(toks, " "))
}

// replayDrain runs one printed trace ("<scope>: <events>") and returns the
// invariant it breaks.
func replayDrain(line string) error {
	head, tail, ok := strings.Cut(line, ":")
	if !ok {
		return fmt.Errorf("replay %q: want \"<scope>: <events>\"", line)
	}
	var s drainScope
	if _, err := fmt.Sscanf(head, drainScopeFormat, &s.members, &s.reducers, &s.ops, &s.transitions, &s.bracket, &s.close, &s.crash); err != nil {
		return fmt.Errorf("replay scope %q: %v", head, err)
	}
	w := newDrainWorld(s)
	for k, tok := range strings.Fields(tail) {
		e, err := parseDrainEvent(tok)
		if err != nil {
			return fmt.Errorf("replay event %d %q: %v", k, tok, err)
		}
		enabled := false
		for _, en := range w.events(s) {
			enabled = enabled || en == e
		}
		if !enabled {
			return fmt.Errorf("replay event %d %q: not enabled", k, tok)
		}
		if err := w.apply(s, e); err != nil {
			return fmt.Errorf("after event %d %q: %w", k, tok, err)
		}
	}
	if !w.progress(w.events(s)) {
		return w.finished(s)
	}
	return nil
}

// TestDrainExplore runs the explorer over every scope: the small bound by
// default, the full one with -explore.full.
func TestDrainExplore(t *testing.T) {
	total := 0
	for _, s := range drainScopes(*drainFull) {
		states, err := exploreDrain(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		total += states
		t.Logf("%v: %d states", s, states)
	}
	t.Logf("%d states", total)
}

// TestDrainExploreReplay runs the trace given with -explore.replay and
// fails with the invariant it breaks.
func TestDrainExploreReplay(t *testing.T) {
	if *drainReplay == "" {
		t.Skip("no -explore.replay trace given")
	}
	if err := replayDrain(*drainReplay); err != nil {
		t.Fatal(err)
	}
}

// drainMutations are rule errors the explorer must catch, each as text edits
// of barrier.go.
var drainMutations = []struct {
	name  string
	edits []string // old, new, old, new, ...
}{
	{"allowance not raised to the group maximum", []string{"\tb.target = groupMax\n", ""}},
	{"drain counts only finished rounds", []string{"return max(groupMax, b.rounds+uint64(b.active))", "return max(groupMax, b.rounds)"}},
	{"operation admitted after quiescence", []string{"func (b *drainBarrier) revoke() { b.target = b.rounds }", "func (b *drainBarrier) revoke() {}"}},
	{"round counters kept at remint", []string{"b.rounds, b.target = 0, 0", "b.target = 0"}},
	{"quiescence ignores a plain operation", []string{"func (b *drainBarrier) idle() bool { return b.active == 0 }", "func (b *drainBarrier) idle() bool { return b.active == b.active-b.brackets }"}},
	{"bracket does not exempt its nested operation", []string{"b.rounds >= b.target && b.brackets == 0", "b.rounds >= b.target"}},
	{"remint forgets a close", []string{"return b.closed\n}", "return false\n}"}},
}

// TestDrainExploreCatchesMutations builds the package's tests once per
// mutation, with the mutated barrier.go laid over the real one (go build
// -overlay; the tree is not touched), and requires TestDrainExplore to fail
// at its small bound and TestDrainExploreReplay to fail the same way on the
// trace it printed. It compiles a test binary per mutation, so it runs only
// with -explore.full.
func TestDrainExploreCatchesMutations(t *testing.T) {
	if !*drainFull {
		t.Skip("builds a test binary per mutation; run with -explore.full")
	}
	src, err := os.ReadFile("barrier.go")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := filepath.Abs("barrier.go")
	if err != nil {
		t.Fatal(err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the mutants with")
	}
	for _, mu := range drainMutations {
		t.Run(mu.name, func(t *testing.T) {
			dir := t.TempDir()
			mutated := src
			for i := 0; i < len(mu.edits); i += 2 {
				if !bytes.Contains(mutated, []byte(mu.edits[i])) {
					t.Fatalf("barrier.go no longer contains %q; update the mutation", mu.edits[i])
				}
				mutated = bytes.Replace(mutated, []byte(mu.edits[i]), []byte(mu.edits[i+1]), 1)
			}
			file := filepath.Join(dir, "barrier.go")
			overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {orig: file}})
			ovFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(file, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ovFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			bin := filepath.Join(dir, "collective.test")
			if out, err := exec.Command(goTool, "test", "-c", "-overlay", ovFile, "-o", bin, ".").CombinedOutput(); err != nil {
				t.Fatalf("building the mutant: %v\n%s", err, out)
			}
			out, err := exec.Command(bin, "-test.run", "^TestDrainExplore$").CombinedOutput()
			if err == nil {
				t.Fatalf("the explorer missed the mutation:\n%s", out)
			}
			const mark = "-explore.replay='"
			i := bytes.Index(out, []byte(mark))
			if i < 0 {
				t.Fatalf("the explorer failed without a trace:\n%s", out)
			}
			trace, _, _ := strings.Cut(string(out[i+len(mark):]), "'")
			line := out[:bytes.LastIndexByte(out[:i], '\n')]
			line = line[bytes.LastIndexByte(line, '\n')+1:]
			_, violation, _ := strings.Cut(string(line[bytes.Index(line, []byte(" crash=")):]), ": ")
			replayed, err := exec.Command(bin, "-test.run", "^TestDrainExploreReplay$", "-explore.replay="+trace).CombinedOutput()
			if err == nil || !bytes.Contains(replayed, []byte(violation)) {
				t.Fatalf("replaying %q did not fail with %q:\n%s", trace, violation, replayed)
			}
			t.Logf("caught: %s\n%s", violation, trace)
		})
	}
}
