package partial

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The explorer drives the activation machine of every rank of a small world
// through every order of its events — application arrivals, engine steps,
// activation deliveries, the data phase, one rank's death, the survivors
// learning of it and their deadlines firing — by depth-first search over
// hashed states, one world stepping every one of its entities. Deliveries to
// one rank are bounded by how often they leave send order: each message
// delivered ahead of an older one to the same rank spends one delay of the
// scope's budget, as in delay-bounded scheduling (Emmi, Qadeer and Rakamarić,
// POPL 2011; CHESS, Musuvathi et al., OSDI 2008); every other order is free.
// A violated invariant fails the test with the event trace that reached it,
// which -explore.replay runs again.

var (
	exploreFull   = flag.Bool("explore.full", false, "explore the activation protocol at its full bound")
	exploreReplay = flag.String("explore.replay", "", "replay one trace printed by TestExplore")
)

// scope is one explored world: p ranks running rounds rounds with k
// candidates per round (k = 1 Majority, k ≥ p Solo, else Quorum), with or
// without a peer deadline, with or without one rank's death, delays FIFO
// deviations per path, and the initiator seed.
type scope struct {
	p, rounds, k    int
	deadline, crash bool
	delays          int
	seed            int64
}

const scopeFormat = "p=%d rounds=%d k=%d deadline=%t crash=%t delays=%d seed=%d"

func (s scope) String() string {
	return fmt.Sprintf(scopeFormat, s.p, s.rounds, s.k, s.deadline, s.crash, s.delays, s.seed)
}

func (s scope) options() Options {
	o := Options{Mode: Quorum, Candidates: s.k, Seed: s.seed}
	switch {
	case s.k >= s.p:
		o.Mode = Solo
	case s.k == 1:
		o.Mode = Majority
	}
	if s.deadline {
		o.PeerDeadline = 1
	}
	return o
}

// scopes lists the explored worlds: the full bound, or the small one every
// go test runs.
func scopes(full bool) []scope {
	ps, rounds, delays, seeds := []int{2, 3}, 2, 1, []int64{1}
	if full {
		ps, rounds, delays, seeds = []int{2, 3, 4}, 3, 2, []int64{1, 2}
	}
	var out []scope
	for _, p := range ps {
		for _, k := range []int{1, 2, p} {
			if k == 2 && p <= 2 {
				continue // quorum(2) of two ranks is Solo
			}
			kSeeds := seeds
			if k >= p {
				kSeeds = seeds[:1] // Solo draws no initiators
			}
			for _, seed := range kSeeds {
				out = append(out, scope{p: p, rounds: rounds, k: k, delays: delays, seed: seed})
				if k < p { // with every rank a candidate, a deadline acts only on a death
					out = append(out, scope{p: p, rounds: rounds, k: k, deadline: true, delays: delays, seed: seed})
				}
				out = append(out, scope{p: p, rounds: rounds, k: k, deadline: true, crash: true, delays: delays, seed: seed})
			}
		}
	}
	return out
}

const maxRanks, maxMsgs = 4, 32

// Engine phases of one rank, as the engine loop runs them.
const (
	idle    = iota // round eng completed or not begun: arm it next
	waiting        // armed on round eng, not yet activated
	flooded        // activated round eng and flooded it: snapshot next
	reduced        // snapshotted round eng: in its data phase
)

// rankState is one rank of the explored world: its machine, plus what the
// explorer itself records to check the machine against.
type rankState struct {
	m      Activation
	app    int8  // rounds the application has arrived at
	eng    int8  // the engine's round
	phase  int8  // idle, waiting, flooded or reduced
	signal bool  // the engine was woken while waiting
	flag   bool  // the machine's fresh flag in round eng's snapshot
	fresh  bool  // whether the application had arrived at round eng at the snapshot
	timer  int8  // highest round whose deadline fired here (-1 none)
	down   uint8 // peers marked down here, one bit per rank
	heard  int8  // highest stamp received here (-1 none)
}

type message struct{ from, to, stamp int8 }

// world is the explored state: every rank, the stamps in flight (grouped by
// destination, in send order per destination), and the dead rank.
type world struct {
	r    [maxRanks]rankState
	msgs [maxMsgs]message
	n    int8
	dead int8 // -1 none
}

func newExploreWorld(s scope) world {
	w := world{dead: -1}
	for q := 0; q < s.p; q++ {
		w.r[q] = rankState{m: NewActivation(q, s.p, s.options()), timer: -1, heard: -1}
	}
	return w
}

// event is one step of the world: kind 'a' (q's application arrives at its
// next round), 'e' (q's engine steps), 'd' (the oldest stamp from q to p is
// delivered), 'c' (the data phase completes on every live rank), 'x' (q
// dies), 'p' (q marks the dead rank down) or 't' (q's deadline fires).
type event struct {
	kind  byte
	q, p  int8
	delay int8 // FIFO deviations a delivery spends
}

func (e event) String() string {
	switch e.kind {
	case 'c':
		return "c"
	case 'd':
		return fmt.Sprintf("d%d>%d", e.q, e.p)
	}
	return fmt.Sprintf("%c%d", e.kind, e.q)
}

func parseEvent(tok string) (event, error) {
	e := event{kind: tok[0]}
	var err error
	switch {
	case tok == "c":
	case e.kind == 'd':
		var q, p int
		_, err = fmt.Sscanf(tok, "d%d>%d", &q, &p)
		e.q, e.p = int8(q), int8(p)
	default:
		var q int
		q, err = strconv.Atoi(tok[1:])
		e.q = int8(q)
	}
	return e, err
}

func (w *world) live(q int) bool { return int(w.dead) != q }

// alive is the rank's view of its peers: a peer is alive until it is marked
// down here.
func (rs *rankState) alive(p int) bool { return rs.down&(1<<p) == 0 }

// candidates lists the round's candidates, as every rank computes them.
func (w *world) candidates(r int) []int {
	var out []int
	m := &w.r[0].m
	m.anyCandidate(r, func(c int) bool { out = append(out, c); return false })
	return out
}

// events lists the steps enabled in w.
func (w *world) events(s scope) []event {
	var out []event
	inData, live := 0, 0
	for q := 0; q < s.p; q++ {
		if !w.live(q) {
			continue
		}
		live++
		rs := &w.r[q]
		if int(rs.app) < s.rounds && (rs.app == 0 || rs.m.done >= int(rs.app)-1) {
			out = append(out, event{kind: 'a', q: int8(q)})
		}
		if (rs.phase == idle && int(rs.eng) < s.rounds) || (rs.phase == waiting && rs.signal) || rs.phase == flooded {
			out = append(out, event{kind: 'e', q: int8(q)})
		}
		if rs.phase == reduced {
			inData++
		}
		if s.crash && w.dead < 0 {
			out = append(out, event{kind: 'x', q: int8(q)})
		}
		if s.deadline && w.dead >= 0 && rs.down&(1<<w.dead) == 0 && !rs.m.EveryRank() {
			// With every rank a candidate, a marking can fail nothing over,
			// and the flood skips the dead rank either way.
			out = append(out, event{kind: 'p', q: int8(q)})
		}
		if r := int(rs.app) - 1; s.deadline && r >= 0 && rs.m.done < r && int(rs.timer) < r && !rs.m.EveryRank() && w.onlyDeadCandidates(q, r) {
			out = append(out, event{kind: 't', q: int8(q)})
		}
	}
	if inData == live && w.sameRound(s) {
		out = append(out, event{kind: 'c'})
	}
	for i := 0; i < int(w.n); i++ {
		mi := w.msgs[i]
		var older int8
		blocked := false
		for j := 0; j < i; j++ {
			if w.msgs[j].to == mi.to {
				older++
				blocked = blocked || w.msgs[j].from == mi.from
			}
		}
		if !blocked {
			out = append(out, event{kind: 'd', q: mi.from, p: mi.to, delay: older})
		}
	}
	return out
}

// onlyDeadCandidates reports whether every candidate of round r other than q
// is dead: a deadline models PeerDeadline chosen far above any legitimate
// skew, so it fires only on a round whose live candidates cannot arrive.
func (w *world) onlyDeadCandidates(q, r int) bool {
	for _, c := range w.candidates(r) {
		if c != q && w.live(c) {
			return false
		}
	}
	return true
}

// sameRound reports whether every live rank's engine is on one round.
func (w *world) sameRound(s scope) bool {
	eng := int8(-1)
	for q := 0; q < s.p; q++ {
		if w.live(q) {
			if eng >= 0 && w.r[q].eng != eng {
				return false
			}
			eng = w.r[q].eng
		}
	}
	return true
}

// send puts a stamp in flight. The stamps are kept in send order per
// destination and grouped by destination, so states that differ only in how
// sends to different ranks interleaved hash alike.
func (w *world) send(mi message) {
	if w.n == maxMsgs {
		panic("explore: too many stamps in flight")
	}
	i := int(w.n)
	for i > 0 && w.msgs[i-1].to > mi.to {
		i--
	}
	copy(w.msgs[i+1:w.n+1], w.msgs[i:w.n])
	w.msgs[i] = mi
	w.n++
}

// settle delivers every stamp that can no longer start anything where it is
// going — at or below the highest round its receiver activated or holds — in
// one step: such a delivery only counts a stale activation, so every order
// of it is the same.
func (w *world) settle(s scope) error {
	for i := 0; i < int(w.n); {
		mi := w.msgs[i]
		if rs := &w.r[mi.to]; int(mi.stamp) > max(rs.m.active, rs.m.stamp) {
			i++
			continue
		}
		if err := w.deliver(s, i); err != nil {
			return err
		}
	}
	return nil
}

// deliver hands the i-th stamp in flight to its receiver's listener.
func (w *world) deliver(s scope, i int) error {
	mi := w.msgs[i]
	copy(w.msgs[i:w.n], w.msgs[i+1:w.n])
	w.n--
	rs := &w.r[mi.to]
	before, pending := rs.m.stats, rs.m.stamp > rs.m.active
	rs.heard = max(rs.heard, mi.stamp)
	rs.wake(rs.m.Receive(int(mi.stamp)))
	return w.checkCounters(s, int(mi.to), before, pending, 1, 0)
}

// snapshot takes round eng's snapshot: the machine's fresh flag, and the
// explorer's own record of whether the application had arrived.
func (rs *rankState) snapshot() {
	rs.flag, rs.fresh = rs.m.Fresh(int(rs.eng)), int(rs.app) > int(rs.eng)
	rs.phase = reduced
}

// wake is the engine's cond signal: it reaches the engine only while it
// waits; otherwise the engine's next arm sees the state anyway.
func (rs *rankState) wake(woken bool) {
	if woken && rs.phase == waiting {
		rs.signal = true
	}
}

// apply runs e on w, then settles the stamps it made stale, and returns the
// first invariant either breaks.
func (w *world) apply(s scope, e event) error {
	if err := w.step(s, e); err != nil {
		return err
	}
	return w.settle(s)
}

func (w *world) step(s scope, e event) error {
	q := int(e.q)
	var rs *rankState
	var before Stats
	var pending bool
	if e.kind != 'c' {
		rs = &w.r[q]
		before, pending = rs.m.stats, rs.m.stamp > rs.m.active
	}
	var activations int64
	switch e.kind {
	case 'a':
		rs.wake(rs.m.Arrive(int(rs.app), rs.alive))
		rs.app++
	case 'e':
		switch rs.phase {
		case idle, waiting:
			rs.signal = false
			rs.phase = waiting
			r := int(rs.eng)
			if !rs.m.Arm(r) {
				break
			}
			activations = 1
			if rs.m.stats.ExternalActivations > before.ExternalActivations && int(rs.heard) < r {
				return fmt.Errorf("rank %d: round %d started externally, but the highest stamp it received is %d", q, r, rs.heard)
			}
			if rs.m.stats.InternalActivations > before.InternalActivations && int(rs.app) <= r {
				return fmt.Errorf("rank %d: round %d started internally before the application arrived", q, r)
			}
			rs.phase = flooded
			for _, p := range rs.m.Peers() {
				if w.live(p) && rs.alive(p) {
					w.send(message{from: int8(q), to: int8(p), stamp: rs.eng})
				}
			}
			if int(rs.app) > r {
				// The application is in the round already and cannot reach the
				// next before it completes: nothing can change the snapshot, so
				// it is taken in the same step.
				rs.snapshot()
			}
		case flooded:
			rs.snapshot()
		}
	case 'd':
		i := 0
		for w.msgs[i].from != e.q || w.msgs[i].to != e.p {
			i++
		}
		return w.deliver(s, i)
	case 'c':
		nap, fresh, live := 0, 0, 0
		for p := 0; p < s.p; p++ {
			if !w.live(p) {
				continue
			}
			o := &w.r[p]
			live++
			if o.flag {
				nap++
			}
			if o.fresh {
				fresh++
			}
			if o.flag != o.fresh {
				return fmt.Errorf("rank %d flagged round %d fresh=%t, but its application had arrived=%t", p, o.eng, o.flag, o.fresh)
			}
			o.m.Complete(int(o.eng))
			o.eng++
			o.phase = idle
		}
		if nap != fresh || nap > live {
			return fmt.Errorf("round NAP %d: %d fresh contributions, %d survivors", nap, fresh, live)
		}
		return nil
	case 'x':
		w.dead = e.q
		n := 0
		for _, mi := range w.msgs[:w.n] {
			if mi.to != e.q {
				w.msgs[n] = mi
				n++
			}
		}
		w.n = int8(n)
		return nil
	case 'p':
		rs.down |= 1 << w.dead
		rs.wake(rs.m.PeerDown(rs.alive))
	case 't':
		r := int(rs.app) - 1
		rs.timer = int8(r)
		if rs.m.Deadline(r) {
			for _, c := range w.candidates(r) {
				if c != q && rs.down&(1<<c) == 0 {
					rs.down |= 1 << c
					rs.wake(rs.m.PeerDown(rs.alive))
				}
			}
			rs.wake(rs.m.PeerDown(rs.alive))
		}
	}
	return w.checkCounters(s, q, before, pending, 0, activations)
}

// checkCounters holds rank q's activation counters to what the step did:
// one activation counted per round run, none otherwise (the round fires once
// however often it is asked for); each stamp received counted once, as
// external or stale, or held for a later round; a failover only with a peer
// deadline and every candidate of the requested round marked down here.
func (w *world) checkCounters(s scope, q int, before Stats, pending bool, received, activations int64) error {
	rs := &w.r[q]
	after := rs.m.stats
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	if got := after.InternalActivations + after.ExternalActivations - before.InternalActivations - before.ExternalActivations; got != activations {
		return fmt.Errorf("rank %d counted %d activations for %d rounds run", q, got, activations)
	}
	gotStamps := after.ExternalActivations + after.StaleActivations + b2i(rs.m.stamp > rs.m.active) -
		before.ExternalActivations - before.StaleActivations - b2i(pending)
	if gotStamps != received {
		return fmt.Errorf("rank %d accounted for %d stamps, received %d", q, gotStamps, received)
	}
	if after.FailoverActivations > before.FailoverActivations {
		r := rs.m.internal
		if !s.deadline {
			return fmt.Errorf("rank %d failed round %d over without a peer deadline", q, r)
		}
		for _, c := range w.candidates(r) {
			if rs.down&(1<<c) == 0 {
				return fmt.Errorf("rank %d failed round %d over while its candidate %d is alive", q, r, c)
			}
		}
	}
	return nil
}

// finished checks a world with no step left: every live rank ran every round
// once its application arrived at all of them — a round with a live initiator
// activates everywhere, and one without fails over.
func (w *world) finished(s scope) error {
	for q := 0; q < s.p; q++ {
		if rs := &w.r[q]; w.live(q) && (int(rs.app) < s.rounds || int(rs.eng) < s.rounds) {
			return fmt.Errorf("stuck: rank %d arrived at %d rounds and completed %d", q, rs.app, rs.eng)
		}
	}
	return nil
}

// key hashes the protocol state. The counters are left out: the invariants
// compare what one step adds to them, which only the rest of the state
// decides.
func (w *world) key(s scope, buf []byte) uint64 {
	buf = buf[:0]
	for q := 0; q < s.p; q++ {
		if !w.live(q) {
			continue // a dead rank's state can no longer matter
		}
		rs := &w.r[q]
		m := &rs.m
		buf = append(buf, byte(m.arrived), byte(m.internal), byte(m.stamp), byte(m.active), byte(m.done),
			byte(rs.app), byte(rs.eng), byte(rs.phase), byte(rs.timer), rs.down, byte(rs.heard))
		var bits byte
		for i, b := range []bool{rs.signal, rs.flag, rs.fresh} {
			if b {
				bits |= 1 << i
			}
		}
		buf = append(buf, bits)
	}
	buf = append(buf, byte(w.dead))
	for _, mi := range w.msgs[:w.n] {
		buf = append(buf, byte(mi.from), byte(mi.to), byte(mi.stamp))
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// explorer is the depth-first search of one scope.
type explorer struct {
	s      scope
	seen   map[uint64]int8 // state → most delays left at a visit
	trace  []event
	buf    []byte
	states int
	err    error
}

func explore(s scope) (states int, err error) {
	x := &explorer{s: s, seen: map[uint64]int8{}, buf: make([]byte, 0, 256)}
	w := newExploreWorld(s)
	x.visit(&w, int8(s.delays))
	return x.states, x.err
}

func (x *explorer) visit(w *world, left int8) {
	h := w.key(x.s, x.buf)
	if seen, ok := x.seen[h]; ok && seen >= left {
		return
	}
	x.seen[h] = left
	x.states++
	evs := w.events(x.s)
	if len(evs) == 0 {
		if err := w.finished(x.s); err != nil {
			x.fail(err)
		}
		return
	}
	for _, e := range evs {
		if e.delay > left {
			continue
		}
		next := *w
		x.trace = append(x.trace, e)
		if err := next.apply(x.s, e); err != nil {
			x.fail(err)
			return
		}
		x.visit(&next, left-e.delay)
		x.trace = x.trace[:len(x.trace)-1]
		if x.err != nil {
			return
		}
	}
}

func (x *explorer) fail(err error) {
	toks := make([]string, len(x.trace))
	for i, e := range x.trace {
		toks[i] = e.String()
	}
	x.err = fmt.Errorf("%w\nreplay: go test ./internal/partial -run TestExploreReplay -explore.replay='%v: %s'", err, x.s, strings.Join(toks, " "))
}

// replay runs one printed trace ("<scope>: <events>") and returns the
// invariant it breaks.
func replay(line string) error {
	head, tail, ok := strings.Cut(line, ":")
	if !ok {
		return fmt.Errorf("replay %q: want \"<scope>: <events>\"", line)
	}
	var s scope
	if _, err := fmt.Sscanf(head, scopeFormat, &s.p, &s.rounds, &s.k, &s.deadline, &s.crash, &s.delays, &s.seed); err != nil {
		return fmt.Errorf("replay scope %q: %v", head, err)
	}
	w := newExploreWorld(s)
	for i, tok := range strings.Fields(tail) {
		e, err := parseEvent(tok)
		if err != nil {
			return fmt.Errorf("replay event %d %q: %v", i, tok, err)
		}
		enabled := false
		for _, en := range w.events(s) {
			if en.kind == e.kind && en.q == e.q && en.p == e.p {
				enabled = true
			}
		}
		if !enabled {
			return fmt.Errorf("replay event %d %q: not enabled", i, tok)
		}
		if err := w.apply(s, e); err != nil {
			return fmt.Errorf("after event %d %q: %w", i, tok, err)
		}
	}
	if len(w.events(s)) == 0 {
		return w.finished(s)
	}
	return nil
}

// TestExplore runs the explorer over every scope: the small bound by
// default, the full one with -explore.full.
func TestExplore(t *testing.T) {
	total := 0
	for _, s := range scopes(*exploreFull) {
		states, err := explore(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		total += states
		t.Logf("%v: %d states", s, states)
	}
	t.Logf("%d states", total)
}

// TestExploreReplay runs the trace given with -explore.replay and fails with
// the invariant it breaks.
func TestExploreReplay(t *testing.T) {
	if *exploreReplay == "" {
		t.Skip("no -explore.replay trace given")
	}
	if err := replay(*exploreReplay); err != nil {
		t.Fatal(err)
	}
}

// mutations are rule errors the explorer must catch, each as text edits of
// activation.go: the four the protocol is known to be prone to, and the two
// rules the explorer found wrong when it was written.
var mutations = []struct {
	name  string
	edits []string // old, new, old, new, ...
}{
	{"stale stamp starts the next round", []string{"case m.stamp >= r:", "case m.stamp >= r-1:"}},
	{"early stamp dropped", []string{"if s <= m.stamp || s <= m.active {", "if s <= m.stamp || s <= m.active || m.done == m.active {"}},
	{"failover with a live initiator", []string{"if m.opts.PeerDeadline <= 0 || m.anyCandidate(r, alive) {", "if m.opts.PeerDeadline <= 0 {"}},
	{"flood skips a live neighbour", []string{"for d := 1; d < 2*top; d *= 2 {", "for d := 1; d < top; d *= 2 {"}},
	{"failover rechecked on the engine's round", []string{"return m.request(m.arrived, alive)", "return m.request(m.active, alive)"}},
	{"flood over the truncated hypercube", []string{"v += top", "v += 2 * top", "p -= top", "continue"}},
}

// TestExploreCatchesMutations builds the package's tests once per mutation,
// with the mutated activation.go laid over the real one (go build -overlay;
// the tree is not touched), and requires TestExplore to fail at its small
// bound and TestExploreReplay to fail the same way on the trace it printed.
// internal/sweep steps the same machine, so its tests must fail under the
// overlay too. It compiles twelve test binaries, so it runs only with
// -explore.full.
func TestExploreCatchesMutations(t *testing.T) {
	if !*exploreFull {
		t.Skip("builds a test binary per mutation; run with -explore.full")
	}
	src, err := os.ReadFile("activation.go")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := filepath.Abs("activation.go")
	if err != nil {
		t.Fatal(err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the mutants with")
	}
	for _, mu := range mutations {
		t.Run(mu.name, func(t *testing.T) {
			dir := t.TempDir()
			mutated := src
			for i := 0; i < len(mu.edits); i += 2 {
				if !bytes.Contains(mutated, []byte(mu.edits[i])) {
					t.Fatalf("activation.go no longer contains %q; update the mutation", mu.edits[i])
				}
				mutated = bytes.Replace(mutated, []byte(mu.edits[i]), []byte(mu.edits[i+1]), 1)
			}
			file := filepath.Join(dir, "activation.go")
			overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {orig: file}})
			ovFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(file, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ovFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			bin := filepath.Join(dir, "partial.test")
			if out, err := exec.Command(goTool, "test", "-c", "-overlay", ovFile, "-o", bin, ".").CombinedOutput(); err != nil {
				t.Fatalf("building the mutant: %v\n%s", err, out)
			}
			out, err := exec.Command(bin, "-test.run", "^TestExplore$").CombinedOutput()
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
			_, violation, _ := strings.Cut(string(line[bytes.Index(line, []byte(" seed=")):]), ": ")
			replayed, err := exec.Command(bin, "-test.run", "^TestExploreReplay$", "-explore.replay="+trace).CombinedOutput()
			if err == nil || !bytes.Contains(replayed, []byte(violation)) {
				t.Fatalf("replaying %q did not fail with %q:\n%s", trace, violation, replayed)
			}
			if out, err := exec.Command(goTool, "test", "-count=1", "-overlay", ovFile, "eagersgd/internal/sweep").CombinedOutput(); err == nil || !bytes.Contains(out, []byte("--- FAIL")) {
				t.Fatalf("the sweep's tests missed the mutation (%v):\n%s", err, out)
			}
			t.Logf("caught: %s\n%s", violation, trace)
		})
	}
}
