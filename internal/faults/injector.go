package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// ErrCrashed is returned by a crashed rank's endpoint for every send, and is
// the cause surviving ranks see when Scenario.SignalCrashes announces the
// crash. It matches comm.ErrPeerDown through the communicator's marking, not
// directly.
var ErrCrashed = errors.New("faults: rank crashed")

// fate is one per-message injection decision.
type fate int

const (
	fateDeliver fate = iota
	fateDrop
	fateDelay   // FIFO delay through the link worker
	fateReorder // out-of-band delivery; later messages may overtake
)

// linkState serializes one directed link's PRNG draws and, when the link can
// delay, its FIFO delivery worker. The queue is a mutex+cond list (not a
// channel) so Close never races a concurrent enqueue.
type linkState struct {
	rng *rand.Rand

	mu      sync.Mutex
	cond    *sync.Cond
	q       []delayedMsg
	started bool
	closed  bool
}

type delayedMsg struct {
	ep    comm.Endpoint // the sender's inner endpoint: deliveries go out through it
	dest  int
	m     comm.Message
	delay time.Duration
}

// Injector executes one Scenario over the endpoints of one world. Wrap every
// rank's endpoint with Wrap before building communicators; the injector is
// safe for concurrent use by all ranks.
type Injector struct {
	sc   Scenario
	size int

	mu        sync.Mutex
	links     map[Link]*linkState
	overrides map[Link]LinkRule // dynamic rule changes (mid-step partitions)
	crashed   []bool
	crashChs  []chan struct{}     // per-rank, closed on that rank's crash
	notices   []chan comm.Message // per-rank crash signals for forward (SignalCrashes)
	steps     []int               // per-rank application step counters
	closed    bool

	wg sync.WaitGroup // link workers and out-of-band deliveries
}

// NewInjector builds an injector for a world of the given size. The scenario
// is deep-copied: later mutations of the caller's Scenario never affect a
// running injector.
func NewInjector(size int, sc Scenario) *Injector {
	in := &Injector{
		sc:       sc.clone(),
		size:     size,
		links:    make(map[Link]*linkState),
		crashed:  make([]bool, size),
		crashChs: make([]chan struct{}, size),
		notices:  make([]chan comm.Message, size),
		steps:    make([]int, size),
	}
	for r := 0; r < size; r++ {
		in.crashChs[r] = make(chan struct{})
		// Each peer crashes at most once, so a rank is never owed more
		// notices than this: Crash never blocks queueing one.
		in.notices[r] = make(chan comm.Message, size)
	}
	return in
}

// Scenario returns the scenario the injector executes.
func (in *Injector) Scenario() Scenario { return in.sc }

// Size returns the world size the injector was built for.
func (in *Injector) Size() int { return in.size }

// linkSeed derives a per-link PRNG seed so each link's fault stream depends
// only on the scenario seed and the link, never on cross-link interleaving.
func (in *Injector) linkSeed(from, to int) int64 {
	x := uint64(in.sc.Seed) ^ (uint64(from)+1)*0x9e3779b97f4a7c15 ^ (uint64(to)+1)*0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// link returns (creating on first use) the state of a directed link.
func (in *Injector) link(from, to int) *linkState {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := Link{From: from, To: to}
	ls := in.links[key]
	if ls == nil {
		// A link first used after Close took its snapshot of the table is
		// born closed: nothing would ever close it, and its worker would
		// hold Close's wait forever.
		ls = &linkState{rng: rand.New(rand.NewSource(in.linkSeed(from, to))), closed: in.closed}
		ls.cond = sync.NewCond(&ls.mu)
		in.links[key] = ls
	}
	return ls
}

// ruleFor returns the effective rule for a link, dynamic overrides included.
func (in *Injector) ruleFor(from, to int) LinkRule {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r, ok := in.overrides[Link{From: from, To: to}]; ok {
		return r
	}
	return in.sc.rule(from, to)
}

// SetLink replaces the rule of the directed from→to link at runtime — the
// hook chaos tests use to inject a partition mid-step.
func (in *Injector) SetLink(from, to int, r LinkRule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.overrides == nil {
		in.overrides = make(map[Link]LinkRule)
	}
	in.overrides[Link{From: from, To: to}] = r
}

// IsolateRank cuts every link to and from the rank at runtime: a full
// partition of one rank without crashing it.
func (in *Injector) IsolateRank(rank int) {
	for r := 0; r < in.size; r++ {
		if r == rank {
			continue
		}
		in.SetLink(rank, r, LinkRule{Cut: true})
		in.SetLink(r, rank, LinkRule{Cut: true})
	}
}

// AdvanceStep increments the rank's application step counter and executes any
// crash the scenario scripts at the new step. It returns the new counter.
// Training loops call it once per optimizer step, making crash-at-step
// deterministic in the rank's own step sequence.
func (in *Injector) AdvanceStep(rank int) int {
	in.mu.Lock()
	in.steps[rank]++
	step := in.steps[rank]
	at, scripted := in.sc.CrashAtStep[rank]
	in.mu.Unlock()
	if scripted && step >= at {
		in.Crash(rank)
	}
	return step
}

// CrashIn reports how many more AdvanceStep calls the rank has left before
// its scripted crash. ok is false when none is scripted or it already fired.
func (in *Injector) CrashIn(rank int) (steps int, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	at, scripted := in.sc.CrashAtStep[rank]
	if !scripted || in.crashed[rank] {
		return 0, false
	}
	return max(at-in.steps[rank], 0), true
}

// Crash kills the rank now: its endpoint refuses further sends, its inbox
// closes, and traffic addressed to it is black-holed. Idempotent. When the
// scenario signals crashes, every surviving rank's wrapped inbox is queued a
// failure message for the rank, with cause ErrCrashed.
func (in *Injector) Crash(rank int) {
	if rank < 0 || rank >= in.size {
		return
	}
	in.mu.Lock()
	if in.crashed[rank] {
		in.mu.Unlock()
		return
	}
	in.crashed[rank] = true
	if in.sc.SignalCrashes {
		cause := fmt.Errorf("%w: rank %d", ErrCrashed, rank)
		for r, n := range in.notices {
			if r != rank && !in.crashed[r] {
				n <- comm.Message{Source: rank, Err: cause}
			}
		}
	}
	in.mu.Unlock()
	close(in.crashChs[rank])
}

// Crashed reports whether the rank has crashed.
func (in *Injector) Crashed(rank int) bool {
	if rank < 0 || rank >= in.size {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[rank]
}

// Close stops the injector's delivery workers, releasing any payloads still
// held in delay queues back to the vector pool, and waits for out-of-band
// deliveries to finish. Call it after the world's communicators are closed:
// a late delivery into a closed transport is simply refused (and its payload
// released) by the transport itself.
func (in *Injector) Close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		in.wg.Wait()
		return
	}
	in.closed = true
	links := make([]*linkState, 0, len(in.links))
	for _, ls := range in.links {
		links = append(links, ls)
	}
	in.mu.Unlock()
	for _, ls := range links {
		ls.mu.Lock()
		ls.closed = true
		ls.cond.Broadcast()
		ls.mu.Unlock()
	}
	in.wg.Wait()
}

// decide draws the fate of one message on a link, plus its delay if any.
func (in *Injector) decide(from, to int) (fate, time.Duration) {
	rule := in.ruleFor(from, to)
	if !rule.active() {
		return fateDeliver, 0
	}
	if rule.Cut {
		return fateDrop, 0
	}
	ls := in.link(from, to)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if rule.Drop > 0 && ls.rng.Float64() < rule.Drop {
		return fateDrop, 0
	}
	if rule.Reorder > 0 && ls.rng.Float64() < rule.Reorder {
		d := rule.DelayMax
		if d <= 0 {
			d = 2 * time.Millisecond
		}
		return fateReorder, time.Duration(ls.rng.Int63n(int64(d) + 1))
	}
	if rule.DelayProb > 0 && ls.rng.Float64() < rule.DelayProb {
		span := rule.DelayMax - rule.DelayMin
		d := rule.DelayMin
		if span > 0 {
			d += time.Duration(ls.rng.Int63n(int64(span) + 1))
		}
		return fateDelay, d
	}
	if rule.hasDelay() {
		// The link can delay, so ordinary traffic must queue behind any
		// delayed message to preserve per-link FIFO order.
		return fateDelay, 0
	}
	return fateDeliver, 0
}

// Wrap interposes the injector between a rank's endpoint and its
// communicator. The endpoint's rank selects the scenario rules that apply to
// its outgoing links.
func (in *Injector) Wrap(ep comm.Endpoint) comm.Endpoint {
	if ep.Size() != in.size {
		panic(fmt.Sprintf("faults: endpoint size %d, injector built for %d", ep.Size(), in.size))
	}
	e := &endpoint{inner: ep, inj: in, rank: ep.Rank(), out: make(chan comm.Message)}
	go e.forward()
	return e
}

// enqueueFIFO appends the message to the link's FIFO delay worker, starting
// the worker on first use.
func (in *Injector) enqueueFIFO(from int, it delayedMsg) {
	ls := in.link(from, it.dest)
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		tensor.PutVector(it.m.Data)
		return
	}
	ls.q = append(ls.q, it)
	if !ls.started {
		ls.started = true
		in.wg.Add(1)
		go in.runLink(ls)
	}
	ls.cond.Broadcast()
	ls.mu.Unlock()
}

// runLink is one link's FIFO delivery worker: it sleeps each message's delay
// in arrival order, then forwards it. On close, queued payloads are released.
func (in *Injector) runLink(ls *linkState) {
	defer in.wg.Done()
	for {
		ls.mu.Lock()
		for len(ls.q) == 0 && !ls.closed {
			ls.cond.Wait()
		}
		if len(ls.q) == 0 { // closed and drained
			ls.mu.Unlock()
			return
		}
		it := ls.q[0]
		ls.q = ls.q[1:]
		closed := ls.closed
		ls.mu.Unlock()
		if closed {
			tensor.PutVector(it.m.Data)
			continue
		}
		if it.delay > 0 {
			time.Sleep(it.delay)
		}
		in.deliver(it)
	}
}

// goDeliver spawns a tracked out-of-band delivery of it after delay. It
// reports false — without consuming the payload — when the injector is
// already closed: wg.Add must never race Close's wg.Wait.
func (in *Injector) goDeliver(it delayedMsg, delay time.Duration) bool {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	in.wg.Add(1)
	in.mu.Unlock()
	go func() {
		defer in.wg.Done()
		time.Sleep(delay)
		in.deliver(it)
	}()
	return true
}

// deliver forwards a message through the sender's inner endpoint unless the
// destination has crashed meanwhile. Transport errors are swallowed — the
// network lost the message; the transport releases the payload on its own
// error paths.
func (in *Injector) deliver(it delayedMsg) {
	if in.Crashed(it.dest) {
		tensor.PutVector(it.m.Data)
		return
	}
	_ = it.ep.Send(it.dest, it.m)
}
