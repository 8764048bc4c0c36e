package collective

import (
	"fmt"
	"sync"

	"eagersgd/internal/comm"
	"eagersgd/internal/faults"
	"eagersgd/internal/membership"
	"eagersgd/internal/transport"
)

// World is an elastic collective job: one Node per member over a shared
// transport, built from a single NewWorld call. All ranks live in this
// process (goroutines over channels for Inproc, loopback sockets for TCP),
// which is the deployment every experiment and test in this repository uses,
// and Node.Reducer is the only way to mint a reducer.
//
// Membership is versioned by epoch: the world starts at epoch 0 with the
// NewWorld size, and Join, Leave, and Replace move it to the next epoch while
// training runs (see membership.go). Each epoch owns a complete transport
// generation — hub or port block, communicators, fault injector — retired
// wholesale when the epoch ends, so traffic from different epochs can never
// mix.
//
// Closing the world releases every member's transport resources, whichever
// transport is in use — callers must not rely on the in-process transport's
// close-one-closes-all behaviour, which TCP does not share.
type World struct {
	cfg config

	mu         sync.Mutex
	nodes      []*Node         // current epoch's members, dense rank order
	view       membership.View // current epoch's committed membership
	nextID     RankID          // stable ID the next joiner gets; never reused
	gen        *generation
	subs       []func(Epoch)
	portCursor int // next unused TCP base port (per-epoch port blocks)

	// transMu serializes epoch transitions with each other and with Close:
	// a transition holds it from proposal to commit or abort. closing is
	// closed by Close before it takes transMu, so an in-flight transition
	// observes the shutdown at its next step and aborts.
	transMu sync.Mutex
	closing chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// generation is one epoch's transport stack. A transition builds the next
// generation, moves the nodes over, and retires this one.
type generation struct {
	comms    []*comm.Communicator // dense rank order of the generation's view
	injector *faults.Injector     // non-nil when built WithFaults

	commsOnce sync.Once // closeComms idempotence (Close can race a transition's retire)
	commsErr  error
}

// closeComms closes the generation's communicators (and with them the
// transport endpoints), idempotently.
func (g *generation) closeComms() error {
	g.commsOnce.Do(func() {
		for _, c := range g.comms {
			if err := c.Close(); err != nil && g.commsErr == nil {
				g.commsErr = err
			}
		}
	})
	return g.commsErr
}

// Node is one member's view of a World: the handle reducers are minted from.
// The handle is stable across epochs — its ID never changes — while its dense
// rank, communicator, and world size follow the membership.
type Node struct {
	world *World
	id    RankID

	mu            sync.Mutex
	comm          *comm.Communicator
	rank          int // dense rank in the current epoch
	epoch         uint64
	left          bool // no longer a member; operations fail
	reducers      []*elasticReducer
	stateProvider func() []float64
	initState     []float64 // joiners: parameters handed over at admission
}

// NewWorld builds a world of size ranks over the configured transport.
// Reducer-level options given here become the defaults for every
// Node.Reducer call.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("collective: world size %d must be positive", size)
	}
	cfg := defaultConfig().with(opts)
	w := &World{
		cfg:        cfg,
		nextID:     RankID(size),
		portCursor: cfg.basePort,
		closing:    make(chan struct{}),
	}
	var crashAt map[int]int
	if cfg.faults != nil {
		crashAt = cfg.faults.CrashAtStep
	}
	gen, err := w.buildGeneration(size, crashAt)
	if err != nil {
		return nil, err
	}
	w.gen = gen
	// Founding members' stable IDs equal their epoch-0 ranks.
	w.nodes = make([]*Node, size)
	w.view.Members = make([]membership.Member, size)
	for r := 0; r < size; r++ {
		w.nodes[r] = &Node{world: w, id: RankID(r), comm: gen.comms[r], rank: r}
		w.view.Members[r] = membership.Member{ID: RankID(r)}
	}
	return w, nil
}

// buildGeneration constructs the transport stack for one epoch's view. TCP
// generations consume a fresh block of consecutive ports from the port
// cursor, so a retired epoch's lingering sockets can never collide with the
// next epoch's listeners. crashAt is the epoch's crash script by dense slot,
// in place of the scenario's (see carryCrashes).
func (w *World) buildGeneration(size int, crashAt map[int]int) (*generation, error) {
	cfg := w.cfg
	eps := make([]comm.Endpoint, size)
	switch cfg.transport {
	case Inproc:
		hub := transport.NewHub(size)
		for r := 0; r < size; r++ {
			eps[r] = hub.Endpoint(r)
		}
	case TCP:
		basePort := w.portCursor
		// The cursor advances past the block even on failure: a bind that
		// lost a port race (ephemeral ports land anywhere) must make a
		// retried transition probe fresh ports, not re-collide forever.
		w.portCursor = basePort + size
		teps, err := transport.NewTCPEndpoints(size, basePort)
		if err != nil {
			return nil, fmt.Errorf("collective: tcp world: %w", err)
		}
		for r := 0; r < size; r++ {
			eps[r] = teps[r]
		}
	case Shm:
		hub := transport.NewShmHub(size)
		for r := 0; r < size; r++ {
			eps[r] = hub.Endpoint(r)
		}
	default:
		return nil, fmt.Errorf("collective: unknown transport %v", cfg.transport)
	}
	g := &generation{}
	if cfg.faults != nil {
		// The injector interposes between every endpoint and its
		// communicator, so all layers above experience the scenario's faults
		// through their ordinary interfaces. Each generation runs its own
		// injector; only the crash script carries over between them.
		sc := *cfg.faults
		sc.CrashAtStep = crashAt
		g.injector = faults.NewInjector(size, sc)
		for r := range eps {
			eps[r] = g.injector.Wrap(eps[r])
		}
	}
	g.comms = make([]*comm.Communicator, size)
	for r := 0; r < size; r++ {
		g.comms[r] = comm.NewCommunicator(eps[r])
	}
	return g, nil
}

// Size returns the number of members in the current epoch.
func (w *World) Size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.nodes)
}

// Transport returns the wire layer the world runs on.
func (w *World) Transport() Transport { return w.cfg.transport }

// Mode returns the default reduction mode nodes mint reducers with.
func (w *World) Mode() Mode { return w.cfg.mode }

// Node returns the per-member handle at dense rank r of the current epoch.
func (w *World) Node(r int) *Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r < 0 || r >= len(w.nodes) {
		panic(fmt.Sprintf("collective: rank %d out of range [0,%d)", r, len(w.nodes)))
	}
	return w.nodes[r]
}

// Nodes returns the current epoch's member handles, indexed by dense rank.
func (w *World) Nodes() []*Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*Node, len(w.nodes))
	copy(out, w.nodes)
	return out
}

// allReducers snapshots every live member's elastic reducers.
func (w *World) allReducers() []*elasticReducer {
	w.mu.Lock()
	nodes := append([]*Node(nil), w.nodes...)
	w.mu.Unlock()
	var out []*elasticReducer
	for _, n := range nodes {
		n.mu.Lock()
		out = append(out, n.reducers...)
		n.mu.Unlock()
	}
	return out
}

// Close shuts down every member's communicator and transport endpoint. It is
// the collective shutdown point of the job (call it after all ranks have
// stopped reducing), is safe to call more than once, and returns the first
// error encountered.
//
// Close first signals any in-flight epoch transition to abort, closes every
// reducer minted through Node.Reducer so an overlapped bucketed step caught
// in flight is released cleanly (queued bucket submissions resolve with
// ErrReducerClosed and return their pooled leases, pending handles and step
// waiters wake), and closes the current generation's transports — which in
// turn unblocks any bucket reduction already on the wire, and any drain a
// transition is still waiting on. Only then does it wait for the transition
// to finish aborting, join the reducer engines, and release the injector, so
// shutdown leaks no pool leases no matter what phase it interrupted.
func (w *World) Close() error {
	w.closeOnce.Do(func() {
		close(w.closing)
		reducers := w.allReducers()
		for _, r := range reducers {
			if err := r.markClosed(); err != nil && w.closeErr == nil {
				w.closeErr = err
			}
		}
		w.mu.Lock()
		gen := w.gen
		w.mu.Unlock()
		if err := gen.closeComms(); err != nil && w.closeErr == nil {
			w.closeErr = err
		}
		// Wait for an in-flight transition to observe the shutdown and abort;
		// it retires whatever half-built generation it was holding.
		w.transMu.Lock()
		defer w.transMu.Unlock()
		w.mu.Lock()
		final := w.gen
		w.mu.Unlock()
		if final != gen {
			if err := final.closeComms(); err != nil && w.closeErr == nil {
				w.closeErr = err
			}
		}
		// With the transports down, every reducer engine can (and must)
		// finish: join them so all their pool leases are back before Close
		// returns — the zero-leaked-leases shutdown guarantee.
		for _, r := range reducers {
			r.joinEngine()
		}
		for _, g := range []*generation{gen, final} {
			if g.injector != nil {
				// After the transports: delivery workers holding delayed
				// messages release their payloads back to the pool here.
				g.injector.Close()
			}
			if g == final {
				break
			}
		}
	})
	return w.closeErr
}

// ID returns the member's stable identity: assigned once when the member
// enters the world (founding members get IDs equal to their epoch-0 ranks)
// and never reused, even across leave/rejoin of the same address.
func (n *Node) ID() RankID { return n.id }

// Rank returns this member's dense rank in the current epoch, in [0, Size).
// It can change at an epoch boundary when lower-ranked members leave; use ID
// for a name that survives reconfiguration.
func (n *Node) Rank() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rank
}

// Epoch returns the membership epoch this node currently operates in.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Size returns the number of members in the node's current epoch.
func (n *Node) Size() int { return n.world.Size() }

// Reducer builds this member's Reducer for gradient vectors of length dim,
// using the world's options overridden by any options given here. Every
// member must build its reducer with the same dim and options (the engines
// are SPMD); a joiner admitted by Join or Replace mints its reducers with the
// same arguments the founding members used, after Join returns.
//
// The returned reducer is epoch-aware: it keeps working across membership
// transitions, draining at each epoch boundary and continuing over the new
// rank set, with Result.Ranks following the current world size. Once the
// world's Close has begun, Reducer fails with ErrWorldClosed.
func (n *Node) Reducer(dim int, opts ...Option) (Reducer, error) {
	// Serialize against transitions: a reducer minted here is either drained
	// by the next transition or built after it, never half-enrolled.
	n.world.transMu.Lock()
	defer n.world.transMu.Unlock()
	n.mu.Lock()
	if n.left {
		n.mu.Unlock()
		return nil, ErrNotMember
	}
	c := n.comm
	n.mu.Unlock()
	cfg := n.world.cfg.with(opts)
	r, err := newElasticReducer(dim, cfg, c)
	if err != nil {
		return nil, err
	}
	// Checked where the reducer is enrolled: a World.Close racing this call
	// either snapshots it among the reducers it closes and joins, or the
	// reducer is closed and joined here, over a communicator that Close
	// closes.
	n.mu.Lock()
	closing := n.world.isClosing()
	if !closing {
		n.reducers = append(n.reducers, r)
	}
	n.mu.Unlock()
	if closing {
		_ = r.markClosed()
		r.joinEngine()
		return nil, ErrWorldClosed
	}
	return r, nil
}

// SetStateProvider registers the function the world calls at an epoch
// boundary to snapshot this member's model parameters for the joiners. A
// transition that admits members calls the provider of the first live
// surviving member (in the outgoing epoch's rank order) that has one, once,
// after the drain barrier, and gives every joiner its own copy of the result —
// so the provider may return live parameters. In synchronous modes every
// survivor holds identical parameters at that point; in eager modes the
// joiners receive one survivor's view, which the next periodic
// synchronization reconciles. A nil provider (the default) opts the member
// out of serving state.
func (n *Node) SetStateProvider(fn func() []float64) {
	n.mu.Lock()
	n.stateProvider = fn
	n.mu.Unlock()
}

// InitialState returns the model parameters handed to this member when it
// joined mid-training, or nil for founding members and worlds without state
// providers. The slice is owned by the caller.
func (n *Node) InitialState() []float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.initState
}

// Communicator exposes the node's underlying point-to-point communicator for
// advanced use (diagnostics, custom collectives, the internal training
// engine). The returned value is of an internal type; treat it as opaque —
// and re-fetch it after a membership change, because each epoch runs its own
// communicator generation.
func (n *Node) Communicator() *comm.Communicator {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.comm
}
