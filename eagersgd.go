package eagersgd

import (
	"eagersgd/collective"
	"eagersgd/tensor"
)

// The root package aliases the collective and tensor essentials so a minimal
// program needs a single import; the full surfaces (sync styles, elastic
// membership, fault injection, matrices) live in the respective packages.

// Core collective types; see package eagersgd/collective.
type (
	// World is a collective job over one transport.
	World = collective.World
	// Node is one rank's view of a World.
	Node = collective.Node
	// Reducer reduces per-rank gradient vectors across the world.
	Reducer = collective.Reducer
	// Result describes one completed reduction.
	Result = collective.Result
	// Mode selects the reduction behaviour of a Reducer.
	Mode = collective.Mode
	// Option configures a World or a Reducer.
	Option = collective.Option
	// Transport selects the wire layer a World runs on.
	Transport = collective.Transport
	// Vector is a dense one-dimensional array of float64 values.
	Vector = tensor.Vector
)

// Reduction modes and transports; see package eagersgd/collective.
var (
	// Sync is the synchronous allreduce baseline.
	Sync = collective.Sync
	// Solo is the wait-free partial allreduce (§4.1).
	Solo = collective.Solo
	// Majority designates one random initiator per round (§4.2).
	Majority = collective.Majority
)

// Transports.
const (
	// Inproc connects ranks as goroutines within this process.
	Inproc = collective.Inproc
	// TCP runs the collectives over loopback TCP sockets.
	TCP = collective.TCP
	// Shm connects same-host ranks through syscall-free SPSC shared rings.
	Shm = collective.Shm
)

// NewWorld builds a world of size ranks; see collective.NewWorld.
func NewWorld(size int, opts ...Option) (*World, error) {
	return collective.NewWorld(size, opts...)
}

// Quorum returns the quorum mode with k candidate initiators (§8).
func Quorum(k int) Mode { return collective.Quorum(k) }

// NewVector returns a zero-initialized vector of length n.
func NewVector(n int) Vector { return tensor.NewVector(n) }

// WithTransport selects the wire layer (Inproc, TCP, or Shm). Default
// Inproc.
func WithTransport(t Transport) Option { return collective.WithTransport(t) }

// WithMode selects the reduction behaviour. Default Sync.
func WithMode(m Mode) Option { return collective.WithMode(m) }

// WithBasePort sets the first loopback port of a TCP world.
func WithBasePort(port int) Option { return collective.WithBasePort(port) }

// WithSeed sets the shared initiator-selection seed for Majority and Quorum.
func WithSeed(seed int64) Option { return collective.WithSeed(seed) }

// WithOverlap enables the bucketed gradient exchange that overlaps backprop
// with communication; see collective.BucketReducer.
func WithOverlap() Option { return collective.WithOverlap() }

// WithBucketElems sets the bucket coalescing target of the synchronous
// overlapped exchange (0 = one bucket per layer segment); eager modes run
// one bucket per step.
func WithBucketElems(n int) Option { return collective.WithBucketElems(n) }
