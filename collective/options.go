package collective

import (
	"time"

	"eagersgd/internal/faults"
)

// DefaultBasePort is the first loopback port a TCP world listens on when
// WithBasePort is not given.
const DefaultBasePort = 29500

// config collects the settings shared by NewWorld and Node.Reducer.
// World-level options (transport, base port) are ignored by reducer
// construction and vice versa where they do not apply.
type config struct {
	transport    Transport
	basePort     int
	mode         Mode
	seed         int64
	chunks       int
	negotiate    bool
	overlap      bool
	bucketElems  int
	layout       []int
	peerDeadline time.Duration
	faults       *faults.Scenario
}

func defaultConfig() config {
	return config{
		transport: Inproc,
		basePort:  DefaultBasePort,
		mode:      Sync,
		chunks:    1,
	}
}

func (c config) with(opts []Option) config {
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// Option configures a World or a Reducer. Options are applied in order; later
// options override earlier ones.
type Option func(*config)

// WithTransport selects the wire layer (Inproc, TCP, or Shm) the world
// runs on. Default Inproc.
func WithTransport(t Transport) Option {
	return func(c *config) { c.transport = t }
}

// WithBasePort sets the first loopback port of a TCP world; rank r listens on
// basePort+r. Default DefaultBasePort. Ignored by Inproc worlds.
func WithBasePort(port int) Option {
	return func(c *config) { c.basePort = port }
}

// WithMode selects the reduction behaviour: Sync, Solo, Majority, or
// Quorum(k). Default Sync.
func WithMode(m Mode) Option {
	return func(c *config) { c.mode = m }
}

// WithSeed sets the shared seed that drives the per-round random initiator
// selection of Majority and Quorum modes. Every rank must use the same seed
// (the shared-seed consensus of §4.2). Default 0.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithChunks makes a Sync reducer reduce the gradient in n ordered chunks
// instead of one fused allreduce, modelling the control dependencies a
// DAG-scheduled framework adds (the Deep500 baseline of §3). It is Reduce's
// bucket layout: the n tensor.ChunkBounds chunks are the buckets of one step,
// reduced one allreduce each, in order (an eager reducer reads them from its
// one round). Values below 2 mean a single fused reduction (the default).
func WithChunks(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.chunks = n
	}
}

// WithNegotiation prefixes every Sync reduction with a readiness consensus
// round before the fused allreduce, modelling Horovod's coordinator (§3).
// Off by default.
func WithNegotiation() Option {
	return func(c *config) { c.negotiate = true }
}

// WithOverlap asks training loops to use the bucketed gradient exchange
// (BucketReducer): instead of one blocking Reduce after the whole backward
// pass, layer-aligned buckets are submitted as backprop produces them, so the
// tail of the backward pass overlaps the head of the communication. The
// reducer itself always implements BucketReducer; this option is the signal a
// trainer reads (via OverlapSettings) to choose the overlapped step path.
// Off by default.
func WithOverlap() Option {
	return func(c *config) { c.overlap = true }
}

// WithBucketElems sets the bucket coalescing target of the overlapped
// exchange: adjacent layer segments are merged until a bucket holds at least
// n elements, trading per-bucket overhead against overlap granularity
// (Horovod/DDP-style fusion buckets). n <= 0 (the default) keeps one bucket
// per layer segment. Every rank must use the same value (the bucket layout is
// SPMD wire state).
func WithBucketElems(n int) Option {
	return func(c *config) { c.bucketElems = n }
}

// WithPeerDeadline enables rank-failure tolerance with the given
// failure-detector deadline. Sync reducers abort a reduction blocked on a
// dead rank with an error wrapping ErrRankUnreachable instead of hanging, and
// so does every reducer's model sync (ParamSyncer.SyncParams);
// the eager (partial) reducers treat a rank silent past the deadline as
// permanently failed — its data and activation flag drop out of every
// subsequent round, a dead designated initiator is failed over, and training
// continues with the surviving participant set. The deadline is a failure
// detector, not a latency bound: choose it far above any legitimate skew,
// because a rank it fires on is never readmitted. Zero (the default)
// disables failure tolerance.
func WithPeerDeadline(d time.Duration) Option {
	return func(c *config) { c.peerDeadline = d }
}

// WithFaults runs the world's transport through a deterministic fault
// injector executing the scenario: seed-driven per-link message drops,
// delays, reordering, one-way partitions, and scripted rank crashes. The
// injector is exposed through World.FaultInjector for runtime control
// (advancing crash-at-step counters, cutting links mid-step). Combine with
// WithPeerDeadline so the layers above detect the injected failures instead
// of blocking on them. Ignored by Node.Reducer (the injector wraps transport
// endpoints, which only the World builder constructs).
func WithFaults(sc FaultScenario) Option {
	return func(c *config) {
		copied := sc
		c.faults = &copied
	}
}

// WithBucketLayout names a bucket layout: lens are the bucket lengths in
// ascending offset order, summing to the reducer dimension, and Node.Reducer
// rejects any other. It changes nothing else: bucketed steps take their
// layout as a BeginStep argument, in every mode, and Reduce's layout is
// WithChunks'.
//
// Deprecated: pass the layout to BeginStep instead.
func WithBucketLayout(lens ...int) Option {
	return func(c *config) { c.layout = append([]int(nil), lens...) }
}
