// Package simnet is the seeded randomness and duration-model vocabulary of
// the deterministic lockstep sweep (internal/simnet/sweep, CLI cmd/simsweep).
// Every entity that draws — a rank's compute skew, the sweep's per-step wire
// latency — owns a private SplitMix64 Stream seeded by DeriveSeed from one
// root seed plus the entity's identity, so two runs with the same root seed
// make bit-identical draws. A Model (models.go: Constant, Uniform, Pareto,
// Trace, TraceAligned; ParseModel reads cmd/simsweep's spec syntax) turns an
// entity's seed into its Sampler of durations.
//
// SplitMix64 is the same generator internal/partial uses for initiator
// selection and internal/faults for per-link fault decisions, so the whole
// deterministic axis of the repository speaks one PRNG dialect.
package simnet

// Stream is a SplitMix64 pseudo-random stream. The zero value is a valid
// stream seeded with 0; NewStream seeds explicitly. Not safe for concurrent
// use — an entity's stream has one caller.
type Stream struct {
	state uint64
}

// NewStream returns a stream producing the SplitMix64 sequence for seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Uint64 returns the next value of the stream.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns the next value uniformly distributed in [0, 1), using the
// top 53 bits (the float64 mantissa width) of the next Uint64.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Int63n returns the next value uniformly distributed in [0, n); n must be
// positive. The tiny modulo bias (< 2^-63 per draw at simulator magnitudes)
// is irrelevant for latency modelling and costs no rejection loop.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("simnet: Int63n on non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// DeriveSeed folds an entity identity into the root seed, producing the seed
// for that entity's private stream. Identities are small structured tuples —
// (DomainSkew, rank), (DomainWire, stream) — mixed one component at a time
// through the SplitMix64 finalizer, so streams for distinct entities are
// statistically independent and stable across runs.
func DeriveSeed(root uint64, ids ...uint64) uint64 {
	h := root
	for _, id := range ids {
		h = mix64(h ^ (id+1)*0x9e3779b97f4a7c15)
	}
	return h
}

// mix64 is the SplitMix64 finalizer (identical to internal/partial's
// splitmix64 helper, duplicated to keep the packages dependency-free).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed-derivation domains, the first id passed to DeriveSeed so wire streams
// can never collide with skew streams even when their remaining ids match.
// The values are part of the sweep's output: changing one changes every
// curve drawn at a given root seed.
const (
	DomainSkew uint64 = 2 // per rank compute skew: (DomainSkew, rank)
	DomainWire uint64 = 3 // sweep per-step collective wire draws: (DomainWire, stream)
)
