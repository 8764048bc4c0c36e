package partial_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/partial"
	"eagersgd/internal/race"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// These tests pin the inline round engine: its arithmetic against a serial
// model on every world shape and both data phases, the activation rules of
// Fig. 6, the rotation of its three buffers, its constant tag set and its
// steady-state allocations.

// newWorld builds p communicators over the named transport and closes them
// all at cleanup, which also stops the engines of any allreducer over them.
func newWorld(t testing.TB, kind string, p int) []*comm.Communicator {
	t.Helper()
	var world []*comm.Communicator
	switch kind {
	case "inproc":
		world = transport.NewInprocWorld(p)
	case "shm":
		world = transport.NewShmWorld(p)
	default:
		t.Fatalf("unknown transport %q", kind)
	}
	t.Cleanup(func() {
		for _, c := range world {
			c.Close()
		}
	})
	return world
}

// newReducers builds one allreducer per communicator; cleanup (which runs
// before the world's) closes them.
func newReducers(t testing.TB, world []*comm.Communicator, n int, opts partial.Options) []*partial.Allreducer {
	t.Helper()
	ars := make([]*partial.Allreducer, len(world))
	for r, c := range world {
		ars[r] = partial.New(c, n, opts)
	}
	t.Cleanup(func() {
		for _, a := range ars {
			a.Close()
		}
	})
	return ars
}

// eventually polls cond until it holds; the deadline only bounds a failure.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// onAllRanks runs body on every rank concurrently and waits for all of them.
func onAllRanks(p int, body func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(r)
		}(r)
	}
	wg.Wait()
}

// stepResult is what one rank observed in one lock-step round.
type stepResult struct {
	sum  tensor.Vector
	info partial.RoundInfo
	err  error
}

// lockstepRound runs one round on every rank and returns after all of them
// have. Without a layout (bucket lengths summing to the vector length) the
// round goes through Exchange, with one through the bucketed step API,
// reassembling the result from WaitBucket over the layout's ranges.
func lockstepRound(ars []*partial.Allreducer, grads []tensor.Vector, layout ...int) []stepResult {
	out := make([]stepResult, len(ars))
	ctx := context.Background()
	onAllRanks(len(ars), func(r int) {
		a := ars[r]
		if len(layout) == 0 {
			out[r].sum, out[r].info, out[r].err = a.Exchange(grads[r])
			return
		}
		round, stage, err := a.BeginStep()
		if err != nil {
			out[r].err = err
			return
		}
		stage.CopyFrom(grads[r])
		seq, err := a.Contribute(round)
		if err != nil {
			out[r].err = err
			return
		}
		sum := tensor.NewVector(len(grads[r]))
		lo := 0
		for _, l := range layout {
			part, err := a.WaitBucket(ctx, round, lo, lo+l)
			if err != nil {
				out[r].err = err
				return
			}
			sum[lo : lo+l].CopyFrom(part)
			tensor.PutVector(part)
			lo += l
		}
		out[r].sum = sum
		out[r].info, out[r].err = a.WaitStep(ctx, round, seq)
	})
	return out
}

// bucketLayout splits n into at most four contiguous buckets.
func bucketLayout(n int) []int {
	k := min(4, n)
	lens := make([]int, k)
	for b := range lens {
		lo, hi := tensor.ChunkBounds(n, k, b)
		lens[b] = hi - lo
	}
	return lens
}

// TestLockstepRoundsMatchSerialModel is the differential test of the engine.
// Which ranks make a round's snapshot depends on timing, but given the
// Included flag each rank reports, the result is fully determined: a rank's
// included gradient is in it, and so is whatever that rank failed to get
// included earlier (in lock-step, a late gradient is in the send buffer
// before the next round starts). With integer-valued gradients the model must
// hold exactly, on every rank, for every world size (the non-powers of two
// exercise the fold), mode, bucket layout, vector length (recursive doubling,
// Rabenseifner and ring regimes), transport, and data phase — so the tolerant
// recursive doubling of PeerDeadline and the fast path agree bit for bit.
func TestLockstepRoundsMatchSerialModel(t *testing.T) {
	modes := []struct {
		name string
		opts partial.Options
	}{
		{"solo", partial.Options{Mode: partial.Solo}},
		{"majority", partial.Options{Mode: partial.Majority, Seed: 5}},
		{"quorum2", partial.Options{Mode: partial.Quorum, Candidates: 2, Seed: 5}},
	}
	dims := []int{1, 1024, 40000}
	if testing.Short() {
		dims = dims[:2]
	}
	for _, kind := range []string{"inproc", "shm"} {
		for p := 1; p <= 9; p++ {
			for _, mode := range modes {
				for _, n := range dims {
					for _, layout := range [][]int{nil, bucketLayout(n)} {
						if len(layout) == 1 {
							continue // n = 1: the same thing as no layout
						}
						for _, deadline := range []time.Duration{0, time.Minute} {
							opts := mode.opts
							opts.PeerDeadline = deadline
							name := fmt.Sprintf("%s/p=%d/%s/n=%d/buckets=%d/deadline=%v", kind, p, mode.name, n, max(1, len(layout)), deadline)
							t.Run(name, func(t *testing.T) { checkSerialModel(t, kind, p, n, opts, layout) })
						}
					}
				}
			}
		}
	}
}

func checkSerialModel(t *testing.T, kind string, p, n int, opts partial.Options, layout []int) {
	const rounds = 3
	ars := newReducers(t, newWorld(t, kind, p), n, opts)
	grads := make([]tensor.Vector, p)
	for r := range grads {
		grads[r] = tensor.NewVector(n)
	}
	carry := make([]float64, p) // per rank: what it contributed that no round has taken yet
	var contributed, received float64
	// The last two rounds contribute nothing: they flush the carries.
	for k := 0; k < rounds+2; k++ {
		for r := range grads {
			v := 0.0
			if k < rounds {
				v = float64(1 + r + 10*k)
			}
			grads[r].Fill(v)
			contributed += v
		}
		results := lockstepRound(ars, grads, layout...)
		want, included := 0.0, 0
		for r, res := range results {
			if res.err != nil {
				t.Fatalf("round %d rank %d: %v", k, r, res.err)
			}
			want += carry[r]
			carry[r] = grads[r][0]
			if res.info.Included {
				want += carry[r]
				carry[r] = 0
				included++
			}
		}
		if included == 0 {
			t.Fatalf("round %d: no rank's contribution was included", k)
		}
		for r, res := range results {
			for i, got := range res.sum {
				if got != want {
					t.Fatalf("round %d rank %d element %d: got %v, serial model says %v", k, r, i, got, want)
				}
			}
			if res.info.ActiveProcesses != included {
				t.Fatalf("round %d rank %d: NAP %d, but %d ranks report Included", k, r, res.info.ActiveProcesses, included)
			}
			tensor.PutVector(res.sum)
		}
		received += want
	}
	if received != contributed {
		t.Fatalf("received %v of %v contributed after two flush rounds", received, contributed)
	}
}

// TestSimultaneousInitiatorsRunTheRoundOnce: every rank activates round 0 at
// once (solo), so every rank also receives up to log2(P) activations for it.
// The round must run exactly once everywhere, and the redundant activations
// must be counted as stale rather than start round 1.
func TestSimultaneousInitiatorsRunTheRoundOnce(t *testing.T) {
	const p, n = 8, 4
	ars := newReducers(t, newWorld(t, "inproc", p), n, partial.Options{Mode: partial.Solo})
	grads := make([]tensor.Vector, p)
	for r := range grads {
		grads[r] = tensor.Vector{1, 1, 1, 1}
	}
	for k := 1; k <= 3; k++ {
		for r, res := range lockstepRound(ars, grads) {
			if res.err != nil {
				t.Fatalf("round %d rank %d: %v", k, r, res.err)
			}
			tensor.PutVector(res.sum)
		}
		for r, a := range ars {
			st := a.Stats()
			if a.LastRound() != k-1 || st.Rounds != int64(k) || st.InternalActivations+st.ExternalActivations != int64(k) {
				t.Fatalf("after %d rounds rank %d: last round %d, stats %+v", k, r, a.LastRound(), st)
			}
		}
	}
	for r, a := range ars {
		eventually(t, fmt.Sprintf("rank %d to account for every activation it received", r), func() bool {
			st := a.Stats()
			return st.ExternalActivations+st.StaleActivations == 3*3 // log2(8) neighbours flooded each of 3 rounds
		})
	}
}

// TestSingleInitiatorActivatesEveryone: one rank arrives, nobody else ever
// does. Its exchange must return with only its own gradient (the absent ranks
// contribute null gradients, NAP 1), and the flood must have run the round on
// every other rank's engine — including the ranks two and three hypercube
// hops away, and on a world size that is not a power of two.
func TestSingleInitiatorActivatesEveryone(t *testing.T) {
	for _, p := range []int{5, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const n = 3
			ars := newReducers(t, newWorld(t, "inproc", p), n, partial.Options{Mode: partial.Solo})
			initiator := p - 1
			grad := tensor.Vector{2, 3, 5}
			sum, info, err := ars[initiator].Exchange(grad)
			if err != nil {
				t.Fatal(err)
			}
			if !sum.Equal(grad) || info.ActiveProcesses != 1 || !info.Included {
				t.Fatalf("initiator got %v %+v, want its own gradient and NAP 1", sum, info)
			}
			for r, a := range ars {
				eventually(t, fmt.Sprintf("rank %d to complete round 0", r), func() bool { return a.LastRound() == 0 })
				st := a.Stats()
				if r == initiator {
					if st.InternalActivations != 1 || st.ExternalActivations != 0 || st.NullSnapshots != 0 {
						t.Fatalf("initiator stats %+v", st)
					}
					continue
				}
				if st.InternalActivations != 0 || st.ExternalActivations != 1 || st.NullSnapshots != 1 {
					t.Fatalf("rank %d stats %+v, want one external activation with null gradients", r, st)
				}
				// Arriving now is arriving late: the same result, not included,
				// and the gradient parked for a later round.
				late, info, err := a.Exchange(tensor.Vector{1, 1, 1})
				if err != nil {
					t.Fatal(err)
				}
				if !late.Equal(grad) || info.Included || a.PendingStale() == 0 {
					t.Fatalf("late rank %d got %v %+v pending %v", r, late, info, a.PendingStale())
				}
			}
		})
	}
}

// sendActivation forges the activation message a peer's engine would send.
func sendActivation(t *testing.T, from *comm.Communicator, to, round int) {
	t.Helper()
	if err := from.Send(to, partial.DefaultBaseTag, tensor.Vector{float64(round)}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleActivationDoesNotStartNextRound: an activation stamped r that
// arrives after round r completed — a copy that took the long way round the
// hypercube — must be dropped. All rounds share one activation tag, so without
// the stamp it would be indistinguishable from round r+1's.
func TestStaleActivationDoesNotStartNextRound(t *testing.T) {
	const p, n = 4, 2
	world := newWorld(t, "inproc", p)
	ars := newReducers(t, world, n, partial.Options{Mode: partial.Solo})
	grads := make([]tensor.Vector, p)
	for r := range grads {
		grads[r] = tensor.Vector{1, 2}
	}
	lockstepRound(ars, grads)
	for r, a := range ars {
		eventually(t, fmt.Sprintf("rank %d to drain round 0's flood", r), func() bool {
			st := a.Stats()
			return st.StaleActivations+st.ExternalActivations == 2 // log2(4) neighbours each sent one
		})
	}
	before := ars[0].Stats().StaleActivations
	sendActivation(t, world[1], 0, 0)
	eventually(t, "the forged activation to be dropped", func() bool { return ars[0].Stats().StaleActivations == before+1 })

	// Were round 1 started by it, this exchange would find it running or done;
	// instead it must be round 1's first activation, on every rank.
	for r, res := range lockstepRound(ars, grads) {
		if res.err != nil || res.info.Round != 1 {
			t.Fatalf("rank %d: %+v %v", r, res.info, res.err)
		}
	}
	for r, a := range ars {
		if st := a.Stats(); st.Rounds != 2 || st.InternalActivations+st.ExternalActivations != 2 {
			t.Fatalf("rank %d ran %+v, want exactly two rounds", r, st)
		}
	}
}

// TestEarlyActivationIsNotLost: an activation stamped with a round beyond the
// armed one (a fast peer already finished the armed round) must be remembered
// and start that round as soon as the engine arms it, with no second message.
// Forged here into an idle world: stamp 1 proves round 0 was activated
// somewhere, so rank 0 runs round 0 and then round 1, flooding both.
func TestEarlyActivationIsNotLost(t *testing.T) {
	const p, n = 4, 2
	world := newWorld(t, "inproc", p)
	ars := newReducers(t, world, n, partial.Options{Mode: partial.Solo})
	sendActivation(t, world[1], 0, 1)
	for r, a := range ars {
		eventually(t, fmt.Sprintf("rank %d to complete round 1", r), func() bool { return a.LastRound() == 1 })
	}
	// Nothing asked for round 2: the applications' first two exchanges find
	// rounds 0 and 1 done, the third is round 2's first activation.
	grads := make([]tensor.Vector, p)
	for r := range grads {
		grads[r] = tensor.Vector{1, 2}
	}
	for k := 0; k < 3; k++ {
		for r, res := range lockstepRound(ars, grads) {
			if res.err != nil {
				t.Fatalf("exchange %d rank %d: %v", k, r, res.err)
			}
			if k < 2 && res.info.Included {
				t.Fatalf("exchange %d rank %d included in a round that ran before it arrived", k, r)
			}
		}
	}
	for r, a := range ars {
		if st := a.Stats(); st.Rounds != 3 || st.NullSnapshots != 2 {
			t.Fatalf("rank %d ran %+v, want three rounds, the first two on null gradients", r, st)
		}
	}
}

// TestMassConservationWithDrain: under skew, with DrainPending interleaved
// between rounds, every gradient ends up exactly once in a round's result or
// in a drained vector — the "send buffer is empty" state the rotation
// introduces must be indistinguishable from a zeroed one.
func TestMassConservationWithDrain(t *testing.T) {
	const p, n, rounds = 4, 3, 40
	ars := newReducers(t, newWorld(t, "inproc", p), n, partial.Options{Mode: partial.Solo})
	var contributed, observed float64
	grads := make([]tensor.Vector, p)
	for r := range grads {
		grads[r] = tensor.NewVector(n)
	}
	for k := 0; k < rounds; k++ {
		results := make([]stepResult, p)
		onAllRanks(p, func(r int) {
			time.Sleep(time.Duration((r*k)%3) * time.Millisecond)
			grads[r].Fill(float64(k*10 + r + 1))
			results[r].sum, results[r].info, results[r].err = ars[r].Exchange(grads[r])
		})
		for r, res := range results {
			if res.err != nil {
				t.Fatalf("round %d rank %d: %v", k, r, res.err)
			}
			contributed += grads[r][0]
		}
		observed += results[0].sum[0]
		for r, a := range ars {
			if (k+r)%4 == 0 { // take the stale gradients out of the engine for good
				d := a.DrainPending()
				observed += d[0]
				if a.PendingStale() != 0 {
					t.Fatalf("round %d rank %d: send buffer not empty after drain", k, r)
				}
				tensor.PutVector(d)
			}
		}
	}
	for _, a := range ars {
		d := a.DrainPending()
		observed += d[0]
		tensor.PutVector(d)
	}
	if observed != contributed {
		t.Fatalf("observed gradient mass %v != contributed %v", observed, contributed)
	}
}

// TestResultSurvivesLaterRounds: the buffers behind a round's result rotate
// back into use within two rounds, so a result handed to the caller must be
// its own copy — whole-vector and per-bucket alike.
func TestResultSurvivesLaterRounds(t *testing.T) {
	const p, n = 2, 8
	for _, layout := range [][]int{nil, {3, 5}} {
		ars := newReducers(t, newWorld(t, "inproc", p), n, partial.Options{Mode: partial.Majority, Seed: 9})
		grads := []tensor.Vector{tensor.NewVector(n), tensor.NewVector(n)}
		var held, want []tensor.Vector
		for k := 0; k < 5; k++ {
			grads[0].Fill(float64(k + 1))
			grads[1].Fill(float64(100 * (k + 1)))
			for _, res := range lockstepRound(ars, grads, layout...) {
				if res.err != nil {
					t.Fatal(res.err)
				}
				held = append(held, res.sum) // kept, not returned to the pool
				want = append(want, res.sum.Clone())
			}
			for i := range held {
				if !held[i].Equal(want[i]) {
					t.Fatalf("buckets=%d: a result of round %d changed after round %d", max(1, len(layout)), i/p, k)
				}
			}
		}
	}
}

// tagRecorder records the tag of every message an endpoint sends. Embedding
// the interface hides the transport's optional fast paths, so all traffic
// passes through Send.
type tagRecorder struct {
	comm.Endpoint
	mu   *sync.Mutex
	seen map[int]int // tag -> first round it was seen in
	now  *atomic.Int64
}

func (e tagRecorder) Send(dest int, m comm.Message) error {
	e.mu.Lock()
	if _, ok := e.seen[m.Tag]; !ok {
		e.seen[m.Tag] = int(e.now.Load())
	}
	e.mu.Unlock()
	return e.Endpoint.Send(dest, m)
}

// TestTagsStayInsideTheNamespaceForever: round r used to take its tags from a
// block at base + r*stride, which walks out of the engine's namespace after a
// few hundred thousand rounds. The engine now uses the same few tags every
// round: over 2000 rounds every tag must lie in [DefaultBaseTag,
// DefaultBaseTag+TagSpan), and no tag may appear for the first time after the
// opening rounds.
func TestTagsStayInsideTheNamespaceForever(t *testing.T) {
	const n, rounds, base = 3, 2000, partial.DefaultBaseTag
	for _, tc := range []struct {
		p        int
		deadline time.Duration
	}{{4, 0}, {3, 0}, {4, time.Minute}, {3, time.Minute}} {
		t.Run(fmt.Sprintf("p=%d/deadline=%v", tc.p, tc.deadline), func(t *testing.T) {
			hub := transport.NewHub(tc.p)
			rec := tagRecorder{mu: new(sync.Mutex), seen: map[int]int{}, now: new(atomic.Int64)}
			world := make([]*comm.Communicator, tc.p)
			for r := range world {
				ep := rec
				ep.Endpoint = hub.Endpoint(r)
				world[r] = comm.NewCommunicator(ep)
			}
			t.Cleanup(func() { world[0].Close() })
			ars := newReducers(t, world, n, partial.Options{Mode: partial.Solo, PeerDeadline: tc.deadline})
			grads := make([]tensor.Vector, tc.p)
			for r := range grads {
				grads[r] = tensor.Vector{1, 2, 3}
			}
			for k := 0; k < rounds; k++ {
				rec.now.Store(int64(k))
				for r, res := range lockstepRound(ars, grads) {
					if res.err != nil {
						t.Fatalf("round %d rank %d: %v", k, r, res.err)
					}
					tensor.PutVector(res.sum)
				}
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.seen) == 0 {
				t.Fatal("recorded no traffic")
			}
			for tag, first := range rec.seen {
				if tag < base || tag >= base+partial.TagSpan {
					t.Errorf("tag %d (base%+d) is outside [base, base+TagSpan)", tag, tag-base)
				}
				if first != 0 {
					t.Errorf("tag base+%d first appeared in round %d: the tag set is not constant", tag-base, first)
				}
			}
		})
	}
}

// TestSteadyStateExchangeAllocations gates the engine's set-up cost: a round
// builds nothing and starts no goroutine, so once the vector pool is warm an
// Exchange may allocate at most 4 objects per rank (it allocated ~75 when
// every round built a schedule graph).
func TestSteadyStateExchangeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	const p, n = 4, 1024
	ars := newReducers(t, newWorld(t, "inproc", p), n, partial.Options{Mode: partial.Solo})
	// Persistent rank goroutines, so the measured rounds start none.
	start := make([]chan struct{}, p)
	done := make(chan error, p)
	for r := range start {
		start[r] = make(chan struct{})
		go func(r int) {
			grad := tensor.NewVector(n)
			grad.Fill(1)
			for range start[r] {
				sum, _, err := ars[r].Exchange(grad)
				tensor.PutVector(sum)
				done <- err
			}
		}(r)
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	round := func() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		round() // warm the pool and the runtime's own caches
	}
	perRank := testing.AllocsPerRun(200, round) / p
	t.Logf("%.2f allocations per Exchange per rank", perRank)
	if perRank > 4 {
		t.Fatalf("%.2f allocations per Exchange per rank in steady state, want at most 4", perRank)
	}
}

// TestSilentPeerIsDroppedAfterDeadline: a rank that never answers in the data
// phase is declared dead after the peer deadline, contributes nothing, and is
// not waited for again in any later round.
func TestSilentPeerIsDroppedAfterDeadline(t *testing.T) {
	const n = 2
	world := newWorld(t, "inproc", 2)
	opts := partial.Options{Mode: partial.Solo, PeerDeadline: 50 * time.Millisecond}
	a := partial.New(world[0], n, opts) // rank 1 runs no engine at all
	for k := 0; k < 3; k++ {
		begin := time.Now()
		sum, info, err := a.Exchange(tensor.Vector{1, 10})
		if err != nil {
			t.Fatalf("round %d: %v", k, err)
		}
		if !sum.Equal(tensor.Vector{1, 10}) || info.ActiveProcesses != 1 {
			t.Fatalf("round %d: %v %+v counts a rank that never spoke", k, sum, info)
		}
		if k > 0 && time.Since(begin) > opts.PeerDeadline {
			t.Fatalf("round %d took %v: the dead rank was waited for again", k, time.Since(begin))
		}
	}
	if world[0].PeerError(1) == nil {
		t.Fatal("the silent rank was never marked down")
	}
}

// TestMismatchedLengthFailsTheRound: ranks configured with different vector
// lengths are a misconfiguration the tolerant data phase reports instead of
// summing mismatched vectors.
func TestMismatchedLengthFailsTheRound(t *testing.T) {
	world := newWorld(t, "inproc", 2)
	opts := partial.Options{Mode: partial.Solo, PeerDeadline: time.Minute}
	a0 := partial.New(world[0], 4, opts)
	a1 := partial.New(world[1], 5, opts)
	errs := make([]error, 2)
	onAllRanks(2, func(r int) {
		if r == 0 {
			_, _, errs[0] = a0.Exchange(tensor.NewVector(4))
		} else {
			_, _, errs[1] = a1.Exchange(tensor.NewVector(5))
		}
	})
	if errs[0] == nil || errs[1] == nil {
		t.Fatalf("mismatched lengths went unnoticed: %v / %v", errs[0], errs[1])
	}
}

// TestJoinReturnsOnceTheCommunicatorCloses: an engine that is only waiting —
// a world whose round was never activated, a single-rank world with no peer to
// hear from — must notice the communicator closing and exit, so Join returns.
func TestJoinReturnsOnceTheCommunicatorCloses(t *testing.T) {
	for _, p := range []int{1, 3} {
		world := transport.NewInprocWorld(p)
		ars := make([]*partial.Allreducer, p)
		for r := range ars {
			ars[r] = partial.New(world[r], 4, partial.Options{Mode: partial.Majority})
		}
		for _, c := range world {
			c.Close()
		}
		joined := make(chan struct{})
		go func() {
			for _, a := range ars {
				a.Join()
			}
			close(joined)
		}()
		select {
		case <-joined:
		case <-time.After(30 * time.Second):
			t.Fatalf("p=%d: engines still running after the communicators closed", p)
		}
		if _, _, err := ars[0].Exchange(tensor.NewVector(4)); err != partial.ErrClosed {
			t.Fatalf("p=%d: exchange after shutdown returned %v, want ErrClosed", p, err)
		}
	}
}
