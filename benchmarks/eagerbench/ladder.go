package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"eagersgd/collective"
	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/optimizer"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// The ladder prices every layer from outside, by timing calls into its public
// functions at the workload's gradient size d, four ranks and the workload's
// transport, so that adjacent rungs subtract: comm.sendrecv_ns minus
// transport.xfer_ns is the matching cost, partial.round_ns minus
// collectives.allreduce_ns the schedule and activation cost, and so on up to
// the trainer step.

// Sampling limits of one rung: timed calls after warm-up calls, cut short by
// a time cap so that millisecond-scale rungs (evaluation, 256Ki TCP rounds)
// keep the traced pass inside its budget.
const (
	rungSamples = 200
	rungWarmup  = 20
	rungCap     = 700 * time.Millisecond
	// A call faster than this is timed in batches, or the clock reads would be
	// a visible share of the sample.
	batchBelow  = 5 * time.Microsecond
	batchTarget = 20 * time.Microsecond
)

// ladder is the state shared by the rungs of one workload; metrics and failed
// checks go straight into the pass's report.
type ladder struct {
	*report
	w     *workload
	p     *prepared
	seed  int64
	d     int
	quick bool
}

func (l *ladder) put(name, unit string, value float64) {
	l.metrics = append(l.metrics, metric{name: name, unit: unit, value: value})
}

func (l *ladder) limits() (samples, warmup int) {
	if l.quick {
		return 10, 2
	}
	return rungSamples, rungWarmup
}

// timeCalls returns the median duration of fn in nanoseconds.
func (l *ladder) timeCalls(fn func() error) (float64, error) {
	samples, warmup := l.limits()
	for i := 0; i < warmup; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	batch := 1
	if one := time.Since(t0); one < batchBelow {
		batch = int(batchTarget/max(one, 20*time.Nanosecond)) + 1
	}
	var ns []float64
	for began := time.Now(); len(ns) < samples && (len(ns) < 5 || time.Since(began) < rungCap); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		ns = append(ns, float64(time.Since(t0))/float64(batch))
	}
	return median(ns), nil
}

// rung times fn and publishes the median under name.
func (l *ladder) rung(name, unit string, scale float64, fn func() error) {
	ns, err := l.timeCalls(fn)
	if err != nil {
		l.problem("%s: %v", name, err)
	}
	l.put(name, unit, ns*scale)
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocsPer returns the heap allocations per call of fn, over all goroutines.
func (l *ladder) allocsPer(fn func() error) float64 {
	n, _ := l.limits()
	before := heapAllocs()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return math.NaN()
		}
	}
	return float64(heapAllocs()-before) / float64(n)
}

// lockstep drives persistent rank goroutines one round at a time, so a timed
// round is one steady-state collective with no goroutine start in it.
type lockstep struct {
	start []chan int
	done  chan error
	round int
}

func newLockstep(size int, body func(rank, round int) error) *lockstep {
	ls := &lockstep{start: make([]chan int, size), done: make(chan error, size)}
	for r := range ls.start {
		ls.start[r] = make(chan int)
		go func(r int) {
			for round := range ls.start[r] {
				ls.done <- body(r, round)
			}
		}(r)
	}
	return ls
}

// run executes one round on every rank and waits for all of them.
func (ls *lockstep) run() error {
	for _, c := range ls.start {
		c <- ls.round
	}
	ls.round++
	var first error
	for range ls.start {
		if err := <-ls.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (ls *lockstep) stop() {
	for _, c := range ls.start {
		close(c)
	}
}

// withWorld runs body on a fresh four-rank world of the workload's transport.
// Every rung family gets its own world: partial engines own a fixed tag block
// for the life of their communicator, so two of them cannot share one.
func (l *ladder) withWorld(body func(*collective.World) error) {
	world, err := collective.NewWorld(ranks, l.w.worldOptions(takePorts(ranks+1))...)
	if err != nil {
		l.problem("world: %v", err)
		return
	}
	if err := body(world); err != nil {
		l.problem("%v", err)
	}
	if err := world.Close(); err != nil {
		l.problem("world close: %v", err)
	}
}

func comms(world *collective.World) []*comm.Communicator {
	cs := make([]*comm.Communicator, ranks)
	for r := range cs {
		cs[r] = world.Node(r).Communicator()
	}
	return cs
}

// intVectors returns one integer-valued vector per rank (rank r holds r+1
// everywhere), whose sum is exact in floating point in any order.
func (l *ladder) intVectors() []tensor.Vector {
	vs := make([]tensor.Vector, ranks)
	for r := range vs {
		vs[r] = tensor.NewVector(l.d)
		vs[r].Fill(float64(r + 1))
	}
	return vs
}

// serialSum is the element every rank must hold after summing intVectors.
const serialSum = ranks * (ranks + 1) / 2

func allEqual(v tensor.Vector, want float64) bool {
	for _, x := range v {
		if x != want {
			return false
		}
	}
	return true
}

func (l *ladder) tensorRungs() {
	a, b, dst := tensor.NewVector(l.d), tensor.NewVector(l.d), tensor.NewVector(l.d)
	b.Fill(1)
	l.rung("tensor.add_ns", "ns", 1, func() error { a.Add(b); return nil })
	l.rung("tensor.add_into_ns", "ns", 1, func() error { tensor.AddInto(dst, a, b); return nil })
	l.rung("tensor.pool_getput_ns", "ns", 1, func() error { tensor.PutVector(tensor.GetVector(l.d)); return nil })
	params, grad := tensor.NewVector(l.d), tensor.NewVector(l.d)
	sgd := optimizer.NewSGD(l.w.lr)
	l.rung("optimizer.step_ns", "ns", 1, func() error { sgd.Step(params, grad, 0); return nil })
}

// endpointPair returns two raw endpoints of the workload's transport.
func (l *ladder) endpointPair() ([]comm.Endpoint, error) {
	switch l.w.transport {
	case collective.Shm:
		hub := transport.NewShmHub(2)
		return []comm.Endpoint{hub.Endpoint(0), hub.Endpoint(1)}, nil
	case collective.TCP:
		eps, err := transport.NewTCPEndpoints(2, takePorts(2))
		if err != nil {
			return nil, err
		}
		return []comm.Endpoint{eps[0], eps[1]}, nil
	default:
		hub := transport.NewHub(2)
		return []comm.Endpoint{hub.Endpoint(0), hub.Endpoint(1)}, nil
	}
}

// pingPongRungs times one d-element frame across the bare transport and then
// through the communicators' matching, each as half a two-endpoint round trip.
func (l *ladder) pingPongRungs() {
	const tag = 7
	eps, err := l.endpointPair()
	if err != nil {
		l.problem("transport pair: %v", err)
		return
	}
	echo := make(chan struct{})
	go func() {
		defer close(echo)
		for m := range eps[1].Inbox() {
			if eps[1].Send(0, comm.Message{Source: 1, Tag: m.Tag, Data: m.Data}) != nil {
				return
			}
		}
	}()
	l.rung("transport.xfer_ns", "ns", 0.5, func() error {
		if err := eps[0].Send(1, comm.Message{Source: 0, Tag: tag, Data: tensor.GetVector(l.d)}); err != nil {
			return err
		}
		m, ok := <-eps[0].Inbox()
		if !ok {
			return fmt.Errorf("transport closed")
		}
		tensor.PutVector(m.Data)
		return nil
	})
	for _, ep := range eps {
		ep.Close()
	}
	<-echo

	eps, err = l.endpointPair()
	if err != nil {
		l.problem("comm pair: %v", err)
		return
	}
	c0, c1 := comm.NewCommunicator(eps[0]), comm.NewCommunicator(eps[1])
	echo = make(chan struct{})
	go func() {
		defer close(echo)
		for {
			v, _, err := c1.Recv(0, tag)
			if err != nil || c1.Send(0, tag, v) != nil {
				return
			}
		}
	}()
	roundTrip := func() error {
		if err := c0.Send(1, tag, tensor.GetVector(l.d)); err != nil {
			return err
		}
		v, _, err := c0.Recv(1, tag)
		if err != nil {
			return err
		}
		tensor.PutVector(v)
		return nil
	}
	l.rung("comm.sendrecv_ns", "ns", 0.5, roundTrip)
	l.put("comm.sendrecv_allocs", "count", l.allocsPer(roundTrip)/2)
	c0.Close()
	c1.Close()
	<-echo
}

// wireBytes is the bytes one of four ranks sends in one AlgoAuto allreduce of
// d elements: two recursive-doubling exchanges of the whole vector up to 4096
// elements, and 2(P-1)/P of it for Rabenseifner and the ring above.
func wireBytes(d int) float64 {
	if d <= 4096 {
		return 2 * 8 * float64(d)
	}
	return 2 * float64(ranks-1) / ranks * 8 * float64(d)
}

func (l *ladder) allreduceRungs() {
	l.withWorld(func(world *collective.World) error {
		cs := comms(world)
		data := l.intVectors()
		ls := newLockstep(ranks, func(rank, _ int) error {
			return collectives.AllreduceWith(cs[rank], data[rank], collectives.OpSum, collectives.AlgoAuto, collectives.Config{}, nil)
		})
		defer ls.stop()
		if err := ls.run(); err != nil {
			return err
		}
		for r, v := range data {
			if !allEqual(v, serialSum) {
				l.problem("allreduce: rank %d does not hold the serial sum %d", r, serialSum)
			}
			v.Zero() // keep the repeated sums exact (and zero)
		}
		l.rung("collectives.allreduce_ns", "ns", 1, ls.run)
		l.put("collectives.allreduce_allocs", "count", l.allocsPer(ls.run))
		l.put("collectives.wire_bytes", "bytes", wireBytes(l.d))
		return nil
	})
}

// skewSchedule returns, per round, each rank's arrival delay relative to the
// round's first arriver, on the workload's own schedule of modelled compute,
// cost model and injected delay.
func (l *ladder) skewSchedule(rounds int) [][]time.Duration {
	inj, clock := l.w.inject(ranks), l.w.clock()
	sched := make([][]time.Duration, rounds)
	for k := range sched {
		sched[k] = make([]time.Duration, ranks)
		first := math.Inf(1)
		paper := make([]float64, ranks)
		for r := range paper {
			paper[r] = l.w.paperMs(l.p, inj, r, ranks, k)
			first = min(first, paper[r])
		}
		for r := range paper {
			sched[k][r] = clock.Duration(paper[r] - first)
		}
	}
	return sched
}

func (l *ladder) partialRungs() {
	skewRounds := 100
	if l.quick {
		skewRounds = 8
	}
	sched := l.skewSchedule(skewRounds)
	for _, mode := range []partial.Mode{partial.Solo, partial.Majority} {
		l.withWorld(func(world *collective.World) error {
			cs := comms(world)
			ars := make([]*partial.Allreducer, ranks)
			for r := range ars {
				ars[r] = partial.New(cs[r], l.d, partial.Options{Mode: mode, Seed: l.seed})
			}
			grads := l.intVectors()

			// Skewed rounds first, in lockstep, so that rank 0 observes every
			// round's result exactly once and mass conservation can be checked:
			// everything contributed is either in a result rank 0 saw or still
			// parked in a send buffer.
			var observed, nap float64
			latency := make([]float64, 0, skewRounds)
			took := make([]time.Duration, ranks)
			active := make([]int, ranks)
			ls := newLockstep(ranks, func(rank, round int) error {
				time.Sleep(sched[round][rank])
				t0 := time.Now()
				sum, info, err := ars[rank].Exchange(grads[rank])
				took[rank] = time.Since(t0)
				if err != nil {
					return err
				}
				active[rank] = info.ActiveProcesses
				if rank == 0 {
					observed += sum[0]
				}
				tensor.PutVector(sum)
				return nil
			})
			for k := 0; k < skewRounds; k++ {
				if err := ls.run(); err != nil {
					ls.stop()
					return err
				}
				first := 0
				for r := range sched[k] {
					if sched[k][r] < sched[k][first] {
						first = r
					}
				}
				latency = append(latency, float64(took[first]))
				nap += float64(active[first])
			}
			ls.stop()
			for _, ar := range ars {
				pending := ar.DrainPending()
				observed += pending[0]
				tensor.PutVector(pending)
			}
			if contributed := float64(skewRounds * serialSum); observed != contributed {
				l.problem("partial %s: contributed mass %v, received %v after DrainPending", mode, contributed, observed)
			}
			l.put("partial.skew_round_ns."+mode.String(), "ns", median(latency))
			l.put("partial.nap."+mode.String(), "ranks", nap/float64(skewRounds))

			ls = newLockstep(ranks, func(rank, _ int) error {
				sum, _, err := ars[rank].Exchange(grads[rank])
				if err == nil {
					tensor.PutVector(sum)
				}
				return err
			})
			defer ls.stop()
			l.rung("partial.round_ns."+mode.String(), "ns", 1, ls.run)
			return nil
		})
	}
}

// bucketLens splits d into four contiguous buckets.
func bucketLens(d int) []int {
	return []int{d / 4, d / 4, d / 4, d - 3*(d/4)}
}

func (l *ladder) reducerRungs() {
	ctx := context.Background()
	modes := []struct {
		name string
		mode collective.Mode
	}{{"sync", collective.Sync}, {"solo", collective.Solo}, {"majority", collective.Majority}}
	for _, m := range modes {
		l.withWorld(func(world *collective.World) error {
			reds := make([]collective.Reducer, ranks)
			for r := range reds {
				red, err := world.Node(r).Reducer(l.d, collective.WithMode(m.mode), collective.WithSeed(l.seed))
				if err != nil {
					return err
				}
				reds[r] = red
			}
			grads := l.intVectors()
			inexact := make([]bool, ranks)
			ls := newLockstep(ranks, func(rank, _ int) error {
				res, err := reds[rank].Reduce(ctx, grads[rank])
				if err != nil {
					return err
				}
				if m.mode == collective.Sync && !allEqual(res.Sum, serialSum) {
					inexact[rank] = true
				}
				tensor.PutVector(res.Sum)
				return nil
			})
			defer ls.stop()
			l.rung("collective.reduce_ns."+m.name, "ns", 1, ls.run)
			for r, bad := range inexact {
				if bad {
					l.problem("sync Reduce of integer inputs on rank %d differs from the serial sum %d", r, serialSum)
				}
			}
			return nil
		})
	}
	lens := bucketLens(l.d)
	for _, m := range modes[:2] {
		l.withWorld(func(world *collective.World) error {
			reds := make([]collective.BucketReducer, ranks)
			for r := range reds {
				red, err := world.Node(r).Reducer(l.d, collective.WithMode(m.mode), collective.WithSeed(l.seed),
					collective.WithOverlap(), collective.WithBucketLayout(lens...))
				if err != nil {
					return err
				}
				reds[r] = red.(collective.BucketReducer)
			}
			grads := l.intVectors()
			ls := newLockstep(ranks, func(rank, _ int) error {
				red := reds[rank]
				if err := red.BeginStep(ctx, lens); err != nil {
					return err
				}
				handles := make([]*collective.BucketHandle, 0, len(lens))
				// Highest offset first, the order a backward pass submits in.
				off := l.d
				for b := len(lens) - 1; b >= 0; b-- {
					off -= lens[b]
					h, err := red.SubmitBucket(ctx, off, grads[rank][off:off+lens[b]])
					if err != nil {
						return err
					}
					handles = append(handles, h)
				}
				for _, h := range handles {
					sum, err := h.Wait(ctx)
					if err != nil {
						return err
					}
					tensor.PutVector(sum)
				}
				_, err := red.WaitStep(ctx)
				return err
			})
			defer ls.stop()
			l.rung("collective.bucketed_ns."+m.name, "ns", 1, ls.run)
			return nil
		})
	}
}

func (l *ladder) taskRungs() {
	task := l.p.task(0, ranks)
	step := 0
	l.rung("nn.grad_ms", "ms", 1e-6, func() error { task.ComputeGradient(step); step++; return nil })
	l.rung("nn.eval_ms", "ms", 1e-6, func() error { task.Evaluate(); return nil })
}

// joinRung times one World.Join on an idle world whose members each serve d
// elements of state: drain, transfer and commit.
func (l *ladder) joinRung() {
	samples := 3
	if l.quick {
		samples = 1
	}
	var took []float64
	for i := 0; i < samples; i++ {
		l.withWorld(func(world *collective.World) error {
			for r := 0; r < ranks; r++ {
				node := world.Node(r)
				if _, err := node.Reducer(l.d); err != nil {
					return err
				}
				node.SetStateProvider(func() []float64 { return make([]float64, l.d) })
			}
			t0 := time.Now()
			joiner, err := world.Join("joiner")
			if err != nil {
				return fmt.Errorf("join: %w", err)
			}
			took = append(took, ms(time.Since(t0)))
			if got := len(joiner.InitialState()); got != l.d {
				return fmt.Errorf("join: joiner received %d elements of state, want %d", got, l.d)
			}
			return nil
		})
	}
	l.put("membership.join_ms", "ms", median(took))
}

// run executes every rung.
func (l *ladder) run() {
	l.tensorRungs()
	l.pingPongRungs()
	l.allreduceRungs()
	l.partialRungs()
	l.reducerRungs()
	l.taskRungs()
	l.joinRung()
}
