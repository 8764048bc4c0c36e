package harness

import (
	"fmt"
	"sync"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
	"eagersgd/internal/trace"
	"eagersgd/internal/transport"
)

// Fig9Microbenchmark reproduces the microbenchmark of §6.1 (Figs. 8 and 9):
// all ranks are linearly skewed (rank r delayed by (r+1)·1 ms) before calling
// the collective, and the latency averaged over ranks is reported for the
// synchronous allreduce baseline, solo allreduce, and majority allreduce,
// together with the number of active processes (NAP) of the partial
// collectives.
func Fig9Microbenchmark(cfg Config) (*Report, error) {
	p := experimentParams(cfg)
	r := newReport("fig9", "Partial allreduce latency and active processes under linear skew")
	clock := imbalance.ScaledClock(p.fig9Clock)
	skew := imbalance.LinearSkew{StepMs: p.fig9SkewStepMs}

	table := trace.NewTable(
		fmt.Sprintf("Fig. 9 — average latency over %d ranks, linear skew %g–%g ms (clock scale %g)",
			p.fig9Procs, p.fig9SkewStepMs, float64(p.fig9Procs)*p.fig9SkewStepMs, p.fig9Clock),
		"msg bytes", "allreduce ms", "majority ms", "solo ms", "solo speedup", "majority speedup", "NAP solo", "NAP majority")

	latencyCurves := map[string]*trace.Curve{
		"allreduce": {Name: "MPI-style allreduce latency"},
		"majority":  {Name: "majority allreduce latency"},
		"solo":      {Name: "solo allreduce latency"},
	}
	napCurves := map[string]*trace.Curve{
		"solo":     {Name: "NAP solo"},
		"majority": {Name: "NAP majority"},
	}

	// What the partial engines did to produce those latencies, summed over the
	// ranks: the always-on counters of partial.Allreducer.Stats.
	engine := trace.NewTable("Partial engine counters, summed over ranks",
		"msg bytes", "mode", "rounds", "internal act.", "external act.", "stale act.", "failover act.",
		"included", "straggler", "null snapshots")
	addEngineRow := func(bytes int, mode partial.Mode, st partial.Stats) {
		engine.AddRow(bytes, mode.String(), st.Rounds, st.InternalActivations, st.ExternalActivations, st.StaleActivations,
			st.FailoverActivations, st.ExchangesIncluded, st.ExchangesStraggler, st.NullSnapshots)
	}

	var soloSpeedups, majoritySpeedups []float64
	for _, elems := range p.fig9Sizes {
		iterations := p.fig9Iterations
		if elems > 32768 {
			// Large messages are bandwidth-bound; fewer iterations keep the
			// benchmark short without changing the averages materially.
			iterations = max(4, p.fig9Iterations/4)
		}
		bytes := elems * 8

		synch, err := microSynchLatency(p.fig9Procs, elems, iterations, skew, clock)
		if err != nil {
			return nil, err
		}
		solo, soloNAP, soloStats, err := microPartialLatency(p.fig9Procs, elems, iterations, skew, clock, partial.Options{Mode: partial.Solo, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		majority, majNAP, majStats, err := microPartialLatency(p.fig9Procs, elems, iterations, skew, clock, partial.Options{Mode: partial.Majority, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		addEngineRow(bytes, partial.Solo, soloStats)
		addEngineRow(bytes, partial.Majority, majStats)

		soloSpeedup := ratio(synch, solo)
		majSpeedup := ratio(synch, majority)
		soloSpeedups = append(soloSpeedups, soloSpeedup)
		majoritySpeedups = append(majoritySpeedups, majSpeedup)

		table.AddRow(bytes, msFloat(synch), msFloat(majority), msFloat(solo), soloSpeedup, majSpeedup, soloNAP, majNAP)
		latencyCurves["allreduce"].Add(float64(bytes), msFloat(synch))
		latencyCurves["majority"].Add(float64(bytes), msFloat(majority))
		latencyCurves["solo"].Add(float64(bytes), msFloat(solo))
		napCurves["solo"].Add(float64(bytes), soloNAP)
		napCurves["majority"].Add(float64(bytes), majNAP)

		r.Values[fmt.Sprintf("latency-ms/allreduce/%d", bytes)] = msFloat(synch)
		r.Values[fmt.Sprintf("latency-ms/solo/%d", bytes)] = msFloat(solo)
		r.Values[fmt.Sprintf("latency-ms/majority/%d", bytes)] = msFloat(majority)
		r.Values[fmt.Sprintf("nap/solo/%d", bytes)] = soloNAP
		r.Values[fmt.Sprintf("nap/majority/%d", bytes)] = majNAP
	}
	r.Tables = append(r.Tables, table, engine)
	r.Curves = append(r.Curves,
		latencyCurves["allreduce"], latencyCurves["majority"], latencyCurves["solo"],
		napCurves["solo"], napCurves["majority"])

	r.Values["speedup/solo-mean"] = mean(soloSpeedups)
	r.Values["speedup/majority-mean"] = mean(majoritySpeedups)
	r.addNote("solo allreduce is on average %.1fx faster than the synchronous allreduce, majority %.1fx (paper: 53.3x and 2.5x on Cray MPICH)",
		mean(soloSpeedups), mean(majoritySpeedups))
	r.addNote("NAP of solo stays near 1 and NAP of majority near P/2 under full skew, matching §6.1")
	return r, nil
}

// microSynchLatency measures the average per-rank latency of the synchronous
// allreduce with linearly skewed entry times.
func microSynchLatency(procs, elems, iterations int, skew imbalance.Injector, clock imbalance.Clock) (time.Duration, error) {
	world := transport.NewInprocWorld(procs)
	defer world[0].Close()
	var mu sync.Mutex
	var total time.Duration
	var count int
	err := runRanks(procs, func(rank int, c *comm.Communicator) error {
		buf := tensor.NewVector(elems)
		for iter := 0; iter < iterations; iter++ {
			clock.Sleep(skew.Delay(iter, rank))
			buf.Fill(1)
			start := time.Now()
			if err := collectives.AllreduceWith(c, buf, collectives.OpSum, collectives.AlgoAuto, collectives.Config{}, nil); err != nil {
				return err
			}
			elapsed := time.Since(start)
			mu.Lock()
			total += elapsed
			count++
			mu.Unlock()
			if err := collectives.BarrierWith(c, collectives.Config{}, nil); err != nil {
				return err
			}
		}
		return nil
	}, world)
	if err != nil {
		return 0, err
	}
	return total / time.Duration(count), nil
}

// microPartialLatency measures the average per-rank latency and mean NAP of a
// partial allreduce with linearly skewed entry times, and returns the engines'
// counters summed over the ranks.
func microPartialLatency(procs, elems, iterations int, skew imbalance.Injector, clock imbalance.Clock, opts partial.Options) (time.Duration, float64, partial.Stats, error) {
	world := transport.NewInprocWorld(procs)
	defer world[0].Close()
	reducers := make([]*partial.Allreducer, procs)
	for r := 0; r < procs; r++ {
		reducers[r] = partial.New(world[r], elems, opts)
	}
	defer func() {
		for _, a := range reducers {
			a.Close()
		}
	}()

	var mu sync.Mutex
	var total time.Duration
	var count int
	napByIter := make([]int, iterations)
	err := runRanks(procs, func(rank int, c *comm.Communicator) error {
		buf := tensor.NewVector(elems)
		for iter := 0; iter < iterations; iter++ {
			clock.Sleep(skew.Delay(iter, rank))
			buf.Fill(1)
			start := time.Now()
			sum, info, err := reducers[rank].Exchange(buf)
			if err != nil {
				return err
			}
			tensor.PutVector(sum) // lease consumed; recycle it
			elapsed := time.Since(start)
			mu.Lock()
			total += elapsed
			count++
			if info.ActiveProcesses > napByIter[iter] {
				napByIter[iter] = info.ActiveProcesses
			}
			mu.Unlock()
			if err := collectives.BarrierWith(c, collectives.Config{}, nil); err != nil {
				return err
			}
		}
		return nil
	}, world)
	if err != nil {
		return 0, 0, partial.Stats{}, err
	}
	napSum := 0
	for _, n := range napByIter {
		napSum += n
	}
	var stats partial.Stats
	for _, a := range reducers {
		st := a.Stats()
		stats.Rounds += st.Rounds
		stats.InternalActivations += st.InternalActivations
		stats.ExternalActivations += st.ExternalActivations
		stats.StaleActivations += st.StaleActivations
		stats.FailoverActivations += st.FailoverActivations
		stats.ExchangesIncluded += st.ExchangesIncluded
		stats.ExchangesStraggler += st.ExchangesStraggler
		stats.NullSnapshots += st.NullSnapshots
	}
	return total / time.Duration(count), float64(napSum) / float64(iterations), stats, nil
}

// runRanks runs body on every rank concurrently and returns the first error.
func runRanks(procs int, body func(rank int, c *comm.Communicator) error, world []*comm.Communicator) error {
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(r, world[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
