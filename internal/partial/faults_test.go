package partial_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/faults"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// faultyWorld builds p allreducers over an in-process transport wrapped by a
// fault injector.
func faultyWorld(t *testing.T, p, n int, sc faults.Scenario, opts partial.Options) (*faults.Injector, []*comm.Communicator, []*partial.Allreducer) {
	t.Helper()
	hub := transport.NewHub(p)
	inj := faults.NewInjector(p, sc)
	comms := make([]*comm.Communicator, p)
	ars := make([]*partial.Allreducer, p)
	for r := 0; r < p; r++ {
		comms[r] = comm.NewCommunicator(inj.Wrap(hub.Endpoint(r)))
		ars[r] = partial.New(comms[r], n, opts)
	}
	t.Cleanup(func() {
		for _, a := range ars {
			a.Close()
		}
		for _, c := range comms {
			c.Close()
		}
		for _, a := range ars {
			a.Join()
		}
		inj.Close()
	})
	return inj, comms, ars
}

// TestCrashedRankRoundsCompleteWithSurvivors drives solo exchanges through a
// scripted crash: survivors' rounds keep completing (liveness), and once the
// dead rank's last possible contribution is past, the per-round
// active-process count — the published flags — covers only the surviving
// participant set.
func TestCrashedRankRoundsCompleteWithSurvivors(t *testing.T) {
	const (
		p         = 4
		n         = 16
		steps     = 8
		crashRank = 3
		crashStep = 2
	)
	sc := faults.Scenario{Seed: 21, CrashAtStep: map[int]int{crashRank: crashStep}, SignalCrashes: true}
	inj, _, ars := faultyWorld(t, p, n, sc, partial.Options{Mode: partial.Solo, PeerDeadline: 2 * time.Second})

	type outcome struct {
		naps []int
		errs []error
	}
	outs := make([]outcome, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			grad := make(tensor.Vector, n)
			for s := 0; s < steps; s++ {
				grad.Fill(1)
				sum, info, err := ars[r].Exchange(grad)
				if err != nil {
					outs[r].errs = append(outs[r].errs, err)
					return
				}
				tensor.PutVector(sum)
				outs[r].naps = append(outs[r].naps, info.ActiveProcesses)
				inj.AdvanceStep(r)
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("exchanges hung after the scripted crash (liveness violated)")
	}

	for r := 0; r < p; r++ {
		if r == crashRank {
			if len(outs[r].naps) < crashStep {
				t.Errorf("crashed rank completed %d exchanges before its scripted crash at %d", len(outs[r].naps), crashStep)
			}
			continue
		}
		if len(outs[r].naps) != steps {
			t.Fatalf("survivor %d completed %d of %d exchanges (errs=%v)", r, len(outs[r].naps), steps, outs[r].errs)
		}
		// Flags match contributors: the dead rank's engine contributed its
		// last flag no later than its final exchange round, so later rounds'
		// NAP is bounded by the surviving set.
		final := outs[r].naps[steps-1]
		if final < 1 || final > p-1 {
			t.Errorf("survivor %d final-round NAP = %d, want within the surviving set [1,%d]", r, final, p-1)
		}
	}
}

// TestDeadDesignatedInitiatorFailsOver pins the Majority liveness hole: when
// the round's only designated initiator is dead, the surviving ranks'
// failure detector must activate the round after the deadline — the dead
// rank's activation flag resolves false — instead of waiting forever.
func TestDeadDesignatedInitiatorFailsOver(t *testing.T) {
	const (
		p = 4
		n = 8
	)
	// Find a seed/round whose designated initiator is the rank we crash.
	sc := faults.Scenario{Seed: 1}
	inj, _, ars := faultyWorld(t, p, n, sc, partial.Options{Mode: partial.Majority, Seed: 5, PeerDeadline: 300 * time.Millisecond})
	victim := ars[0].DesignatedInitiators(0)[0]
	inj.Crash(victim)

	var wg sync.WaitGroup
	naps := make([]int, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			grad := make(tensor.Vector, n)
			grad.Fill(1)
			sum, info, err := ars[r].Exchange(grad)
			if err != nil {
				errs[r] = err
				return
			}
			tensor.PutVector(sum)
			naps[r] = info.ActiveProcesses
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("round with dead designated initiator (rank %d) never completed", victim)
	}
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		if errs[r] != nil {
			t.Errorf("rank %d: %v", r, errs[r])
		}
		if naps[r] > p-1 {
			t.Errorf("rank %d observed NAP %d although the initiator was dead before the round", r, naps[r])
		}
	}
}

// TestPeerDeadlineZeroKeepsStrictSemantics guards the default: without a
// peer deadline the failure-tolerance machinery stays inert — designated
// initiators are never failed over, so a Majority round with an absent
// initiator blocks (until canceled) exactly as before.
func TestPeerDeadlineZeroKeepsStrictSemantics(t *testing.T) {
	const (
		p = 2
		n = 4
	)
	sc := faults.Scenario{Seed: 2}
	_, _, ars := faultyWorld(t, p, n, sc, partial.Options{Mode: partial.Majority, Seed: 3})
	victim := ars[0].DesignatedInitiators(0)[0]
	other := (victim + 1) % p

	done := make(chan error, 1)
	go func() {
		grad := make(tensor.Vector, n)
		sum, _, err := ars[other].Exchange(grad)
		if err == nil {
			tensor.PutVector(sum)
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("non-initiator's exchange completed (err=%v) although the initiator never arrived and no deadline was set", err)
	case <-time.After(300 * time.Millisecond):
		// Still blocked: strict semantics preserved. Cleanup closes the world
		// and unblocks the goroutine.
	}
}

// TestOnlyTheSilentRankIsSuspected is the regression test for the flat
// data-phase allowance: with one rank silent and nothing but the deadline to
// detect it (no crash signal; every link 10 ms slow, so arrival order is not
// left to the scheduler), a rank waiting on a live peer that is itself
// waiting out the silent one used to time out at the same instant and mark
// the live peer down. The allowance now grows with the hop, so only the
// silent rank may ever be suspected.
func TestOnlyTheSilentRankIsSuspected(t *testing.T) {
	const (
		n        = 4
		rounds   = 2
		deadline = 100 * time.Millisecond
	)
	slow := faults.LinkRule{DelayProb: 1, DelayMin: 10 * time.Millisecond, DelayMax: 10 * time.Millisecond}
	for _, p := range []int{3, 4} {
		for silent := 0; silent < p; silent++ {
			t.Run(fmt.Sprintf("P%d/silent%d", p, silent), func(t *testing.T) {
				t.Parallel()
				sc := faults.Scenario{Seed: 9, Default: slow}
				inj, comms, ars := faultyWorld(t, p, n, sc, partial.Options{Mode: partial.Solo, PeerDeadline: deadline})
				inj.Crash(silent)

				errs := make([]error, p)
				var wg sync.WaitGroup
				for r := 0; r < p; r++ {
					if r == silent {
						continue
					}
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						grad := make(tensor.Vector, n)
						for k := 0; k < rounds && errs[r] == nil; k++ {
							grad.Fill(1)
							var sum tensor.Vector
							if sum, _, errs[r] = ars[r].Exchange(grad); errs[r] == nil {
								tensor.PutVector(sum)
							}
						}
					}(r)
				}
				wg.Wait()

				detected := false
				for r := 0; r < p; r++ {
					if r == silent {
						continue
					}
					if errs[r] != nil {
						t.Errorf("rank %d: %v", r, errs[r])
					}
					detected = detected || comms[r].PeerError(silent) != nil
					for q := 0; q < p; q++ {
						if q != silent && comms[r].PeerError(q) != nil {
							t.Errorf("rank %d marked live rank %d down while rank %d was the silent one", r, q, silent)
						}
					}
				}
				if !detected {
					t.Errorf("no survivor marked the silent rank %d down", silent)
				}
			})
		}
	}
}
