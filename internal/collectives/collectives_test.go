package collectives_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// runSPMD runs body concurrently on every rank of a fresh in-process world
// and fails the test on error or timeout.
func runSPMD(t *testing.T, p int, body func(c *comm.Communicator) error) {
	t.Helper()
	world := transport.NewInprocWorld(p)
	defer world[0].Close()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(world[r])
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective did not complete (deadlock)")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// expectedSum computes the element-wise sum of the per-rank test vectors used
// by makeContribution.
func makeContribution(rank, n int) tensor.Vector {
	v := tensor.NewVector(n)
	for i := range v {
		v[i] = float64(rank+1) * float64(i+1)
	}
	return v
}

func expectedSum(p, n int) tensor.Vector {
	want := tensor.NewVector(n)
	for r := 0; r < p; r++ {
		want.Add(makeContribution(r, n))
	}
	return want
}

func testAllreduceCorrect(t *testing.T, algo collectives.Algorithm, sizes []int, lengths []int) {
	t.Helper()
	for _, p := range sizes {
		for _, n := range lengths {
			p, n := p, n
			t.Run(fmt.Sprintf("p%d_n%d", p, n), func(t *testing.T) {
				want := expectedSum(p, n)
				var mu sync.Mutex
				results := make(map[int]tensor.Vector)
				runSPMD(t, p, func(c *comm.Communicator) error {
					data := makeContribution(c.Rank(), n)
					if err := collectives.AllreduceWith(c, data, collectives.OpSum, algo, collectives.Config{}, nil); err != nil {
						return err
					}
					mu.Lock()
					results[c.Rank()] = data
					mu.Unlock()
					return nil
				})
				for r := 0; r < p; r++ {
					if !results[r].AllClose(want, 1e-9) {
						t.Fatalf("rank %d: wrong allreduce result", r)
					}
				}
			})
		}
	}
}

func TestAllreduceRecursiveDoubling(t *testing.T) {
	testAllreduceCorrect(t, collectives.AlgoRecursiveDoubling, []int{1, 2, 3, 4, 5, 6, 7, 8, 16}, []int{1, 7, 64})
}

func TestAllreduceRing(t *testing.T) {
	testAllreduceCorrect(t, collectives.AlgoRing, []int{1, 2, 3, 4, 5, 8}, []int{8, 65, 128})
}

func TestAllreduceRabenseifner(t *testing.T) {
	testAllreduceCorrect(t, collectives.AlgoRabenseifner, []int{1, 2, 3, 4, 5, 6, 8, 16}, []int{16, 63, 257})
}

// TestAllreduceAuto crosses every regime of Auto's choice: below four ranks,
// and recursive doubling, Rabenseifner and the ring by length above.
func TestAllreduceAuto(t *testing.T) {
	testAllreduceCorrect(t, collectives.AlgoAuto, []int{2, 3, 4, 5, 8}, []int{16, 8192, 40000})
}

func TestAllreduceRejectsNonSumOp(t *testing.T) {
	runSPMD(t, 1, func(c *comm.Communicator) error {
		err := collectives.AllreduceWith(c, tensor.Vector{1}, collectives.ReduceOp(1), collectives.AlgoAuto, collectives.Config{}, nil)
		if err == nil {
			return fmt.Errorf("expected error for a reduce op other than OpSum")
		}
		return nil
	})
}

func TestAllreduceUnknownAlgorithm(t *testing.T) {
	runSPMD(t, 1, func(c *comm.Communicator) error {
		err := collectives.AllreduceWith(c, tensor.Vector{1}, collectives.OpSum, collectives.Algorithm(42), collectives.Config{}, nil)
		if err == nil {
			return fmt.Errorf("expected error for unknown algorithm")
		}
		return nil
	})
}

// TestBarrierSynchronizes runs the dissemination barrier at power-of-two and
// other world sizes, where its last round wraps around the rank ring.
func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			before, after := make([]time.Time, p), make([]time.Time, p)
			runSPMD(t, p, func(c *comm.Communicator) error {
				// Stagger arrivals so the barrier has real work to do.
				time.Sleep(time.Duration(c.Rank()) * 5 * time.Millisecond)
				before[c.Rank()] = time.Now()
				if err := collectives.BarrierWith(c, collectives.Config{}, nil); err != nil {
					return err
				}
				after[c.Rank()] = time.Now()
				return nil
			})
			// No rank may leave the barrier before the last rank entered it.
			lastEnter := before[0]
			for _, b := range before {
				if b.After(lastEnter) {
					lastEnter = b
				}
			}
			for r, a := range after {
				if a.Before(lastEnter) {
					t.Fatalf("rank %d left the barrier %v before the last rank entered", r, lastEnter.Sub(a))
				}
			}
		})
	}
}

func TestConsecutiveAllreducesDoNotInterfere(t *testing.T) {
	const p = 4
	const rounds = 20
	var mu sync.Mutex
	results := make(map[int][]float64)
	runSPMD(t, p, func(c *comm.Communicator) error {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		var got []float64
		for round := 0; round < rounds; round++ {
			data := tensor.Vector{float64(round*10 + c.Rank())}
			// Random per-rank jitter so ranks enter successive collectives in
			// different orders.
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			if err := collectives.AllreduceWith(c, data, collectives.OpSum, collectives.AlgoRecursiveDoubling, collectives.Config{}, nil); err != nil {
				return err
			}
			got = append(got, data[0])
		}
		mu.Lock()
		results[c.Rank()] = got
		mu.Unlock()
		return nil
	})
	for round := 0; round < rounds; round++ {
		want := 0.0
		for r := 0; r < p; r++ {
			want += float64(round*10 + r)
		}
		for r := 0; r < p; r++ {
			if results[r][round] != want {
				t.Fatalf("round %d rank %d = %v, want %v (cross-round interference)", round, r, results[r][round], want)
			}
		}
	}
}

// Property: all three allreduce algorithms agree with a locally computed sum
// for random sizes and payloads.
func TestPropAllreduceAlgorithmsAgree(t *testing.T) {
	f := func(pRaw, nRaw uint8, seed int64) bool {
		p := int(pRaw%6) + 1
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		contribs := make([]tensor.Vector, p)
		want := tensor.NewVector(n)
		for r := 0; r < p; r++ {
			contribs[r] = tensor.NewVector(n)
			contribs[r].Randomize(rng, 10)
			want.Add(contribs[r])
		}
		for _, algo := range []collectives.Algorithm{collectives.AlgoRecursiveDoubling, collectives.AlgoRing, collectives.AlgoRabenseifner} {
			world := transport.NewInprocWorld(p)
			ok := true
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					data := contribs[r].Clone()
					if err := collectives.AllreduceWith(world[r], data, collectives.OpSum, algo, collectives.Config{}, nil); err != nil {
						ok = false
						return
					}
					if !data.AllClose(want, 1e-6) {
						ok = false
					}
				}(r)
			}
			wg.Wait()
			world[0].Close()
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// testRandomAllreduce runs one allreduce with the given algo/config on p ranks
// over random data and compares every rank's result against the locally
// computed sum.
func testRandomAllreduce(t *testing.T, p, n int, algo collectives.Algorithm, cfg collectives.Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(97*p + n)))
	contribs := make([]tensor.Vector, p)
	for r := range contribs {
		contribs[r] = tensor.NewVector(n)
		contribs[r].Randomize(rng, 10)
	}
	want := contribs[0].Clone()
	for r := 1; r < p; r++ {
		want.Add(contribs[r])
	}
	var mu sync.Mutex
	results := make(map[int]tensor.Vector)
	runSPMD(t, p, func(c *comm.Communicator) error {
		data := contribs[c.Rank()].Clone()
		if err := collectives.AllreduceWith(c, data, collectives.OpSum, algo, cfg, nil); err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = data
		mu.Unlock()
		return nil
	})
	for r := 0; r < p; r++ {
		if !results[r].AllClose(want, 1e-9) {
			t.Fatalf("rank %d: wrong sum (algo %v, cfg %+v)", r, algo, cfg)
		}
	}
}

// TestAllreduceSumAllAlgorithms covers every algorithm on power-of-two world
// sizes and on folded ones with one, two and three extra ranks, both
// unsegmented and with a tiny segment size that forces the pipelined
// multi-segment path.
func TestAllreduceSumAllAlgorithms(t *testing.T) {
	algos := []collectives.Algorithm{
		collectives.AlgoRecursiveDoubling,
		collectives.AlgoRing,
		collectives.AlgoRabenseifner,
		collectives.AlgoAuto,
	}
	for _, algo := range algos {
		for _, p := range []int{3, 4, 5, 6, 7, 8} {
			for _, cfg := range []collectives.Config{{}, {SegmentElems: 13}} {
				algo, p, cfg := algo, p, cfg
				name := fmt.Sprintf("%v/p%d/seg%d", algo, p, cfg.SegmentElems)
				t.Run(name, func(t *testing.T) {
					testRandomAllreduce(t, p, 257, algo, cfg)
				})
			}
		}
	}
}

// TestAllreduceSegmentSizes drives the pipelined ring and Rabenseifner
// through a spread of segment sizes — including sizes that do not divide the
// chunk evenly and the segmentation-disabled setting — and checks the results
// agree with the unsegmented run bit-for-bit (segmentation must not change
// the reduction order).
func TestAllreduceSegmentSizes(t *testing.T) {
	const p, n = 4, 1 << 12
	for _, algo := range []collectives.Algorithm{collectives.AlgoRing, collectives.AlgoRabenseifner} {
		algo := algo
		t.Run(fmt.Sprint(algo), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			contribs := make([]tensor.Vector, p)
			for r := range contribs {
				contribs[r] = tensor.NewVector(n)
				contribs[r].Randomize(rng, 1)
			}
			run := func(seg int) map[int]tensor.Vector {
				var mu sync.Mutex
				results := make(map[int]tensor.Vector)
				runSPMD(t, p, func(c *comm.Communicator) error {
					data := contribs[c.Rank()].Clone()
					err := collectives.AllreduceWith(c, data, collectives.OpSum, algo, collectives.Config{SegmentElems: seg}, nil)
					if err != nil {
						return err
					}
					mu.Lock()
					results[c.Rank()] = data
					mu.Unlock()
					return nil
				})
				return results
			}
			baseline := run(-1) // segmentation disabled
			for _, seg := range []int{7, 64, 100, 1024, n} {
				got := run(seg)
				for r := 0; r < p; r++ {
					if !got[r].Equal(baseline[r]) {
						t.Fatalf("seg=%d rank %d: segmented result differs from unsegmented", seg, r)
					}
				}
			}
		})
	}
}

// TestSegmentedAllreduceLargeVectors exercises the default segmentation on
// vectors big enough to pipeline for real (several segments per exchange).
func TestSegmentedAllreduceLargeVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("large-vector allreduce in -short mode")
	}
	const p = 4
	n := 3*collectives.DefaultSegmentElems + 1017
	for _, algo := range []collectives.Algorithm{collectives.AlgoRing, collectives.AlgoRabenseifner, collectives.AlgoAuto} {
		testRandomAllreduce(t, p, n, algo, collectives.Config{})
	}
}
