// Package bench hosts the message-substrate microbenchmark suite: one
// allreduce benchmark per {algorithm × vector size × transport} cell plus a
// partial-allreduce round benchmark. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/bench
//
// to regenerate the numbers quoted in README.md. The package also holds the
// gates that need a wall clock or an allocation count: the steady-state
// alloc-free tests, the oversubscription ratio test, and
// BenchmarkTransportFloors, CI's blocking shm/tcp and shm/inproc floors.
// Changes are accepted on the acceptance benchmark under benchmarks/, not on
// these numbers.
//
// Every benchmark drives persistent per-rank worker goroutines through
// start/done channels, so one benchmark iteration measures exactly one
// steady-state collective round with no per-iteration goroutine-spawn noise.
package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"eagersgd/collective"
	"eagersgd/internal/collectives"
	"eagersgd/internal/comm"
	"eagersgd/internal/partial"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// benchRanks is the world size used by every benchmark: small enough that
// scheduling noise stays low, large enough that every algorithm takes multiple
// hops (and, at 4 ranks, recursive doubling and Rabenseifner exercise their
// power-of-two fast paths while ring takes 2(P-1) steps).
const benchRanks = 4

// nextTCPPort hands out non-overlapping loopback port ranges to the TCP
// benchmarks so repeated runs (-count, -benchtime) never collide.
var nextTCPPort atomic.Int64

func init() { nextTCPPort.Store(27100) }

// worldFactory builds a communicator world and returns it with its cleanup;
// kind is the same transport for benchmarks that build a collective.World.
type worldFactory struct {
	name string
	kind collective.Transport
	make func(b *testing.B, size int) ([]*comm.Communicator, func())
}

// takeTCPPorts reserves size consecutive loopback ports.
func takeTCPPorts(size int) int { return int(nextTCPPort.Add(int64(size))) - size }

func transports() []worldFactory {
	return []worldFactory{
		{name: "inproc", kind: collective.Inproc, make: func(b *testing.B, size int) ([]*comm.Communicator, func()) {
			w := transport.NewInprocWorld(size)
			return w, func() { w[0].Close() }
		}},
		{name: "tcp", kind: collective.TCP, make: func(b *testing.B, size int) ([]*comm.Communicator, func()) {
			w, err := transport.NewTCPWorld(size, takeTCPPorts(size))
			if err != nil {
				b.Skipf("TCP unavailable in this environment: %v", err)
			}
			return w, func() {
				for _, c := range w {
					c.Close()
				}
			}
		}},
		{name: "shm", kind: collective.Shm, make: func(b *testing.B, size int) ([]*comm.Communicator, func()) {
			w := transport.NewShmWorld(size)
			return w, func() {
				for _, c := range w {
					c.Close()
				}
			}
		}},
	}
}

// runRounds drives one round per benchmark iteration: every rank runs body
// concurrently, and the iteration completes when all ranks have finished.
func runRounds(b *testing.B, size int, body func(rank int) error) {
	b.Helper()
	start := make([]chan struct{}, size)
	done := make(chan error, size)
	for r := 0; r < size; r++ {
		start[r] = make(chan struct{})
		go func(r int) {
			for range start[r] {
				done <- body(r)
			}
		}(r)
	}
	defer func() {
		for r := 0; r < size; r++ {
			close(start[r])
		}
	}()

	// Warm the pools, the unexpected-queue capacities, and the TCP write
	// buffers before measuring.
	for i := 0; i < 3; i++ {
		for r := 0; r < size; r++ {
			start[r] <- struct{}{}
		}
		for r := 0; r < size; r++ {
			if err := <-done; err != nil {
				b.Fatalf("warmup round: %v", err)
			}
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < size; r++ {
			start[r] <- struct{}{}
		}
		for r := 0; r < size; r++ {
			if err := <-done; err != nil {
				b.Fatalf("round: %v", err)
			}
		}
	}
	b.StopTimer()
}

var allreduceAlgos = []struct {
	name string
	algo collectives.Algorithm
}{
	{"recursive-doubling", collectives.AlgoRecursiveDoubling},
	{"ring", collectives.AlgoRing},
	{"rabenseifner", collectives.AlgoRabenseifner},
}

var benchSizes = []int{1 << 10, 1 << 16, 1 << 20}

// BenchmarkAllreduce measures one synchronous allreduce round across all
// ranks, for every {transport × algorithm × vector size} combination.
func BenchmarkAllreduce(b *testing.B) {
	for _, tr := range transports() {
		tr := tr
		b.Run(tr.name, func(b *testing.B) {
			for _, ac := range allreduceAlgos {
				ac := ac
				b.Run(ac.name, func(b *testing.B) {
					for _, n := range benchSizes {
						n := n
						b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
							w, cleanup := tr.make(b, benchRanks)
							defer cleanup()
							data := make([]tensor.Vector, benchRanks)
							for r := range data {
								data[r] = tensor.NewVector(n)
								data[r].Fill(float64(r + 1))
							}
							b.SetBytes(int64(8 * n))
							runRounds(b, benchRanks, func(rank int) error {
								return collectives.AllreduceWith(w[rank], data[rank], collectives.OpSum, ac.algo, collectives.Config{}, nil)
							})
						})
					}
				})
			}
		})
	}
}

// BenchmarkAllreduceSegment sweeps the pipeline segment size for the ring
// allreduce at a fixed large payload, on both transports. seg=-1 disables
// segmentation (the pre-pipelining behaviour) and is the baseline the other
// cells are read against.
func BenchmarkAllreduceSegment(b *testing.B) {
	const n = 1 << 18
	segs := []int{-1, 4096, 16384, 65536}
	for _, tr := range transports() {
		tr := tr
		b.Run(tr.name, func(b *testing.B) {
			for _, seg := range segs {
				seg := seg
				b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
					w, cleanup := tr.make(b, benchRanks)
					defer cleanup()
					cfg := collectives.Config{SegmentElems: seg}
					data := make([]tensor.Vector, benchRanks)
					for r := range data {
						data[r] = tensor.NewVector(n)
						data[r].Fill(float64(r + 1))
					}
					b.SetBytes(int64(8 * n))
					runRounds(b, benchRanks, func(rank int) error {
						return collectives.AllreduceWith(w[rank], data[rank], collectives.OpSum, collectives.AlgoRing, cfg, nil)
					})
				})
			}
		})
	}
}

// BenchmarkReduceKernels measures the tuned reduction kernels against the
// naive scalar loops they replaced, at a small size (unrolled path) and a
// large one (parallel-eligible when more than one processor is available).
func BenchmarkReduceKernels(b *testing.B) {
	// Every kernel reads src; add_into, the three-address sum the fused ring
	// computes into its outgoing frame, also reads a and writes dst without
	// reading it.
	type kernel func(dst, a, src tensor.Vector)
	naive := map[string]kernel{
		"sum": func(dst, _, src tensor.Vector) {
			for i, x := range src {
				dst[i] += x
			}
		},
		"add_into": func(dst, a, src tensor.Vector) {
			for i, x := range src {
				dst[i] = a[i] + x
			}
		},
		"axpy": func(dst, _, src tensor.Vector) {
			for i, x := range src {
				dst[i] += 0.5 * x
			}
		},
	}
	tuned := map[string]kernel{
		"sum":      func(dst, _, src tensor.Vector) { tensor.AddVec(dst, src) },
		"add_into": func(dst, a, src tensor.Vector) { tensor.AddInto(dst, a, src) },
		"axpy":     func(dst, _, src tensor.Vector) { tensor.AxpyVec(dst, 0.5, src) },
	}
	for _, op := range []string{"sum", "add_into", "axpy"} {
		op := op
		b.Run(op, func(b *testing.B) {
			for _, n := range []int{1 << 12, 1 << 18} {
				n := n
				for _, impl := range []string{"naive", "kernel"} {
					impl := impl
					b.Run(fmt.Sprintf("%s/n=%d", impl, n), func(b *testing.B) {
						dst := tensor.NewVector(n)
						a := tensor.NewVector(n)
						src := tensor.NewVector(n)
						for i := range src {
							a[i] = float64(i % 89)
							src[i] = float64(i % 97)
						}
						fn := naive[op]
						if impl == "kernel" {
							fn = tuned[op]
						}
						// Two streams: a read and a read-modify-write, or for
						// add_into two reads and a write.
						streams := 2
						if op == "add_into" {
							streams = 3
						}
						b.SetBytes(int64(8 * streams * n))
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							fn(dst, a, src)
						}
					})
				}
			}
		})
	}
}

// BenchmarkPartialRound measures one eager (solo partial-allreduce) round:
// every rank contributes a gradient via Exchange once per iteration.
func BenchmarkPartialRound(b *testing.B) {
	for _, n := range benchSizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := transport.NewInprocWorld(benchRanks)
			defer w[0].Close()
			ars := make([]*partial.Allreducer, benchRanks)
			for r := range ars {
				ars[r] = partial.New(w[r], n, partial.Options{Mode: partial.Solo, Seed: 7})
			}
			grads := make([]tensor.Vector, benchRanks)
			for r := range grads {
				grads[r] = tensor.NewVector(n)
				grads[r].Fill(1)
			}
			b.SetBytes(int64(8 * n))
			runRounds(b, benchRanks, func(rank int) error {
				sum, _, err := ars[rank].Exchange(grads[rank])
				if err == nil {
					tensor.PutVector(sum) // recycle the pool-leased result
				}
				return err
			})
		})
	}
}
