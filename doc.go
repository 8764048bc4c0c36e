// Package eagersgd is a from-scratch Go reproduction of "Taming Unbalanced
// Training Workloads in Deep Learning with Partial Collective Operations"
// (Li et al., PPoPP 2020): partial collective operations (solo, majority and
// quorum allreduce) run by one persistent engine per rank, the eager-SGD
// distributed training algorithm that uses them, the synchronous SGD
// baselines it is compared against, and a benchmark harness that regenerates
// every figure and table of the paper's evaluation.
//
// The public surface is organized in four packages; this root package
// re-exports the collective essentials so small programs need one import:
//
//   - eagersgd/collective — the Reducer seam (Sync, Solo, Majority,
//     Quorum(k)) and the World builder over the Inproc, TCP, or Shm
//     transports.
//   - eagersgd/tensor — the Vector and Matrix containers gradients travel in.
//   - eagersgd/train — declarative training runs comparing synch-SGD and
//     eager-SGD variants on the built-in stand-in workloads.
//   - eagersgd/harness — the paper's experiments (fig2 … fig13, table1,
//     scaling, quorum), each returning a rendered Report.
//
// A minimal partial-allreduce job:
//
//	w, _ := eagersgd.NewWorld(4, eagersgd.WithMode(eagersgd.Solo))
//	defer w.Close()
//	// on each rank r's goroutine:
//	red, _ := w.Node(r).Reducer(dim)
//	res, _ := red.Reduce(ctx, grad) // never waits for stragglers
//
// The engines live under internal/ (see DESIGN.md for the system inventory);
// runnable entry points are the binaries under cmd/ (trainsim runs every
// harness experiment by id), the examples under examples/, and the benchmarks
// in bench_test.go.
package eagersgd
