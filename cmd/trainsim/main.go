// Command trainsim runs the experiments of the paper's evaluation: the
// workload characterization of §2 (Figs. 2–4), the partial-allreduce
// microbenchmark of §6.1 (Figs. 8–9, id fig9), the end-to-end training runs of
// §6.2–§6.3 — Fig. 10 (hyperplane), Fig. 11 (ImageNet-like, light imbalance),
// Fig. 12 (CIFAR-like, severe imbalance), Fig. 13 (video LSTM, inherent
// imbalance) — Table 1, plus the scaling summary and the quorum spectrum
// ablation.
//
// Usage:
//
//	trainsim -experiment fig10          # one experiment at full scale
//	trainsim -experiment fig9 -quick    # the microbenchmark at test scale
//	trainsim -experiment all -quick     # every experiment at test scale
//	trainsim -list                      # list available experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"eagersgd/harness"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
	quick := flag.Bool("quick", false, "run at reduced test scale")
	clockScale := flag.Float64("clock-scale", 0, "override the delay clock scale (0 = per-experiment default)")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := harness.Config{Quick: *quick, ClockScale: *clockScale, Seed: *seed}
	var ids []string
	if *experiment == "all" {
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = []string{*experiment}
	}
	for _, id := range ids {
		report, err := harness.RunByID(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trainsim: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(report.Render())
	}
}
