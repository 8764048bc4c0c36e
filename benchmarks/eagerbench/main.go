// Command eagerbench is the repository's acceptance benchmark: eager-SGD
// (solo, majority) against synchronous SGD on four workloads, end to end
// through core.Run with the wiring train.Run uses, and in a separate traced
// pass priced layer by layer. See ../README.md.
//
// The driver's contract is one workload per invocation:
//
//	eagerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	var o options
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of dataset generation, batch sampling, the injector schedule and initiator selection")
	flag.Float64Var(&o.seconds, "seconds", 28, "how long one workload measures: warm-up and timed repetitions")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "one repetition at 5% of the steps, convergence checks off: a smoke run")
	flag.BoolVar(&o.verbose, "v", false, "print every run and its evaluation curve to standard error")
	flag.StringVar(&o.outDir, "out", ".bench_build/out", "directory the traced pass writes its Chrome trace-event JSON to")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and fail on any end-to-end metric whose two medians differ by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}

	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eagerbench:", err)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	fmt.Printf("# eagerbench seed=%d seconds=%g quick=%v gomaxprocs=%d numcpu=%d %s/%s %s\n",
		o.seed, o.seconds, o.quick, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())

	if *selfcheck {
		if err := runSelfcheck(selected, o); err != nil {
			fmt.Fprintln(os.Stderr, "eagerbench: selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	for _, w := range selected {
		var rep *report
		if *traced == 1 {
			rep = w.perLayer(o)
		} else {
			rep = w.endToEnd(o)
		}
		printReport(rep)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints the metrics as a table, then what failed, then the
// result line.
func printReport(rep *report) {
	fmt.Printf("## %s\n", rep.workload)
	fmt.Printf("%-34s %-8s %14s %14s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "q1", "q3", "max", "n")
	out := result{Correct: rep.correct(), Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]resultValue{}}
	for _, m := range rep.metrics {
		if m.sum.n > 0 {
			fmt.Printf("%-34s %-8s %14.6g %14.6g %14.6g %14.6g %14.6g %3d\n", m.name, m.unit, m.value, m.sum.min, m.sum.q1, m.sum.q3, m.sum.max, m.sum.n)
		} else {
			fmt.Printf("%-34s %-8s %14.6g\n", m.name, m.unit, m.value)
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN. A metric without a value means a run failed
			// (the problems say which) or, under -quick, never converged.
			v = 0
		}
		out.Metrics[m.name] = resultValue{Value: v, Unit: m.unit}
	}
	for _, p := range rep.problems {
		fmt.Printf("PROBLEM %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eagerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// specPath is where -selfcheck finds the bounds, relative to the checkout root
// run.sh runs the program from.
const specPath = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json -selfcheck needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck measures every selected workload twice, the second pass after
// the whole first, and names each (workload, metric) whose two medians are
// further apart than the metric's bound: the benchmark disagreeing with
// itself on unchanged code.
func runSelfcheck(selected []*workload, o options) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var passes [2][]*report
	for pass := range passes {
		for _, w := range selected {
			rep := w.endToEnd(o)
			printReport(rep)
			if !rep.correct() {
				return fmt.Errorf("%s: pass %d is not correct", w.name, pass+1)
			}
			passes[pass] = append(passes[pass], rep)
		}
	}
	var apart []string
	for i, first := range passes[0] {
		second := passes[1][i]
		for _, m := range spec.EndToEnd {
			a, b := first.value(m.Name), second.value(m.Name)
			if d := math.Abs(a-b) / a; !(d <= m.Bound) {
				apart = append(apart, fmt.Sprintf("%s/%s: %.6g then %.6g, %.1f%% apart, bound %.1f%%", first.workload, m.Name, a, b, 100*d, 100*m.Bound))
			}
		}
	}
	if len(apart) > 0 {
		return fmt.Errorf("%d pairs outside their bound:\n  %s", len(apart), strings.Join(apart, "\n  "))
	}
	fmt.Println("selfcheck: every pair within its bound")
	return nil
}
