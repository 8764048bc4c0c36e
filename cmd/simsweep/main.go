// Command simsweep runs the deterministic 1000-rank policy sweep and writes
// NAP-vs-step-time curves as a JSON snapshot.
//
// It is the command-line face of internal/sweep: every {policy × injector ×
// world-size} cell is simulated in lockstep over the same per-(step, rank)
// delays, so two invocations with the same flags produce byte-identical
// output — CI runs it twice and diffs the files as the determinism gate.
//
// Usage:
//
//	go run ./cmd/simsweep -seed 42 -ranks 1000 -out curves.json
//	go run ./cmd/simsweep -ranks 8,64,1000 -policies solo,majority,quorum -quorum 3
//	go run ./cmd/simsweep -ranks 8,64 -skew 'none;shifted:50,400;random:4,300'
//	go run ./cmd/simsweep -crash 500@120,501@121,502@122   # cascading death at rank 500
//
// Skew specs are ';'-separated and name the training stack's imbalance
// injectors, with amounts in paper milliseconds read as virtual milliseconds:
//
//	none             no delay
//	random:K,MS      K random ranks per step delayed MS (Figs. 10/11)
//	linear:MS        rank r delayed (r+1)*MS (Fig. 9)
//	shifted:MIN,MAX  every rank delayed MIN..MAX, rotated each step (Fig. 12)
//	cloud:K          K random ranks per step get the Fig. 4 cloud noise tail
//
// The random kinds draw from -seed, which also seeds initiator selection.
// The default load is Fig. 11's at 1000 ranks: a 640 ms base step with 62 of
// 1000 ranks (Fig. 11's 4 of 64) delayed 300 or 460 ms. The cloud noise tail
// is calibrated for the 400 ms floor of Fig. 4, so run it with -base 400ms.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"eagersgd/internal/faults"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/sweep"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 42, "seed of initiator selection and of the random skew kinds")
		ranksArg = flag.String("ranks", "1000", "comma-separated world sizes to sweep")
		steps    = flag.Int("steps", 200, "training steps simulated per cell")
		base     = flag.Duration("base", 640*time.Millisecond, "skew-free per-step compute time (default: Fig. 11's base step)")
		skewArg  = flag.String("skew", "none;random:62,300;random:62,460", "';'-separated imbalance injector specs (none, random:K,MS, linear:MS, shifted:MIN,MAX, cloud:K); the default is Fig. 11's 4-of-64 share at 1000 ranks")
		hop      = flag.Duration("hop", 125*time.Microsecond, "per-hop wire latency of the collective")
		policies = flag.String("policies", "solo,majority,quorum", "comma-separated activation policies (solo, majority, quorum, sync)")
		quorumK  = flag.Int("quorum", 3, "candidate count for the quorum policy")
		crashArg = flag.String("crash", "", "scripted rank crashes, 'rank@step,rank@step,...'")
		deadline = flag.Duration("deadline", 50*time.Millisecond, "peer deadline (partial.Options.PeerDeadline): a rank unactivated this long after it arrives marks the round's crashed candidates down and fails over if none is left")
		out      = flag.String("out", "", "output path (default stdout)")
	)
	flag.Parse()

	ranks, err := parseInts(*ranksArg)
	if err != nil {
		fatalf("bad -ranks: %v", err)
	}
	specs := strings.Split(*skewArg, ";")
	for _, spec := range specs {
		if _, err := parseSkew(spec, int64(*seed), 1); err != nil {
			fatalf("bad -skew: %v", err)
		}
	}
	var pols []sweep.Policy
	for _, name := range strings.Split(*policies, ",") {
		switch name = strings.TrimSpace(name); name {
		case "solo", "majority", "sync":
			pols = append(pols, sweep.Policy{Name: name, Mode: name})
		case "quorum":
			pols = append(pols, sweep.Policy{Name: fmt.Sprintf("quorum%d", *quorumK), Mode: "quorum", K: *quorumK})
		default:
			fatalf("bad -policies: unknown policy %q", name)
		}
	}
	var scenario *faults.Scenario
	if *crashArg != "" {
		crash := map[int]int{}
		for _, spec := range strings.Split(*crashArg, ",") {
			rankStr, stepStr, ok := strings.Cut(strings.TrimSpace(spec), "@")
			if !ok {
				fatalf("bad -crash entry %q: want rank@step", spec)
			}
			r, err1 := strconv.Atoi(rankStr)
			s, err2 := strconv.Atoi(stepStr)
			if err1 != nil || err2 != nil || r < 0 || s < 0 {
				fatalf("bad -crash entry %q: want rank@step with non-negative integers", spec)
			}
			crash[r] = s
		}
		scenario = &faults.Scenario{Name: "simsweep-crash", CrashAtStep: crash}
	}

	// The command line is reconstructed from the parsed values (not os.Args)
	// so the snapshot's command field is canonical and deterministic.
	command := fmt.Sprintf("simsweep -seed %d -ranks %s -steps %d -base %s -skew %q -hop %s -policies %s -quorum %d -crash %q -deadline %s",
		*seed, *ranksArg, *steps, *base, *skewArg, *hop, *policies, *quorumK, *crashArg, *deadline)
	snap := sweep.NewSnapshot(*seed, command)

	for _, n := range ranks {
		for _, spec := range specs {
			label := strings.TrimSpace(spec)
			skew, _ := parseSkew(spec, int64(*seed), n) // validated above
			curves, err := sweep.Run(sweep.Config{
				Seed:         *seed,
				Ranks:        n,
				Steps:        *steps,
				BaseCompute:  *base,
				Skew:         skew,
				Hop:          *hop,
				Policies:     pols,
				Faults:       scenario,
				PeerDeadline: *deadline,
			})
			if err != nil {
				fatalf("sweep n=%d skew=%s: %v", n, label, err)
			}
			for _, c := range curves {
				snap.Add(label, n, c)
			}
		}
	}

	doc, err := snap.Marshal()
	if err != nil {
		fatalf("marshal: %v", err)
	}
	if *out == "" {
		os.Stdout.Write(doc)
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("simsweep: wrote %d curves to %s\n", len(snap.Benchmarks), *out)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad world size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseSkew reads one -skew spec into its injector for a world of the given
// size; seed seeds the random kinds.
func parseSkew(spec string, seed int64, size int) (imbalance.Injector, error) {
	kind, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	var args []float64
	if rest != "" {
		for _, a := range strings.Split(rest, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
			if err != nil || !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("skew %q: argument %q is not a non-negative number", spec, a)
			}
			args = append(args, v)
		}
	}
	arity, ok := map[string]int{"none": 0, "random": 2, "linear": 1, "shifted": 2, "cloud": 1}[kind]
	if !ok {
		return nil, fmt.Errorf("skew %q: unknown kind %q (want none, random, linear, shifted or cloud)", spec, kind)
	}
	if len(args) != arity {
		return nil, fmt.Errorf("skew %q: %s wants %d arguments, got %d", spec, kind, arity, len(args))
	}
	if (kind == "random" || kind == "cloud") && args[0] != math.Trunc(args[0]) {
		return nil, fmt.Errorf("skew %q: rank count %g is not an integer", spec, args[0])
	}
	switch kind {
	case "random":
		return imbalance.RandomSubset{Size: size, K: int(args[0]), Amount: args[1], Seed: seed}, nil
	case "linear":
		return imbalance.LinearSkew{StepMs: args[0]}, nil
	case "shifted":
		if args[1] < args[0] {
			return nil, fmt.Errorf("skew %q: max %g is below min %g", spec, args[1], args[0])
		}
		return imbalance.ShiftedSevere{Size: size, MinMs: args[0], MaxMs: args[1]}, nil
	case "cloud":
		return imbalance.CloudNoise{Size: size, K: int(args[0]), Seed: seed}, nil
	}
	return imbalance.None{}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simsweep: "+format+"\n", args...)
	os.Exit(1)
}
