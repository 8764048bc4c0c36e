// Command simsweep runs the deterministic 1000-rank policy sweep and writes
// NAP-vs-step-time curves as a JSON snapshot.
//
// It is the command-line face of internal/simnet/sweep: every {policy ×
// skew-distribution × world-size} cell is simulated in lockstep over
// identical seed-derived draws, so two invocations with the same flags
// produce byte-identical output — CI runs it twice and diffs the files as
// the determinism gate.
//
// Usage:
//
//	go run ./cmd/simsweep -seed 42 -ranks 1000 -out curves.json
//	go run ./cmd/simsweep -ranks 8,64,1000 -policies solo,majority,quorum -quorum 3
//	go run ./cmd/simsweep -skew 'constant:0;uniform:0,4ms;pareto:200us,1.2,500ms'
//	go run ./cmd/simsweep -crash 500@120,501@121,502@122   # cascading death at rank 500
//
// Skew specs are ';'-separated (each spec may itself contain commas); see
// simnet.ParseModel for the spec syntax.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"eagersgd/internal/faults"
	"eagersgd/internal/simnet"
	"eagersgd/internal/simnet/sweep"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 42, "root seed; every stream derives from it")
		ranksArg = flag.String("ranks", "1000", "comma-separated world sizes to sweep")
		steps    = flag.Int("steps", 200, "training steps simulated per cell")
		base     = flag.Duration("base", 2*time.Millisecond, "skew-free per-step compute time")
		skewArg  = flag.String("skew", "constant:0;uniform:0,4ms;pareto:200us,1.2,500ms", "';'-separated compute-skew model specs (see simnet.ParseModel)")
		linkArg  = flag.String("link", "uniform:50us,200us", "per-hop wire latency model spec")
		policies = flag.String("policies", "solo,majority,quorum", "comma-separated activation policies (solo, majority, quorum, sync)")
		quorumK  = flag.Int("quorum", 3, "candidate count for the quorum policy")
		crashArg = flag.String("crash", "", "scripted rank crashes, 'rank@step,rank@step,...'")
		deadline = flag.Duration("deadline", 50*time.Millisecond, "dead-initiator failover delay (mirrors partial.Options.PeerDeadline)")
		out      = flag.String("out", "", "output path (default stdout)")
	)
	flag.Parse()

	ranks, err := parseInts(*ranksArg)
	if err != nil {
		fatalf("bad -ranks: %v", err)
	}
	link, err := simnet.ParseModel(*linkArg)
	if err != nil {
		fatalf("bad -link: %v", err)
	}
	var skews []simnet.Model
	for _, spec := range strings.Split(*skewArg, ";") {
		m, err := simnet.ParseModel(spec)
		if err != nil {
			fatalf("bad -skew: %v", err)
		}
		skews = append(skews, m)
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
	command := fmt.Sprintf("simsweep -seed %d -ranks %s -steps %d -base %s -skew %q -link %q -policies %s -quorum %d -crash %q -deadline %s",
		*seed, *ranksArg, *steps, *base, *skewArg, *linkArg, *policies, *quorumK, *crashArg, *deadline)
	snap := sweep.NewSnapshot(*seed, command)

	for _, n := range ranks {
		for _, skew := range skews {
			curves, err := sweep.Run(sweep.Config{
				Seed:         *seed,
				Ranks:        n,
				Steps:        *steps,
				BaseCompute:  *base,
				Skew:         skew,
				Link:         link,
				Policies:     pols,
				Faults:       scenario,
				PeerDeadline: *deadline,
			})
			if err != nil {
				fatalf("sweep n=%d skew=%s: %v", n, skew, err)
			}
			for _, c := range curves {
				snap.Add(skew.String(), n, c)
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simsweep: "+format+"\n", args...)
	os.Exit(1)
}
