package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"eagersgd/internal/faults"
	"eagersgd/internal/imbalance"
	"eagersgd/internal/partial"
)

func basePolicies() []Policy {
	return []Policy{
		{Name: "sync", Mode: "sync"},
		{Name: "solo", Mode: "solo"},
		{Name: "majority", Mode: "majority"},
		{Name: "quorum3", Mode: "quorum", K: 3},
	}
}

// severeConfig runs Fig. 12's shifted severe skew, scaled to the 2 ms base
// step: every rank is delayed 0.2–8 ms, the assignment rotating each step.
func severeConfig(seed uint64, ranks, steps int) Config {
	return Config{
		Seed:        seed,
		Ranks:       ranks,
		Steps:       steps,
		BaseCompute: 2 * time.Millisecond,
		Skew:        imbalance.ShiftedSevere{Size: ranks, MinMs: 0.2, MaxMs: 8},
		Hop:         125 * time.Microsecond,
		Policies:    basePolicies(),
	}
}

// TestSweepBitIdentical runs the same sweep twice and requires the
// marshalled snapshots to be byte-identical — the determinism contract CI
// gates on — at 1000 ranks under the shifted skew and under the seeded
// cloud noise tail.
func TestSweepBitIdentical(t *testing.T) {
	cloud := severeConfig(42, 1000, 100)
	cloud.Skew = imbalance.CloudNoise{Size: 1000, K: 62, Seed: 42}
	for _, cfg := range []Config{severeConfig(42, 1000, 100), cloud} {
		render := func() []byte {
			curves, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			snap := NewSnapshot(cfg.Seed, "test")
			for _, c := range curves {
				snap.Add(cfg.Skew.Name(), cfg.Ranks, c)
			}
			doc, err := snap.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			return doc
		}
		if a, b := render(), render(); !bytes.Equal(a, b) {
			t.Fatalf("%s: two identical sweeps produced different snapshots", cfg.Skew.Name())
		}
	}
}

// TestSweepPolicyOrdering pins the paper's qualitative claims at 1000 ranks
// under severe skew:
//
//   - step time: solo ≤ quorum(k) ≤ majority ≤ sync per construction (the
//     quorum's candidate 0 IS the majority initiator, and sync waits for
//     everyone), so the means must order the same way;
//   - NAP: sync is always full participation, and solo activates on the
//     fastest rank so its mean NAP must be below majority's.
func TestSweepPolicyOrdering(t *testing.T) {
	curves, err := Run(severeConfig(7, 1000, 200))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byName := map[string]Curve{}
	for _, c := range curves {
		byName[c.Policy.Name] = c
	}
	sync, solo, maj, quo := byName["sync"], byName["solo"], byName["majority"], byName["quorum3"]
	if !(solo.MeanStepNs <= quo.MeanStepNs && quo.MeanStepNs <= maj.MeanStepNs && maj.MeanStepNs <= sync.MeanStepNs) {
		t.Fatalf("step-time ordering violated: solo=%.0f quorum=%.0f majority=%.0f sync=%.0f",
			solo.MeanStepNs, quo.MeanStepNs, maj.MeanStepNs, sync.MeanStepNs)
	}
	if sync.MinNAP != 1000 || sync.MaxNAP != 1000 {
		t.Fatalf("sync NAP must be full participation, got [%d,%d]", sync.MinNAP, sync.MaxNAP)
	}
	if solo.MeanNAP >= maj.MeanNAP {
		t.Fatalf("solo mean NAP %.1f should be below majority's %.1f", solo.MeanNAP, maj.MeanNAP)
	}
	if solo.MinNAP < 1 {
		t.Fatalf("NAP below 1 (%d): the initiator always participates", solo.MinNAP)
	}
}

// TestSweepCascadingCrash schedules the cascading-crash chaos scenario at
// simulation scale: a cascade of rank deaths starting at rank 500 of a
// 1000-rank world. The sweep must keep producing rounds with the survivor set
// and report the reduced participation.
func TestSweepCascadingCrash(t *testing.T) {
	crash := map[int]int{}
	for i := 0; i < 50; i++ {
		crash[500+i] = 100 + i // one more rank dies each step
	}
	cfg := severeConfig(11, 1000, 300)
	cfg.Faults = &faults.Scenario{Name: "cascade-at-500", CrashAtStep: crash}
	curves, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, c := range curves {
		if c.Steps != 300 {
			t.Fatalf("%s: completed %d/300 steps", c.Policy.Name, c.Steps)
		}
		if c.Survivors != 950 {
			t.Fatalf("%s: survivors = %d, want 950", c.Policy.Name, c.Survivors)
		}
		if c.Policy.Mode == "sync" && c.MinNAP != 950 {
			t.Fatalf("sync min NAP = %d, want 950 after the cascade", c.MinNAP)
		}
		if c.MaxNAP > 1000 {
			t.Fatalf("%s: NAP %d exceeds world size", c.Policy.Name, c.MaxNAP)
		}
	}
}

// TestSweepAllCrashedStopsEarly kills the whole world mid-sweep; the curves
// must truncate instead of dividing by zero.
func TestSweepAllCrashedStopsEarly(t *testing.T) {
	crash := map[int]int{}
	for r := 0; r < 8; r++ {
		crash[r] = 10
	}
	cfg := severeConfig(3, 8, 50)
	cfg.Skew = imbalance.RandomSubset{Size: 8, K: 2, Amount: 4, Seed: 3}
	cfg.Faults = &faults.Scenario{CrashAtStep: crash}
	curves, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, c := range curves {
		if c.Steps != 10 {
			t.Fatalf("%s: simulated %d steps after total death at step 10", c.Policy.Name, c.Steps)
		}
		if c.Survivors != 0 {
			t.Fatalf("%s: survivors = %d, want 0", c.Policy.Name, c.Survivors)
		}
	}
}

// TestSweepDeadInitiatorFailover kills rank communities until every majority
// initiator of a round can be dead, and checks the failover path (fastest
// live rank + PeerDeadline) keeps rounds finite rather than hanging at
// math.MaxInt64.
func TestSweepDeadInitiatorFailover(t *testing.T) {
	// Kill 3 of 4 ranks: many rounds will designate a dead initiator.
	crash := map[int]int{1: 0, 2: 0, 3: 0}
	cfg := Config{
		Seed:         5,
		Ranks:        4,
		Steps:        40,
		BaseCompute:  time.Millisecond,
		Policies:     []Policy{{Name: "majority", Mode: "majority"}, {Name: "quorum2", Mode: "quorum", K: 2}},
		Faults:       &faults.Scenario{CrashAtStep: crash},
		PeerDeadline: 10 * time.Millisecond,
	}
	curves, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, c := range curves {
		if c.Steps != 40 {
			t.Fatalf("%s: completed %d/40 steps", c.Policy.Name, c.Steps)
		}
		if c.Survivors != 1 {
			t.Fatalf("%s: survivors = %d, want 1", c.Policy.Name, c.Survivors)
		}
		// With one live rank every completed round has NAP 1.
		if c.MinNAP != 1 || c.MaxNAP != 1 {
			t.Fatalf("%s: NAP range [%d,%d], want [1,1]", c.Policy.Name, c.MinNAP, c.MaxNAP)
		}
		// Failover rounds cost at most base + skew + deadline + wire; mean
		// step time must stay in that ballpark, not blow up.
		if c.MeanStepNs > float64(40*time.Millisecond) {
			t.Fatalf("%s: mean step %.0fns suggests failover did not bound the round", c.Policy.Name, c.MeanStepNs)
		}
	}
}

// coordinatedStall is 9 fast steps then one 80 ms stall, on every rank at
// once: the coordinated-slowdown chaos scenario.
type coordinatedStall struct{}

func (coordinatedStall) Name() string { return "coordinated-stall" }

func (coordinatedStall) Delay(step, _ int) float64 {
	if step%10 == 9 {
		return 80
	}
	return 0.1
}

// TestSweepCoordinatedStragglers replays a stall every rank hits in the same
// rounds: nobody is fast, so the stall shows in both sync's and solo's p99
// while both medians stay on the fast path, and sync keeps full
// participation.
func TestSweepCoordinatedStragglers(t *testing.T) {
	cfg := Config{
		Seed:        13,
		Ranks:       64,
		Steps:       100,
		BaseCompute: time.Millisecond,
		Skew:        coordinatedStall{},
		Policies:    []Policy{{Name: "sync", Mode: "sync"}, {Name: "solo", Mode: "solo"}},
	}
	curves, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, c := range curves {
		if c.P99StepNs < int64(80*time.Millisecond) {
			t.Fatalf("%s: p99 %dns misses the coordinated 80ms stall", c.Policy.Name, c.P99StepNs)
		}
		if c.P50StepNs > int64(5*time.Millisecond) {
			t.Fatalf("%s: p50 %dns should reflect the fast rounds", c.Policy.Name, c.P50StepNs)
		}
		if c.MinNAP != 64 && c.Policy.Mode == "sync" {
			t.Fatalf("sync NAP %d under coordinated stall, want 64", c.MinNAP)
		}
	}
}

// TestSweepActivatesPartialInitiator checks the sweep's half of the
// model/engine agreement (internal/partial pins the other): in one step of
// linear skew rank r arrives (r+1) ms late, so the majority round activates
// at partial.Initiator's rank i and admits exactly ranks 0..i, and quorum(k)
// activates at the lowest of its k candidates.
func TestSweepActivatesPartialInitiator(t *testing.T) {
	const n, k = 8, 3
	for seed := uint64(0); seed < 20; seed++ {
		curves, err := Run(Config{
			Seed:        seed,
			Ranks:       n,
			Steps:       1,
			BaseCompute: time.Millisecond,
			Skew:        imbalance.LinearSkew{StepMs: 1},
			Hop:         time.Microsecond,
			Policies:    []Policy{{Name: "majority", Mode: "majority"}, {Name: "quorum3", Mode: "quorum", K: k}},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		first := partial.Initiator(int64(seed), 0, 0, n)
		for idx := 1; idx < k; idx++ {
			first = min(first, partial.Initiator(int64(seed), 0, idx, n))
		}
		for _, c := range curves {
			want := partial.Initiator(int64(seed), 0, 0, n)
			if c.Policy.Mode == "quorum" {
				want = first
			}
			end := time.Millisecond + time.Duration(want+1)*time.Millisecond + 3*time.Microsecond
			if c.MinNAP != want+1 || c.TotalNs != int64(end) {
				t.Fatalf("seed %d %s: NAP %d, end %dns; want initiator %d: NAP %d, end %dns",
					seed, c.Policy.Name, c.MinNAP, c.TotalNs, want, want+1, int64(end))
			}
		}
	}
}

// TestRunRejectsOverflowingDelay checks that a delay whose sum over the
// steps would overflow int64 nanoseconds is an error naming its step and
// rank, not a wrapped curve.
func TestRunRejectsOverflowingDelay(t *testing.T) {
	cfg := severeConfig(1, 1000, 200)
	cfg.Skew = imbalance.LinearSkew{StepMs: 1e12}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "step 0, rank 0") {
		t.Fatalf("Run with linear:1e12 at 1000 ranks: err %v, want one naming step 0, rank 0", err)
	}
	cfg.Skew = imbalance.LinearSkew{StepMs: 1e3} // 1000 s at the last rank: in bounds
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run with linear:1000: %v", err)
	}
}

// TestRunRejectsBadConfig checks that Run refuses a config it cannot
// simulate instead of returning empty curves.
func TestRunRejectsBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"no ranks":       func(c *Config) { c.Ranks = 0 },
		"no steps":       func(c *Config) { c.Steps = 0 },
		"negative hop":   func(c *Config) { c.Hop = -time.Microsecond },
		"no policies":    func(c *Config) { c.Policies = nil },
		"quorum of zero": func(c *Config) { c.Policies = []Policy{{Name: "quorum0", Mode: "quorum"}} },
		"unknown mode":   func(c *Config) { c.Policies = []Policy{{Name: "eager", Mode: "eager"}} },
		"huge base":      func(c *Config) { c.BaseCompute = math.MaxInt64 / 8 },
		"huge hop":       func(c *Config) { c.Hop = math.MaxInt64 / 8 },
		"huge deadline":  func(c *Config) { c.PeerDeadline = math.MaxInt64 / 8 },
		"negative delay": func(c *Config) { c.Skew = imbalance.LinearSkew{StepMs: -1} },
		"NaN delay":      func(c *Config) { c.Skew = imbalance.LinearSkew{StepMs: math.NaN()} },
	} {
		cfg := severeConfig(1, 8, 4)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
}
