package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// TestSnapshotIsMachineIndependent: the marshalled snapshot of a tiny sweep
// names nothing of the machine that ran it — no operating system or
// architecture key — so two machines produce the same bytes for one sweep.
func TestSnapshotIsMachineIndependent(t *testing.T) {
	cfg := severeConfig(3, 4, 5)
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
	var top map[string]json.RawMessage
	if err := json.Unmarshal(doc, &top); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for _, key := range []string{"goos", "goarch"} {
		if _, ok := top[key]; ok {
			t.Errorf("snapshot carries the machine-dependent key %q", key)
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
// initiator of a round can be dead, and checks the failover path keeps rounds
// finite rather than hanging at math.MaxInt64: PeerDeadline after a live
// rank arrives, its machine's Deadline marks the round's dead candidates
// down, and PeerDown lets the rank activate the round itself.
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
// at partial.Initiator's rank and quorum(k) at the lowest of its candidates
// (partial.Candidates: every rank once k ≥ n).
// The flood then activates each rank one Hop per hop of Peers (a candidate
// may start sooner on its own arrival), the round ends one wire term after
// the last activation, and NAP counts the ranks arrived by their own
// activation. With a 1 µs hop those are the ranks up to the initiator; with
// a 1 ms hop, one rank of skew per hop, the flood window admits later ranks.
func TestSweepActivatesPartialInitiator(t *testing.T) {
	const k = 3
	for _, n := range []int{3, 6, 8} {
		wire := bits.Len(uint(n - 1))
		for _, hop := range []time.Duration{time.Microsecond, time.Millisecond} {
			for seed := uint64(0); seed < 20; seed++ {
				curves, err := Run(Config{
					Seed:        seed,
					Ranks:       n,
					Steps:       1,
					BaseCompute: time.Millisecond,
					Skew:        imbalance.LinearSkew{StepMs: 1},
					Hop:         hop,
					Policies:    []Policy{{Name: "majority", Mode: "majority"}, {Name: "quorum3", Mode: "quorum", K: k}},
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				arrival := func(r int) time.Duration { return time.Millisecond + time.Duration(r+1)*time.Millisecond }
				for _, c := range curves {
					mode := eagerModes[c.Policy.Mode]
					act := make([]time.Duration, n) // each rank's activation: the earliest flood from a candidate
					for r := range act {
						act[r] = math.MaxInt64
					}
					partial.Candidates(mode, k, int64(seed), 0, n, func(cand int) bool {
						for r, d := range floodHops(n, cand) {
							act[r] = min(act[r], arrival(cand)+time.Duration(d)*hop)
						}
						return true
					})
					nap := 0
					for r := range act {
						if arrival(r) <= act[r] {
							nap++
						}
					}
					end := slices.Max(act) + time.Duration(wire)*hop
					if c.MinNAP != nap || c.TotalNs != int64(end) {
						t.Fatalf("n=%d hop %v seed %d %s: NAP %d, end %dns; want NAP %d, end %dns",
							n, hop, seed, c.Policy.Name, c.MinNAP, c.TotalNs, nap, int64(end))
					}
				}
			}
		}
	}
	if ecc := slices.Max(floodHops(8, 5)); ecc != 3 {
		t.Fatalf("the flood of 8 ranks takes %d hops from rank 5, want the hypercube's 3", ecc)
	}
	// Pinned by hand: at 3 ranks, seed 3 makes rank 1 the initiator. It
	// activates at 3 ms and floods both other ranks one 1 ms hop later: rank 2
	// is rank 1's neighbour in the contracted hypercube (the truncated one
	// reaches it through rank 0). Rank 2 arrives at 4 ms, in time to count,
	// and the round ends two wire hops after 4 ms.
	curves, err := Run(Config{Seed: 3, Ranks: 3, Steps: 1, BaseCompute: time.Millisecond, Skew: imbalance.LinearSkew{StepMs: 1},
		Hop: time.Millisecond, Policies: []Policy{{Name: "majority", Mode: "majority"}}})
	if err != nil || curves[0].MinNAP != 3 || curves[0].TotalNs != int64(6*time.Millisecond) {
		t.Fatalf("3 ranks, initiator 1, 1 ms hop: %+v, %v; want NAP 3, end 6ms", curves, err)
	}
}

// floodHops returns each rank's distance from rank src in flood hops: a
// breadth-first search over partial.Activation.Peers.
func floodHops(n, src int) []int {
	dist := make([]int, n)
	for r := range dist {
		dist[r] = -1
	}
	dist[src] = 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		m := partial.NewActivation(queue[0], n, partial.Options{})
		for _, p := range m.Peers() {
			if dist[p] < 0 {
				dist[p] = dist[queue[0]] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist
}

// TestSweepFailoverMarksDeadCandidatesOnce kills every rank but rank 0 at step
// 0 of worlds of 2 to 4 ranks. As in the engine, the survivor's deadline
// marks a round's dead candidates down for good: a round whose candidates are
// dead costs PeerDeadline only while one of them is still unmarked, and fails
// over at the survivor's arrival after. Each step therefore costs base plus
// the wire term, and the run one PeerDeadline per such round.
func TestSweepFailoverMarksDeadCandidatesOnce(t *testing.T) {
	const steps, base, deadline, hop = 40, time.Millisecond, 10 * time.Millisecond, 125 * time.Microsecond
	for n := 2; n <= 4; n++ {
		crash := map[int]int{}
		for r := 1; r < n; r++ {
			crash[r] = 0
		}
		for _, pol := range []Policy{{Name: "majority", Mode: "majority"}, {Name: "quorum2", Mode: "quorum", K: 2}} {
			curves, err := Run(Config{Seed: 5, Ranks: n, Steps: steps, BaseCompute: base, Hop: hop, Policies: []Policy{pol},
				Faults: &faults.Scenario{CrashAtStep: crash}, PeerDeadline: deadline})
			if err != nil {
				t.Fatalf("n=%d %s: Run: %v", n, pol.Name, err)
			}
			mode := eagerModes[pol.Mode]
			marked := map[int]bool{}
			charged := 0
			for step := 0; step < steps; step++ {
				var cands []int
				partial.Candidates(mode, pol.K, 5, step, n, func(c int) bool {
					cands = append(cands, c)
					return true
				})
				if !slices.Contains(cands, 0) && slices.ContainsFunc(cands, func(c int) bool { return !marked[c] }) {
					charged++ // the deadline fires and marks them all
					for _, c := range cands {
						marked[c] = true
					}
				}
			}
			want := steps*(base+time.Duration(bits.Len(uint(n-1)))*hop) + time.Duration(charged)*deadline
			if got := curves[0].TotalNs; got != int64(want) {
				t.Errorf("n=%d %s: total %v, want %v: %d deadlines", n, pol.Name, time.Duration(got), want, charged)
			}
		}
	}
}

// TestSweepReportsRankCutOffFromFlood kills ranks 1 and 2 of four, the only
// flood neighbours of rank 3 and of rank 0. The first majority round with a
// live initiator then never reaches the other survivor, whose detector
// suspects no live rank, so Run reports that round as an error naming the
// policy, the step and the count instead of returning a curve.
func TestSweepReportsRankCutOffFromFlood(t *testing.T) {
	step := 0
	for slices.Contains([]int{1, 2}, partial.Initiator(5, step, 0, 4)) {
		step++
	}
	_, err := Run(Config{Seed: 5, Ranks: 4, Steps: 40, BaseCompute: time.Millisecond, Hop: time.Microsecond,
		Policies: []Policy{{Name: "majority", Mode: "majority"}}, Faults: &faults.Scenario{CrashAtStep: map[int]int{1: 0, 2: 0}}})
	want := fmt.Sprintf(`policy "majority", step %d: 1 of 2 live ranks never activated`, step)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run: err %v, want one containing %q", err, want)
	}
}

// TestQuorumEndsAreSoloAndMajority checks that the eager policies are one
// rule over a candidate count, as in the engine: quorum(K) with K at or above
// the rank count makes every rank a candidate and is solo, and quorum(1) is
// majority, in every Curve field but the policy's own name.
func TestQuorumEndsAreSoloAndMajority(t *testing.T) {
	const n = 8
	curves, err := Run(Config{
		Seed:        42,
		Ranks:       n,
		Steps:       200,
		BaseCompute: 10 * time.Millisecond,
		Skew:        imbalance.LinearSkew{StepMs: 1},
		Hop:         100 * time.Microsecond,
		Policies: []Policy{
			{Name: "solo", Mode: "solo"},
			{Name: "majority", Mode: "majority"},
			{Name: "quorum8", Mode: "quorum", K: n},
			{Name: "quorum13", Mode: "quorum", K: 13},
			{Name: "quorum1", Mode: "quorum", K: 1},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	solo, maj := curves[0], curves[1]
	for _, tc := range []struct {
		got, want Curve
	}{{curves[2], solo}, {curves[3], solo}, {curves[4], maj}} {
		got, want := tc.got, tc.want
		got.Policy, want.Policy = Policy{}, Policy{}
		if got != want {
			t.Errorf("%s = %+v, want %s's %+v", tc.got.Policy.Name, got, tc.want.Policy.Name, want)
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
		"huge flood hop": func(c *Config) { c.Hop = math.MaxInt64 / 64 }, // in bounds without the flood's ceil(log2 n) hops
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
