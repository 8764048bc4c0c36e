package imbalance

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eagersgd/internal/race"
)

func TestClockDuration(t *testing.T) {
	c := ScaledClock(0.5)
	if got := c.Duration(10); got != 5*time.Millisecond {
		t.Fatalf("Duration = %v", got)
	}
	if got := c.Duration(0); got != 0 {
		t.Fatalf("zero-ms duration = %v", got)
	}
	if got := (Clock{}).Duration(100); got != 0 {
		t.Fatalf("zero-scale duration = %v", got)
	}
	if rt := RealTimeClock(); rt.Duration(3) != 3*time.Millisecond {
		t.Fatalf("real-time clock wrong: %v", rt.Duration(3))
	}
}

func TestClockPaperMsRoundTrip(t *testing.T) {
	c := ScaledClock(0.25)
	d := c.Duration(80)
	if got := c.PaperMs(d); math.Abs(got-80) > 1e-9 {
		t.Fatalf("PaperMs round trip = %v", got)
	}
	if got := (Clock{}).PaperMs(time.Second); got != 0 {
		t.Fatalf("zero-scale PaperMs = %v", got)
	}
}

func TestClockNegativeScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScaledClock(-1)
}

func TestClockSleepApproximatelyScaled(t *testing.T) {
	c := ScaledClock(0.1)
	start := time.Now()
	c.Sleep(100) // 10 ms real
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond || elapsed > 200*time.Millisecond {
		t.Fatalf("scaled sleep took %v, want ~10ms", elapsed)
	}
}

// TestClockSleepOnDeadline pins what a modelled sleep costs beyond its
// nominal: never less than zero, and on Linux a small fraction of the
// millisecond-grid overshoot time.Sleep pays for the same durations.
func TestClockSleepOnDeadline(t *testing.T) {
	const sleepers, calls = 4, 40
	nominal := [2]float64{1.333, 3.333} // ms
	c := RealTimeClock()
	// over[g][k] holds goroutine g's overshoots of Clock.Sleep (k = 0) and
	// time.Sleep (k = 1).
	var over [sleepers][2][]time.Duration
	var wg sync.WaitGroup
	for g := 0; g < sleepers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				d := c.Duration(nominal[i%2])
				start := time.Now()
				c.Sleep(nominal[i%2])
				over[g][0] = append(over[g][0], time.Since(start)-d)
				start = time.Now()
				time.Sleep(d)
				over[g][1] = append(over[g][1], time.Since(start)-d)
			}
		}(g)
	}
	wg.Wait()
	names := [2]string{"Clock.Sleep", "time.Sleep"}
	var all [2][]time.Duration
	for g := range over {
		for k := range all {
			all[k] = append(all[k], over[g][k]...)
		}
	}
	for k, s := range all {
		for _, o := range s {
			if o < 0 {
				t.Fatalf("%s returned %v early", names[k], -o)
			}
		}
	}
	median := func(s []time.Duration) time.Duration {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)/2]
	}
	mc, mt := median(all[0]), median(all[1])
	t.Logf("median overshoot: Clock.Sleep %v, time.Sleep %v", mc, mt)
	if runtime.GOOS != "linux" || testing.Short() {
		return
	}
	if 3*mc > mt {
		t.Fatalf("median Clock.Sleep overshoot %v is more than a third of time.Sleep's %v", mc, mt)
	}
}

func TestClockSleepAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := RealTimeClock()
	if allocs := testing.AllocsPerRun(50, func() { c.Sleep(0.05) }); allocs != 0 {
		t.Fatalf("warm Clock.Sleep allocates %v times", allocs)
	}
}

func TestNoneInjector(t *testing.T) {
	var n None
	if n.Delay(3, 5) != 0 || n.Name() != "none" {
		t.Fatal("None injector misbehaves")
	}
}

func TestRandomSubsetInjector(t *testing.T) {
	inj := RandomSubset{Size: 8, K: 1, Amount: 300, Seed: 42}
	if inj.Name() == "" {
		t.Fatal("empty name")
	}
	for step := 0; step < 200; step++ {
		delayed := 0
		for r := 0; r < 8; r++ {
			d := inj.Delay(step, r)
			if d != 0 && d != 300 {
				t.Fatalf("unexpected delay %v", d)
			}
			if d == 300 {
				delayed++
			}
			// Determinism: same (step, rank) must give the same answer.
			if inj.Delay(step, r) != d {
				t.Fatal("injector not deterministic")
			}
		}
		if delayed != 1 {
			t.Fatalf("step %d delayed %d ranks, want exactly 1", step, delayed)
		}
	}
	// Over many steps the delayed rank must vary.
	seen := make(map[int]bool)
	for step := 0; step < 200; step++ {
		for r := 0; r < 8; r++ {
			if inj.Delay(step, r) > 0 {
				seen[r] = true
			}
		}
	}
	if len(seen) < 6 {
		t.Fatalf("delayed rank covered only %d of 8 ranks", len(seen))
	}
}

func TestRandomSubsetKofP(t *testing.T) {
	inj := RandomSubset{Size: 64, K: 4, Amount: 460, Seed: 7}
	for step := 0; step < 50; step++ {
		delayed := 0
		for r := 0; r < 64; r++ {
			if inj.Delay(step, r) > 0 {
				delayed++
			}
		}
		if delayed != 4 {
			t.Fatalf("step %d delayed %d ranks, want 4", step, delayed)
		}
	}
}

func TestRandomSubsetZeroKorAmount(t *testing.T) {
	if (RandomSubset{Size: 4, K: 0, Amount: 10}).Delay(0, 0) != 0 {
		t.Fatal("K=0 must inject nothing")
	}
	if (RandomSubset{Size: 4, K: 2, Amount: 0}).Delay(0, 1) != 0 {
		t.Fatal("Amount=0 must inject nothing")
	}
}

func TestLinearSkew(t *testing.T) {
	inj := LinearSkew{StepMs: 1}
	if inj.Name() == "" {
		t.Fatal("empty name")
	}
	for r := 0; r < 32; r++ {
		if got := inj.Delay(9, r); got != float64(r+1) {
			t.Fatalf("rank %d delay %v, want %v", r, got, r+1)
		}
	}
}

func TestShiftedSevere(t *testing.T) {
	inj := ShiftedSevere{Size: 8, MinMs: 50, MaxMs: 400}
	if inj.Name() == "" {
		t.Fatal("empty name")
	}
	for step := 0; step < 20; step++ {
		seen := make(map[float64]bool)
		for r := 0; r < 8; r++ {
			d := inj.Delay(step, r)
			if d < 50 || d > 400 {
				t.Fatalf("delay %v outside [50,400]", d)
			}
			seen[d] = true
		}
		if len(seen) != 8 {
			t.Fatalf("step %d produced %d distinct delays, want 8 (all ranks skewed)", step, len(seen))
		}
	}
	// The schedule must rotate: the rank receiving the maximum delay changes
	// across steps.
	maxRank := func(step int) int {
		best, bestD := -1, -1.0
		for r := 0; r < 8; r++ {
			if d := inj.Delay(step, r); d > bestD {
				best, bestD = r, d
			}
		}
		return best
	}
	if maxRank(0) == maxRank(1) {
		t.Fatal("severe skew schedule does not shift across steps")
	}
	// Degenerate size.
	if (ShiftedSevere{Size: 1, MinMs: 5, MaxMs: 10}).Delay(0, 0) != 5 {
		t.Fatal("size-1 severe skew should return MinMs")
	}
}

func checkDistribution(t *testing.T, d Distribution, wantMeanLo, wantMeanHi float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	const n = 30000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.Sample(rng)
		if samples[i] < d.MinMs || samples[i] > d.MaxMs {
			t.Fatalf("%s sample %v outside [%v,%v]", d.Label, samples[i], d.MinMs, d.MaxMs)
		}
	}
	st := Summarize(samples)
	if st.Mean < wantMeanLo || st.Mean > wantMeanHi {
		t.Fatalf("%s mean %v outside expected [%v, %v]", d.Label, st.Mean, wantMeanLo, wantMeanHi)
	}
	if st.Std == 0 {
		t.Fatalf("%s has zero variance", d.Label)
	}
}

// TestCloudNoiseGolden pins CloudNoise's draws to the values the trainer's
// cloud-noise runs have always used: the K ranks picked at a step share one
// sample of the Fig. 4 tail above its minimum, every other rank gets zero.
// The samples match to 1e-12 relative, not bit for bit: math.Exp may differ
// in the last place between architectures (linux/386 rounds one of them).
func TestCloudNoiseGolden(t *testing.T) {
	for _, tc := range []struct {
		c          CloudNoise
		step, rank int
		want       float64
	}{
		{CloudNoise{Size: 4, K: 2, Seed: 7}, 0, 0, 32.96355694971584},
		{CloudNoise{Size: 4, K: 2, Seed: 7}, 0, 1, 0},
		{CloudNoise{Size: 4, K: 2, Seed: 7}, 0, 2, 32.96355694971584},
		{CloudNoise{Size: 4, K: 2, Seed: 7}, 1, 0, 19.732398792624963},
		{CloudNoise{Size: 4, K: 2, Seed: 7}, 2, 3, 91.30271039735493},
		{CloudNoise{Size: 64, K: 4, Seed: 42}, 0, 5, 59.29451987210592},
		{CloudNoise{Size: 64, K: 4, Seed: 42}, 0, 60, 59.29451987210592},
		{CloudNoise{Size: 64, K: 4, Seed: 42}, 0, 0, 0},
		{CloudNoise{Size: 64, K: 4, Seed: 42}, 1, 24, 81.75373156073516},
		{CloudNoise{Size: 64, K: 4, Seed: 42}, 2, 44, 196.7309682872392},
		{CloudNoise{Size: 64, K: 4, Seed: 42}, 2, 1, 0},
	} {
		if got := tc.c.Delay(tc.step, tc.rank); math.Abs(got-tc.want) > 1e-12*tc.want {
			t.Errorf("%+v.Delay(%d, %d) = %v, want %v", tc.c, tc.step, tc.rank, got, tc.want)
		}
	}
	if name := (CloudNoise{}).Name(); name != "cloud-noise" {
		t.Errorf("Name() = %q, want cloud-noise", name)
	}
}

// TestRandomSubsetGolden pins RandomSubset's selections to the ranks the
// trainer's Figs. 10/11 runs have always delayed.
func TestRandomSubsetGolden(t *testing.T) {
	for _, tc := range []struct {
		r    RandomSubset
		step int
		want []int
	}{
		{RandomSubset{Size: 8, K: 1, Amount: 300, Seed: 42}, 0, []int{7}},
		{RandomSubset{Size: 8, K: 1, Amount: 300, Seed: 42}, 1, []int{0}},
		{RandomSubset{Size: 8, K: 1, Amount: 300, Seed: 42}, 2, []int{5}},
		{RandomSubset{Size: 64, K: 4, Amount: 460, Seed: 7}, 0, []int{3, 33, 39, 56}},
		{RandomSubset{Size: 64, K: 4, Amount: 460, Seed: 7}, 1, []int{21, 35, 52, 60}},
		{RandomSubset{Size: 64, K: 4, Amount: 460, Seed: 7}, 2, []int{7, 10, 43, 53}},
	} {
		var got []int
		for r := 0; r < tc.r.Size; r++ {
			if tc.r.Delay(tc.step, r) == tc.r.Amount {
				got = append(got, r)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%+v step %d delays ranks %v, want %v", tc.r, tc.step, got, tc.want)
		}
	}
}

// TestStepDelaysMatchesDelay checks that StepDelays fills a step's row with
// exactly the injector's per-rank Delay values, for every injector kind.
func TestStepDelaysMatchesDelay(t *testing.T) {
	for _, inj := range []Injector{
		None{},
		RandomSubset{Size: 64, K: 4, Amount: 460, Seed: 7},
		RandomSubset{Size: 64, K: 0, Amount: 460, Seed: 7},
		RandomSubset{Size: 8, K: 9, Amount: 300, Seed: 42},
		LinearSkew{StepMs: 0.5},
		ShiftedSevere{Size: 64, MinMs: 50, MaxMs: 400},
		CloudNoise{Size: 64, K: 4, Seed: 42},
		CloudNoise{Size: 4, K: 2, Seed: 7},
		CloudNoise{Size: 4, K: 0, Seed: 7},
	} {
		row := make([]float64, 64)
		for step := 0; step < 20; step++ {
			for r := range row {
				row[r] = -1 // StepDelays must overwrite every entry
			}
			StepDelays(inj, step, row)
			for r, got := range row {
				if want := inj.Delay(step, r); got != want {
					t.Fatalf("%s step %d rank %d: StepDelays %v, Delay %v", inj.Name(), step, r, got, want)
				}
			}
		}
	}
}

func TestVideoBatchRuntimeMatchesPaperShape(t *testing.T) {
	// Paper: 201–3410 ms, mean 1235 ms. Allow a generous band around the
	// reported mean.
	checkDistribution(t, VideoBatchRuntime(), 1000, 1500)
}

func TestTransformerBatchRuntimeMatchesPaperShape(t *testing.T) {
	// Paper: 179–3482 ms, mean 475 ms.
	checkDistribution(t, TransformerBatchRuntime(), 400, 560)
}

func TestCloudBatchRuntimeMatchesPaperShape(t *testing.T) {
	// Paper: 399–1892 ms, mean 454 ms.
	checkDistribution(t, CloudBatchRuntime(), 410, 520)
}

func TestDistributionMeanHelper(t *testing.T) {
	d := CloudBatchRuntime()
	m := d.Mean(5000, 3)
	if m < d.MinMs || m > d.MaxMs {
		t.Fatalf("Mean() = %v outside the support", m)
	}
	if d.Name() != d.Label {
		t.Fatal("Name must return the label")
	}
}

func TestSequenceCostModel(t *testing.T) {
	m := UCF101CostModel()
	if m.Runtime(0) != m.BaseMs {
		t.Fatal("zero-length runtime should be the base cost")
	}
	if m.Runtime(100) <= m.Runtime(10) {
		t.Fatal("runtime must grow with workload size")
	}
	// A median batch (16 videos x ~167 frames) should land in the same order
	// of magnitude as the paper's 1235 ms mean.
	medianBatch := m.Runtime(16 * 167)
	if medianBatch < 600 || medianBatch > 2200 {
		t.Fatalf("median batch runtime %v ms implausible vs paper's 1235 ms", medianBatch)
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{1, 2, 3, 4})
	if st.Min != 1 || st.Max != 4 || math.Abs(st.Mean-2.5) > 1e-12 {
		t.Fatalf("Summarize = %+v", st)
	}
	if math.Abs(st.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("Std = %v", st.Std)
	}
	if Summarize(nil) != (Stats{}) {
		t.Fatal("empty summarize should be zero")
	}
}

func TestHistogramCoversAllSamples(t *testing.T) {
	f := func(raw []float64, bucketsRaw uint8) bool {
		buckets := int(bucketsRaw%20) + 1
		samples := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			samples = append(samples, math.Mod(x, 1e4))
		}
		if len(samples) == 0 {
			return true
		}
		_, counts := Histogram(samples, buckets)
		total := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == len(samples)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	if e, c := Histogram(nil, 5); e != nil || c != nil {
		t.Fatal("empty histogram must be nil")
	}
	if e, c := Histogram([]float64{1}, 0); e != nil || c != nil {
		t.Fatal("zero buckets must be nil")
	}
}
