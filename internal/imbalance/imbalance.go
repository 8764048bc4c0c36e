// Package imbalance models the load imbalance the paper studies and injects
// it into distributed training runs: per-(step, rank) delay injectors
// mirroring the experiments of §6 (random-subset delays for the cloud-like
// Figs. 10/11, linear skew for the Fig. 9 microbenchmark, shifted severe skew
// for Fig. 12, the cloud noise tail of Fig. 4), empirical runtime models
// reproducing the workload distributions of Figs. 2–4, and a scalable clock
// that replays paper-scale millisecond delays at a configurable fraction of
// real time so experiments finish in seconds while preserving every ratio the
// paper reports.
package imbalance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Clock converts "paper milliseconds" into real sleeps. Scale 1.0 sleeps the
// full duration; the experiments default to a much smaller scale (e.g. 0.02)
// so that a 400 ms injected delay costs 8 ms of wall clock. Latency and
// throughput ratios are preserved because every delay in a run uses the same
// clock and a sleep lasts its scaled duration plus tens of microseconds. On
// Linux that needs a timerfd (sleep_linux.go): time.Sleep wakes on epoll's
// millisecond grid, adding 0–1 ms to every delay whatever its length.
type Clock struct {
	// Scale multiplies paper milliseconds before sleeping. Zero disables
	// sleeping entirely (useful for logic-only tests).
	Scale float64
}

// RealTimeClock returns a clock that sleeps paper durations unscaled.
func RealTimeClock() Clock { return Clock{Scale: 1} }

// ScaledClock returns a clock that sleeps scale × the paper duration.
func ScaledClock(scale float64) Clock {
	if scale < 0 {
		panic(fmt.Sprintf("imbalance: negative clock scale %v", scale))
	}
	return Clock{Scale: scale}
}

// Duration converts paper milliseconds to a wall-clock duration.
func (c Clock) Duration(paperMs float64) time.Duration {
	if paperMs <= 0 || c.Scale == 0 {
		return 0
	}
	return time.Duration(paperMs * c.Scale * float64(time.Millisecond))
}

// Sleep blocks for the scaled equivalent of paperMs milliseconds.
func (c Clock) Sleep(paperMs float64) {
	if d := c.Duration(paperMs); d > 0 {
		sleep(d)
	}
}

// PaperMs converts a measured wall-clock duration back into paper
// milliseconds (the inverse of Duration), so reports can quote
// paper-equivalent times.
func (c Clock) PaperMs(d time.Duration) float64 {
	if c.Scale == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / c.Scale
}

// Injector produces the artificial delay (in paper milliseconds) a rank
// suffers at a training step, matching the delay-injection methodology of
// §6.2.
type Injector interface {
	// Delay returns the injected delay in paper milliseconds for the rank at
	// the step. Implementations must be deterministic in (step, rank) so
	// every rank can evaluate the schedule without coordination.
	Delay(step, rank int) float64
	// Name identifies the injector in experiment reports.
	Name() string
}

// None injects no delay.
type None struct{}

// Delay returns zero.
func (None) Delay(int, int) float64 { return 0 }

// Name returns "none".
func (None) Name() string { return "none" }

// RandomSubset delays K randomly chosen ranks (out of Size) by Amount paper
// milliseconds at every step — the light, system-caused imbalance used for
// the hyperplane (Fig. 10, K=1 of 8) and ImageNet (Fig. 11, K=4 of 64)
// experiments.
type RandomSubset struct {
	Size   int
	K      int
	Amount float64
	Seed   int64
}

// Name describes the injector.
func (r RandomSubset) Name() string {
	return fmt.Sprintf("random-%d-of-%d-%gms", r.K, r.Size, r.Amount)
}

// Delay returns Amount for the K ranks selected at this step, zero otherwise.
func (r RandomSubset) Delay(step, rank int) float64 { return pickedDelay(r, step, rank) }

func (r RandomSubset) pick(step int) ([]int, []float64) {
	if r.Amount <= 0 {
		return nil, nil
	}
	perm := rand.New(rand.NewSource(r.Seed ^ int64(step)*0x9e3779b9)).Perm(r.Size)
	chosen := perm[:max(0, min(r.K, r.Size))]
	delays := make([]float64, len(chosen))
	for i := range delays {
		delays[i] = r.Amount
	}
	return chosen, delays
}

// LinearSkew delays rank r by (r+1)*StepMs paper milliseconds, the fully
// skewed pattern of the Fig. 9 microbenchmark (1 ms to 32 ms across 32
// ranks).
type LinearSkew struct {
	StepMs float64
}

// Name describes the injector.
func (l LinearSkew) Name() string { return fmt.Sprintf("linear-%gms", l.StepMs) }

// Delay returns (rank+1)*StepMs.
func (l LinearSkew) Delay(_, rank int) float64 { return float64(rank+1) * l.StepMs }

// ShiftedSevere skews every rank between MinMs and MaxMs, rotating the
// assignment by one rank every step — the severe imbalance of the ResNet-32
// experiment (Fig. 12: 50–400 ms over 8 ranks, shifted after each step).
type ShiftedSevere struct {
	Size  int
	MinMs float64
	MaxMs float64
}

// Name describes the injector.
func (s ShiftedSevere) Name() string {
	return fmt.Sprintf("shifted-%g-%gms", s.MinMs, s.MaxMs)
}

// Delay returns the rank's position in the rotated schedule scaled into
// [MinMs, MaxMs].
func (s ShiftedSevere) Delay(step, rank int) float64 {
	if s.Size <= 1 {
		return s.MinMs
	}
	pos := (rank + step) % s.Size
	frac := float64(pos) / float64(s.Size-1)
	return s.MinMs + frac*(s.MaxMs-s.MinMs)
}

// CloudNoise delays K random ranks (out of Size) per step, each by the
// excess of its own sample from the Fig. 4 cloud batch-runtime distribution
// over its minimum — the multi-tenant "noise tail" of §2.3, drawn
// independently per delayed rank.
type CloudNoise struct {
	Size int
	K    int
	Seed int64
}

// Name returns "cloud-noise".
func (CloudNoise) Name() string { return "cloud-noise" }

// Delay returns the rank's noise sample if it is one of the K ranks selected
// at this step, zero otherwise.
func (c CloudNoise) Delay(step, rank int) float64 { return pickedDelay(c, step, rank) }

// pick draws the step's selection and then one noise sample per selected
// rank, in selection order, from the step's source.
func (c CloudNoise) pick(step int) ([]int, []float64) {
	rng := rand.New(rand.NewSource(c.Seed ^ int64(step)*104729))
	chosen := rng.Perm(c.Size)[:max(0, min(c.K, c.Size))]
	d := CloudBatchRuntime()
	delays := make([]float64, len(chosen))
	for i := range delays {
		delays[i] = d.Sample(rng) - d.MinMs
	}
	return chosen, delays
}

// picker is an injector that delays only the ranks it picks at a step: pick
// returns them and, index for index, their delays.
type picker interface {
	pick(step int) (chosen []int, delays []float64)
}

func pickedDelay(p picker, step, rank int) float64 {
	chosen, delays := p.pick(step)
	if i := slices.Index(chosen, rank); i >= 0 {
		return delays[i]
	}
	return 0
}

// StepDelays sets delays[r] to inj.Delay(step, r) for every rank r below
// len(delays). RandomSubset and CloudNoise pick the step's ranks once here,
// not once per rank, so a step costs O(len(delays)) for every injector.
func StepDelays(inj Injector, step int, delays []float64) {
	p, ok := inj.(picker)
	if !ok {
		for r := range delays {
			delays[r] = inj.Delay(step, r)
		}
		return
	}
	chosen, picked := p.pick(step)
	clear(delays)
	for i, r := range chosen {
		if r < len(delays) {
			delays[r] = picked[i]
		}
	}
}

// Distribution samples per-step runtimes (in paper milliseconds). It models
// the empirical runtime distributions of Figs. 2b, 3, and 4.
type Distribution struct {
	// Name of the workload the distribution reproduces.
	Label string
	// MinMs and MaxMs clip the samples to the observed range.
	MinMs, MaxMs float64
	// Mu and Sigma parameterize the underlying log-normal.
	Mu, Sigma float64
	// ShiftMs is added after sampling (for distributions with a hard floor).
	ShiftMs float64
}

// Sample draws one runtime in paper milliseconds.
func (d Distribution) Sample(rng *rand.Rand) float64 {
	v := math.Exp(d.Mu+d.Sigma*rng.NormFloat64()) + d.ShiftMs
	if v < d.MinMs {
		v = d.MinMs
	}
	if v > d.MaxMs {
		v = d.MaxMs
	}
	return v
}

// Name returns the workload label.
func (d Distribution) Name() string { return d.Label }

// Mean estimates the distribution mean as the average of samples draws from
// a generator seeded with seed (used by reports; exactness is unnecessary).
func (d Distribution) Mean(samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for i := 0; i < samples; i++ {
		total += d.Sample(rng)
	}
	return total / float64(samples)
}

// VideoBatchRuntime reproduces the LSTM-on-UCF101 batch runtime distribution
// of Fig. 2b: 201–3,410 ms, mean ≈ 1,235 ms, std ≈ 706 ms on a P100 with
// batch size 16.
func VideoBatchRuntime() Distribution {
	return Distribution{Label: "ucf101-lstm-batch16", MinMs: 201, MaxMs: 3410, Mu: math.Log(1060), Sigma: 0.55}
}

// TransformerBatchRuntime reproduces the Transformer-on-WMT16 batch runtime
// distribution of Fig. 3: 179–3,482 ms, mean ≈ 475 ms, std ≈ 144 ms.
func TransformerBatchRuntime() Distribution {
	return Distribution{Label: "wmt16-transformer-batch64", MinMs: 179, MaxMs: 3482, Mu: math.Log(455), Sigma: 0.28}
}

// CloudBatchRuntime reproduces the ResNet-50-on-cloud batch runtime
// distribution of Fig. 4: 399–1,892 ms, mean ≈ 454 ms, std ≈ 116 ms. Fixed
// compute plus a noisy tail.
func CloudBatchRuntime() Distribution {
	return Distribution{Label: "cloud-resnet50-batch256", MinMs: 399, MaxMs: 1892, Mu: math.Log(40), Sigma: 1.0, ShiftMs: 405}
}

// SequenceCostModel converts a workload size (frames for video, tokens for
// text) into paper milliseconds of compute: runtime = BaseMs + PerUnitMs*n.
// Together with the sequence length distribution it reproduces the runtime
// histograms of Figs. 2b and 3 from first principles (cost proportional to
// recurrence length).
type SequenceCostModel struct {
	BaseMs    float64
	PerUnitMs float64
}

// Runtime returns the modelled runtime in paper milliseconds for a workload
// of n units.
func (m SequenceCostModel) Runtime(n int) float64 { return m.BaseMs + m.PerUnitMs*float64(n) }

// UCF101CostModel returns per-batch cost coefficients calibrated so that the
// median UCF101 batch (16 videos × ~167 frames ≈ 2,672 frames) lands near the
// observed 1,235 ms mean of Fig. 2b.
func UCF101CostModel() SequenceCostModel { return SequenceCostModel{BaseMs: 80, PerUnitMs: 0.4} }

// Stats summarizes a set of runtime samples.
type Stats struct {
	Min, Max, Mean, Std float64
}

// Summarize computes min/max/mean/std of the samples.
func Summarize(samples []float64) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	s := Stats{Min: samples[0], Max: samples[0]}
	var sum float64
	for _, v := range samples {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(samples))
	var varsum float64
	for _, v := range samples {
		d := v - s.Mean
		varsum += d * d
	}
	s.Std = math.Sqrt(varsum / float64(len(samples)))
	return s
}

// Histogram bins samples into equal-width buckets and returns upper edges and
// counts, the representation behind Figs. 2b, 3, and 4.
func Histogram(samples []float64, buckets int) (edges []float64, counts []int) {
	if buckets <= 0 || len(samples) == 0 {
		return nil, nil
	}
	st := Summarize(samples)
	width := (st.Max - st.Min) / float64(buckets)
	if width == 0 {
		width = 1
	}
	edges = make([]float64, buckets)
	counts = make([]int, buckets)
	for i := range edges {
		edges[i] = st.Min + width*float64(i+1)
	}
	for _, v := range samples {
		idx := int((v - st.Min) / width)
		if idx >= buckets {
			idx = buckets - 1
		}
		counts[idx]++
	}
	return edges, counts
}
