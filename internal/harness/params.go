package harness

// params collects every scale-dependent constant of the training experiments
// in one place, so Table 1 (reproduction column), the per-figure runners, and
// the tests all agree on the configuration actually used.
type params struct {
	// Fig. 9 microbenchmark.
	fig9Procs      int
	fig9Iterations int
	fig9Sizes      []int // message sizes in float64 elements
	fig9SkewStepMs float64
	fig9Clock      float64

	// Fig. 10 hyperplane regression.
	fig10Procs      int
	fig10Dim        int
	fig10Samples    int
	fig10Batch      int
	fig10Steps      int
	fig10Injections []float64
	fig10BaseMs     float64
	fig10Clock      float64
	fig10LR         float64

	// Fig. 11 ImageNet-like classification, light imbalance.
	fig11Procs      int
	fig11Classes    int
	fig11Dim        int
	fig11Hidden     int
	fig11Samples    int
	fig11Batch      int
	fig11Steps      int
	fig11Injections []float64
	fig11InjectedK  int
	fig11BaseMs     float64
	fig11Clock      float64
	fig11LR         float64

	// Fig. 12 CIFAR-like classification, severe imbalance.
	fig12Procs   int
	fig12Classes int
	fig12Dim     int
	fig12Hidden  int
	fig12Samples int
	fig12Batch   int
	fig12Steps   int
	fig12MinMs   float64
	fig12MaxMs   float64
	fig12BaseMs  float64
	fig12Clock   float64
	fig12LR      float64

	// Fig. 13 video LSTM, inherent imbalance.
	fig13Procs     int
	fig13Classes   int
	fig13FeatDim   int
	fig13Hidden    int
	fig13Samples   int
	fig13Batch     int
	fig13Steps     int
	fig13MinLen    int
	fig13MaxLen    int
	fig13MedianLen int
	fig13PerUnitMs float64
	fig13Clock     float64
	fig13LR        float64

	evalEvery int
	syncEvery int
}

func (p params) fig11Params() int {
	return p.fig11Dim*p.fig11Hidden + p.fig11Hidden + p.fig11Hidden*p.fig11Classes + p.fig11Classes
}

func (p params) fig12Params() int {
	return p.fig12Dim*p.fig12Hidden + p.fig12Hidden + p.fig12Hidden*p.fig12Classes + p.fig12Classes
}

func (p params) fig13Params() int {
	h, i, c := p.fig13Hidden, p.fig13FeatDim, p.fig13Classes
	return 4*h*i + 4*h*h + 4*h + c*h + c
}

// experimentParams returns the parameter set for the configured scale.
//
// Full scale keeps the paper's process counts (8 / 64 / 8 / 8) and its
// injected-delay magnitudes in paper milliseconds, replayed through a scaled
// clock; model and dataset sizes are CPU-scale stand-ins. Quick scale shrinks
// everything so the entire suite runs in a few seconds for tests.
func experimentParams(cfg Config) params {
	if cfg.Quick {
		return params{
			// The quick microbenchmark replays the skew at 4x so the injected
			// delays (8–32 ms real) dominate engine overhead and scheduler
			// noise by an order of magnitude even under the race detector —
			// that is what makes the latency-ratio assertions in
			// TestFig9MicrobenchmarkQuick deterministic rather than gated on
			// race.Enabled. Fewer iterations keep the wall time in check.
			fig9Procs: 8, fig9Iterations: 6,
			fig9Sizes:      []int{8, 512, 4096},
			fig9SkewStepMs: 1, fig9Clock: cfg.clockScale(4.0),

			fig10Procs: 4, fig10Dim: 64, fig10Samples: 512, fig10Batch: 16,
			fig10Steps: 40, fig10Injections: []float64{200},
			fig10BaseMs: 180, fig10Clock: cfg.clockScale(0.01), fig10LR: 0.05,

			fig11Procs: 8, fig11Classes: 8, fig11Dim: 24, fig11Hidden: 24,
			fig11Samples: 640, fig11Batch: 8, fig11Steps: 40,
			fig11Injections: []float64{300}, fig11InjectedK: 1,
			fig11BaseMs: 640, fig11Clock: cfg.clockScale(0.01), fig11LR: 0.1,

			fig12Procs: 4, fig12Classes: 6, fig12Dim: 16, fig12Hidden: 24,
			fig12Samples: 480, fig12Batch: 16, fig12Steps: 50,
			fig12MinMs: 50, fig12MaxMs: 400, fig12BaseMs: 150,
			fig12Clock: cfg.clockScale(0.03), fig12LR: 0.1,

			fig13Procs: 4, fig13Classes: 5, fig13FeatDim: 8, fig13Hidden: 12,
			fig13Samples: 160, fig13Batch: 4, fig13Steps: 30,
			fig13MinLen: 4, fig13MaxLen: 32, fig13MedianLen: 10,
			fig13PerUnitMs: 3, fig13Clock: cfg.clockScale(0.04), fig13LR: 0.08,

			evalEvery: 10, syncEvery: 10,
		}
	}
	return params{
		// Fig. 9: 32 processes, 64 B – 4 MB messages, linear skew 1–32 ms
		// (paper §6.1), replayed in real time so the skew dominates the
		// schedule-engine overhead as it does on the paper's system.
		fig9Procs: 32, fig9Iterations: 24,
		fig9Sizes:      []int{8, 64, 512, 4096, 32768, 524288},
		fig9SkewStepMs: 1, fig9Clock: cfg.clockScale(1.0),

		// Fig. 10: 8 processes, 1 of 8 delayed by 200/300/400 ms per step,
		// per-step compute modelled at ~195 ms (the paper's single-GPU
		// throughput of 0.64 steps/s split over 8 ranks).
		fig10Procs: 8, fig10Dim: 256, fig10Samples: 4096, fig10Batch: 32,
		fig10Steps: 160, fig10Injections: []float64{200, 300, 400},
		fig10BaseMs: 195, fig10Clock: cfg.clockScale(0.004), fig10LR: 0.05,

		// Fig. 11: 64 processes, 4 of 64 delayed by 300/460 ms, base step
		// ~640 ms (single-GPU 1.56 steps/s at batch 128).
		fig11Procs: 64, fig11Classes: 10, fig11Dim: 32, fig11Hidden: 32,
		fig11Samples: 4096, fig11Batch: 8, fig11Steps: 60,
		fig11Injections: []float64{300, 460}, fig11InjectedK: 4,
		fig11BaseMs: 640, fig11Clock: cfg.clockScale(0.04), fig11LR: 0.1,

		// Fig. 12: 8 processes, all skewed 50–400 ms, shifted every step.
		fig12Procs: 8, fig12Classes: 10, fig12Dim: 24, fig12Hidden: 32,
		fig12Samples: 2048, fig12Batch: 16, fig12Steps: 120,
		fig12MinMs: 50, fig12MaxMs: 400, fig12BaseMs: 150,
		fig12Clock: cfg.clockScale(0.01), fig12LR: 0.1,

		// Fig. 13: 8 processes, no injection — imbalance comes from the
		// variable sequence lengths themselves, amplified to paper scale by
		// the per-frame cost model.
		fig13Procs: 8, fig13Classes: 8, fig13FeatDim: 12, fig13Hidden: 20,
		fig13Samples: 512, fig13Batch: 8, fig13Steps: 80,
		fig13MinLen: 6, fig13MaxLen: 80, fig13MedianLen: 18,
		fig13PerUnitMs: 1.2, fig13Clock: cfg.clockScale(0.03), fig13LR: 0.08,

		evalEvery: 20, syncEvery: 60,
	}
}
