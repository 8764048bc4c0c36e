// Package harness assembles the reproduction experiments: one runner per
// figure and table of the paper's evaluation (§2 workload characterization,
// §6.1 microbenchmark, §6.2–§6.3 training experiments). Each runner returns a
// Report containing the tables and curve series the corresponding figure
// plots, plus notes comparing the measured shape against the paper's claims.
//
// Experiments run at two scales: Quick (seconds, used by unit tests and CI)
// and the default full scale (tens of seconds per experiment, used by the
// benchmark harness and cmd/ tools). Both use the same code paths; only
// process counts, step counts, model sizes, and the delay clock scale differ.
// Absolute times therefore differ from the paper (the substrate is a
// simulator, not a Piz Daint node); the reproduced quantities are the
// relative ones: speedup factors, latency ratios, NAP, and accuracy
// orderings.
package harness

import (
	"fmt"
	"strings"

	"eagersgd/internal/trace"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks every experiment to a few seconds for tests.
	Quick bool
	// ClockScale converts paper milliseconds of injected/modelled delay into
	// real time (see imbalance.Clock). Zero picks a per-experiment default.
	ClockScale float64
	// Seed drives all pseudo-randomness (datasets, initiator selection,
	// injection schedules).
	Seed int64
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config { return Config{Seed: 1} }

// QuickConfig returns the test-scale configuration.
func QuickConfig() Config { return Config{Quick: true, Seed: 1} }

func (c Config) clockScale(def float64) float64 {
	if c.ClockScale > 0 {
		return c.ClockScale
	}
	return def
}

// Report is the output of one experiment runner.
type Report struct {
	// ID is the experiment identifier, e.g. "fig9" or "table1".
	ID string
	// Title describes the experiment.
	Title string
	// Tables holds the tabular results.
	Tables []*trace.Table
	// Curves holds the figure's series (x = training time or message size,
	// y = latency, loss, or accuracy).
	Curves []*trace.Curve
	// Notes records the qualitative checks against the paper's claims
	// (who wins, by roughly what factor).
	Notes []string
	// Values exposes headline scalar results by name, for benchmarks and
	// tests (e.g. "speedup/eager-300").
	Values map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Report) addNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Value returns a named headline value (0 if absent).
func (r *Report) Value(name string) float64 { return r.Values[name] }

// Render formats the full report as text.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", strings.ToUpper(r.ID), r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	if len(r.Curves) > 0 {
		b.WriteString(trace.RenderCurves("Curve data", "x", "y", r.Curves...))
		b.WriteByte('\n')
	}
	if len(r.Notes) > 0 {
		b.WriteString("Notes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// Experiment names all runners so tools can iterate over them.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "UCF101 video length and LSTM batch runtime distributions (§2.1)", Fig2VideoWorkload},
		{"fig3", "Transformer/WMT16 batch runtime distribution (§2.2)", Fig3TransformerWorkload},
		{"fig4", "ResNet-50 on cloud: batch runtime distribution (§2.3)", Fig4CloudWorkload},
		{"table1", "Neural networks used for evaluation (Table 1)", Table1Networks},
		{"fig9", "Partial allreduce latency and active processes under linear skew (§6.1)", Fig9Microbenchmark},
		{"fig10", "Hyperplane regression: throughput and validation loss (§6.2.1)", Fig10Hyperplane},
		{"fig11", "ImageNet-like classification, light imbalance: throughput and accuracy (§6.2.2)", Fig11ImageNetLight},
		{"fig12", "CIFAR-like classification, severe imbalance: accuracy vs time (§6.2.3)", Fig12CifarSevere},
		{"fig13", "Video LSTM, inherent imbalance: train/test accuracy vs time (§6.3)", Fig13VideoLSTM},
		{"scaling", "Strong/weak scaling summary derived from §6.2–§6.3 runs", ScalingSummary},
		{"quorum", "Quorum spectrum ablation between solo, majority, and full collectives (§8)", QuorumSpectrum},
	}
}

// RunByID runs the experiment with the given ID.
func RunByID(id string, cfg Config) (*Report, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}
