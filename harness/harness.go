// Package harness is the public interface to the reproduction experiments:
// one runner per figure and table of the paper's evaluation (§2 workload
// characterization, §6.1 microbenchmark, §6.2–§6.3 training experiments).
// Each runner returns a Report containing the tables and curve series the
// corresponding figure plots, plus notes comparing the measured shape against
// the paper's claims.
//
// Experiments run at two scales — QuickConfig (seconds, used by tests and
// CI) and DefaultConfig (tens of seconds per experiment, used by the
// benchmark harness and the cmd/ tools). Both use the same code paths; only
// process counts, step counts, model sizes, and the delay clock scale differ.
//
// The types are aliases of the internal implementation, so Reports returned
// here interoperate with everything else in the module.
package harness

import iharness "eagersgd/internal/harness"

// Config controls experiment scale; see the field docs on the aliased type.
type Config = iharness.Config

// Report is the output of one experiment runner: tables, curves, notes, and
// named headline values.
type Report = iharness.Report

// Experiment names one runner so tools can iterate over them.
type Experiment = iharness.Experiment

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config { return iharness.DefaultConfig() }

// QuickConfig returns the test-scale configuration.
func QuickConfig() Config { return iharness.QuickConfig() }

// Experiments returns every experiment in paper order.
func Experiments() []Experiment { return iharness.Experiments() }

// RunByID runs the experiment with the given ID ("fig2" ... "fig13",
// "table1", "fig9", "scaling", "quorum").
func RunByID(id string, cfg Config) (*Report, error) { return iharness.RunByID(id, cfg) }
