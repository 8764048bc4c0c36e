package sweep

import (
	"encoding/json"
	"fmt"
	"runtime"
)

// The snapshot lays one policy curve out like one `go test -bench` line: a
// name, an iteration count, ns per operation, and named metrics.
//
// Determinism: nothing machine- or time-dependent enters the document. The
// Date field carries the root seed instead of a wall-clock date, map-valued
// metrics marshal with sorted keys (encoding/json's documented behavior),
// and benchmarks append in sweep order — so two runs of the same sweep are
// byte-identical, which CI diffs to gate the determinism contract.

// Result is one policy curve.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the top-level JSON document.
type Snapshot struct {
	Date       string   `json:"date"`
	Command    string   `json:"command"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	Package    string   `json:"package,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// NewSnapshot starts an empty sweep snapshot. The Date field records the
// root seed ("sim-seed-<seed>") instead of the wall clock, keeping the
// document bit-identical across invocations; command records how the sweep
// was parameterized.
func NewSnapshot(seed uint64, command string) *Snapshot {
	return &Snapshot{
		Date:    fmt.Sprintf("sim-seed-%d", seed),
		Command: command,
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Package: "eagersgd/internal/sweep",
	}
}

// Add appends one policy curve under the conventional name
// "SimSweep/policy=<name>/skew=<label>/n=<ranks>". The mean virtual step
// time lands in ns_per_op; NAP and tail statistics land in Metrics.
func (s *Snapshot) Add(skewLabel string, ranks int, c Curve) {
	s.Benchmarks = append(s.Benchmarks, Result{
		Name:       fmt.Sprintf("SimSweep/policy=%s/skew=%s/n=%d", c.Policy.Name, skewLabel, ranks),
		Iterations: int64(c.Steps),
		NsPerOp:    c.MeanStepNs,
		Metrics: map[string]float64{
			"nap":         c.MeanNAP,
			"nap-min":     float64(c.MinNAP),
			"nap-max":     float64(c.MaxNAP),
			"p50-step-ns": float64(c.P50StepNs),
			"p95-step-ns": float64(c.P95StepNs),
			"p99-step-ns": float64(c.P99StepNs),
			"survivors":   float64(c.Survivors),
			"total-ns":    float64(c.TotalNs),
		},
	})
}

// Marshal renders the snapshot as indented JSON with a trailing newline,
// byte-identical for identical sweeps.
func (s *Snapshot) Marshal() ([]byte, error) {
	doc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}
