// Package trace collects and formats the measurements the experiments
// report: per-step timings and throughput, loss/accuracy curves over
// training time, and simple text tables matching the rows of the paper's
// figures and tables.
package trace

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// StepRecord is one training step's measurement on one rank.
type StepRecord struct {
	Step     int
	Duration time.Duration
	Loss     float64
	// ActiveProcesses is the NAP observed for the step's gradient exchange
	// (equal to the world size for synchronous SGD).
	ActiveProcesses int
	// Included reports whether this rank's fresh gradient made it into the
	// step's global gradient (always true for synchronous SGD).
	Included bool
}

// ThroughputRecorder accumulates step records and derives throughput
// statistics.
type ThroughputRecorder struct {
	records []StepRecord
	total   time.Duration
}

// NewThroughputRecorder returns an empty recorder.
func NewThroughputRecorder() *ThroughputRecorder { return &ThroughputRecorder{} }

// Add appends one step record.
func (r *ThroughputRecorder) Add(rec StepRecord) {
	r.records = append(r.records, rec)
	r.total += rec.Duration
}

// Steps returns the number of recorded steps.
func (r *ThroughputRecorder) Steps() int { return len(r.records) }

// TotalTime returns the cumulative step time.
func (r *ThroughputRecorder) TotalTime() time.Duration { return r.total }

// StepsPerSecond returns the average throughput over all recorded steps.
func (r *ThroughputRecorder) StepsPerSecond() float64 {
	if r.total <= 0 || len(r.records) == 0 {
		return 0
	}
	return float64(len(r.records)) / r.total.Seconds()
}

// MeanActiveProcesses returns the mean NAP across recorded steps.
func (r *ThroughputRecorder) MeanActiveProcesses() float64 {
	if len(r.records) == 0 {
		return 0
	}
	var s float64
	for _, rec := range r.records {
		s += float64(rec.ActiveProcesses)
	}
	return s / float64(len(r.records))
}

// InclusionRate returns the fraction of steps whose fresh gradient was
// included.
func (r *ThroughputRecorder) InclusionRate() float64 {
	if len(r.records) == 0 {
		return 0
	}
	n := 0
	for _, rec := range r.records {
		if rec.Included {
			n++
		}
	}
	return float64(n) / float64(len(r.records))
}

// Records returns a copy of the recorded steps.
func (r *ThroughputRecorder) Records() []StepRecord {
	return append([]StepRecord(nil), r.records...)
}

// CurvePoint is one (x, y) sample of a training curve: x is typically
// cumulative training time in seconds, y a loss or accuracy.
type CurvePoint struct {
	X float64
	Y float64
}

// Curve is a named series of curve points, e.g. "eager-SGD (solo) top-1 test
// accuracy" as a function of training time — the data behind Figs. 10–13.
type Curve struct {
	Name   string
	Points []CurvePoint
}

// Add appends a point.
func (c *Curve) Add(x, y float64) { c.Points = append(c.Points, CurvePoint{X: x, Y: y}) }

// Last returns the final point, or a zero point if empty.
func (c *Curve) Last() CurvePoint {
	if len(c.Points) == 0 {
		return CurvePoint{}
	}
	return c.Points[len(c.Points)-1]
}

// Table is a simple text table with a caption, used to print the rows of the
// paper's tables and figure summaries.
type Table struct {
	Caption string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given caption and column headers.
func NewTable(caption string, headers ...string) *Table {
	return &Table{Caption: caption, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case time.Duration:
			row[i] = x.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(x float64) string {
	switch {
	case x == math.Trunc(x) && math.Abs(x) < 1e9:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RenderCurves formats a set of curves as a long-form table
// (series, x, y) — a plottable text representation of a figure.
func RenderCurves(caption string, xLabel, yLabel string, curves ...*Curve) string {
	t := NewTable(caption, "series", xLabel, yLabel)
	for _, c := range curves {
		for _, p := range c.Points {
			t.AddRow(c.Name, p.X, p.Y)
		}
	}
	return t.Render()
}
