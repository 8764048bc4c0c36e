package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestThroughputRecorder(t *testing.T) {
	r := NewThroughputRecorder()
	if r.StepsPerSecond() != 0 || r.MeanActiveProcesses() != 0 || r.InclusionRate() != 0 {
		t.Fatal("empty recorder must report zeros")
	}
	r.Add(StepRecord{Step: 0, Duration: 100 * time.Millisecond, Loss: 2, ActiveProcesses: 4, Included: true})
	r.Add(StepRecord{Step: 1, Duration: 300 * time.Millisecond, Loss: 4, ActiveProcesses: 2, Included: false})
	if r.Steps() != 2 {
		t.Fatalf("Steps = %d", r.Steps())
	}
	if r.TotalTime() != 400*time.Millisecond {
		t.Fatalf("TotalTime = %v", r.TotalTime())
	}
	if math.Abs(r.StepsPerSecond()-5) > 1e-9 {
		t.Fatalf("StepsPerSecond = %v", r.StepsPerSecond())
	}
	if r.MeanActiveProcesses() != 3 || r.InclusionRate() != 0.5 {
		t.Fatalf("aggregates wrong: %v %v", r.MeanActiveProcesses(), r.InclusionRate())
	}
	if len(r.Records()) != 2 {
		t.Fatal("Records copy wrong")
	}
	// Records must return a copy, not the internal slice header.
	recs := r.Records()
	recs[0].Loss = 999
	if r.Records()[0].Loss == 999 {
		t.Fatal("Records leaked internal storage")
	}
}

func TestCurve(t *testing.T) {
	c := &Curve{Name: "acc"}
	if c.Last() != (CurvePoint{}) {
		t.Fatal("empty curve accessors wrong")
	}
	c.Add(1, 0.5)
	c.Add(2, 0.8)
	c.Add(3, 0.7)
	if c.Last() != (CurvePoint{X: 3, Y: 0.7}) {
		t.Fatal("Last wrong")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := NewTable("Table 1. Networks", "model", "params", "speedup", "time")
	tab.AddRow("resnet-50", 25559081, 1.25, 1500*time.Millisecond)
	tab.AddRow("lstm", 34663525.0, 1.27, time.Second)
	out := tab.Render()
	for _, want := range []string{"Table 1. Networks", "model", "resnet-50", "25559081", "1.250", "1.5s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloatBranches(t *testing.T) {
	tab := NewTable("", "v")
	tab.AddRow(3.0)
	tab.AddRow(123.456)
	tab.AddRow(0.123456)
	if tab.Rows[0][0] != "3" || tab.Rows[1][0] != "123.5" || tab.Rows[2][0] != "0.123" {
		t.Fatalf("float formatting: %v", tab.Rows)
	}
}

func TestRenderCurves(t *testing.T) {
	a := &Curve{Name: "eager"}
	a.Add(1, 0.5)
	b := &Curve{Name: "synch"}
	b.Add(2, 0.6)
	out := RenderCurves("Figure 10", "time", "loss", a, b)
	for _, want := range []string{"Figure 10", "eager", "synch", "series", "time", "loss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered curves missing %q:\n%s", want, out)
		}
	}
}
