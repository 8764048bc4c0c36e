package harness

import (
	"strings"
	"testing"
)

func TestExperimentsListAndRunByID(t *testing.T) {
	exps := Experiments()
	if len(exps) < 10 {
		t.Fatalf("expected at least 10 experiments, got %d", len(exps))
	}
	ids := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig2", "fig3", "fig4", "table1", "fig9", "fig10", "fig11", "fig12", "fig13"} {
		if !ids[want] {
			t.Fatalf("experiment %q missing", want)
		}
	}
	if _, err := RunByID("nonexistent", QuickConfig()); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

func TestReportRender(t *testing.T) {
	r := newReport("figX", "A title")
	r.addNote("a note with value %.1f", 1.5)
	r.Values["x"] = 3
	out := r.Render()
	for _, want := range []string{"FIGX", "A title", "a note with value 1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if r.Value("x") != 3 || r.Value("missing") != 0 {
		t.Fatal("Value accessor wrong")
	}
}

func TestConfigClockScale(t *testing.T) {
	if (Config{}).clockScale(0.5) != 0.5 {
		t.Fatal("default clock scale not applied")
	}
	if (Config{ClockScale: 0.1}).clockScale(0.5) != 0.1 {
		t.Fatal("explicit clock scale ignored")
	}
}

func TestFig2VideoWorkloadQuick(t *testing.T) {
	r, err := Fig2VideoWorkload(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 || len(r.Curves) != 2 {
		t.Fatalf("fig2 should produce two tables and two curves, got %d/%d", len(r.Tables), len(r.Curves))
	}
	if r.Value("video/max-frames") <= r.Value("video/min-frames") {
		t.Fatal("video length range collapsed")
	}
	// The runtime distribution must have a heavy spread (inherent imbalance).
	if r.Value("video/std-runtime-ms") <= 0 {
		t.Fatal("zero runtime spread")
	}
	if r.Value("video/mean-runtime-ms") < 500 || r.Value("video/mean-runtime-ms") > 2500 {
		t.Fatalf("mean batch runtime %.0f ms implausible vs paper's 1,235 ms", r.Value("video/mean-runtime-ms"))
	}
}

func TestFig3TransformerWorkloadQuick(t *testing.T) {
	r, err := Fig3TransformerWorkload(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := r.Value("transformer/mean-runtime-ms")
	if mean < 350 || mean > 650 {
		t.Fatalf("transformer mean runtime %.0f ms implausible vs paper's 475 ms", mean)
	}
}

func TestFig4CloudWorkloadQuick(t *testing.T) {
	r, err := Fig4CloudWorkload(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := r.Value("cloud/mean-runtime-ms")
	if mean < 400 || mean > 600 {
		t.Fatalf("cloud mean runtime %.0f ms implausible vs paper's 454 ms", mean)
	}
	// Cloud imbalance (relative spread) must be lighter than the video
	// workload's, matching §2.3.
	video, err := Fig2VideoWorkload(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	cloudCV := r.Value("cloud/std-runtime-ms") / r.Value("cloud/mean-runtime-ms")
	videoCV := video.Value("video/std-runtime-ms") / video.Value("video/mean-runtime-ms")
	if cloudCV >= videoCV {
		t.Fatalf("cloud coefficient of variation %.2f should be below video's %.2f", cloudCV, videoCV)
	}
}

func TestTable1Networks(t *testing.T) {
	r, err := Table1Networks(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("table1 should have paper and reproduction tables, got %d", len(r.Tables))
	}
	out := r.Render()
	for _, want := range []string{"ResNet-50", "25559081", "Inception+LSTM", "hyperplane"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q", want)
		}
	}
}

func TestFig9MicrobenchmarkQuick(t *testing.T) {
	r, err := Fig9Microbenchmark(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Two tables: the latencies, and the partial engines' counters.
	if len(r.Tables) != 2 || len(r.Curves) != 5 {
		t.Fatalf("fig9 shape wrong: %d tables %d curves", len(r.Tables), len(r.Curves))
	}
	if out := r.Render(); !strings.Contains(out, "Partial engine counters") || !strings.Contains(out, "stale act.") {
		t.Fatalf("fig9 report does not print the engine counters:\n%s", out)
	}
	// The assertions below are latency RATIOS under a skew deliberately
	// replayed large (quick fig9Clock = 4.0): the synchronous allreduce is
	// structurally forced to wait out the slowest rank's ~32 ms delay while
	// solo returns after engine overhead only and majority waits for one
	// random initiator (~half the skew in expectation). The injected delays
	// dominate scheduler and race-detector noise by an order of magnitude, so
	// the thresholds — widened well below the structural ratios (solo
	// measures >5x, majority >1.5x here; the paper reports 53.3x and 2.5x) —
	// hold deterministically with and without -race.
	soloSpeedup := r.Value("speedup/solo-mean")
	majSpeedup := r.Value("speedup/majority-mean")
	if soloSpeedup <= 2 {
		t.Fatalf("solo allreduce speedup %.2f should comfortably exceed 2 under 4x-replayed skew", soloSpeedup)
	}
	if majSpeedup <= 1.1 {
		t.Fatalf("majority allreduce speedup %.2f should exceed 1.1 under 4x-replayed skew", majSpeedup)
	}
	if soloSpeedup <= majSpeedup {
		t.Fatalf("solo speedup %.2f should exceed majority speedup %.2f", soloSpeedup, majSpeedup)
	}
	// NAP: solo near 1, majority well above solo and at least ~P/3.
	p := experimentParams(QuickConfig())
	bytes := p.fig9Sizes[0] * 8
	soloNAP := r.Value(keyNAP("solo", bytes))
	majNAP := r.Value(keyNAP("majority", bytes))
	if soloNAP < 1 || soloNAP > float64(p.fig9Procs)/2 {
		t.Fatalf("solo NAP %.2f should be small (near 1)", soloNAP)
	}
	if majNAP <= soloNAP {
		t.Fatalf("majority NAP %.2f should exceed solo NAP %.2f", majNAP, soloNAP)
	}
}

func keyNAP(mode string, bytes int) string {
	return "nap/" + mode + "/" + itoa(bytes)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestFig10HyperplaneQuick(t *testing.T) {
	r, err := Fig10Hyperplane(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := experimentParams(QuickConfig())
	inj := p.fig10Injections[0]
	synchKey := "synch-deep500"
	soloKey := "eager-solo"
	synchTP := r.Value(valueKey("throughput", synchKey, inj))
	soloTP := r.Value(valueKey("throughput", soloKey, inj))
	if synchTP <= 0 || soloTP <= 0 {
		t.Fatalf("missing throughput values: %v %v", synchTP, soloTP)
	}
	if soloTP <= synchTP {
		t.Fatalf("eager-SGD throughput %.2f should exceed synch-SGD %.2f under injected imbalance", soloTP, synchTP)
	}
	// Loss equivalence: eager's final validation loss must be within 3x of
	// synch's (the paper reports equivalence; quick runs are short, so allow
	// slack while still catching divergence).
	synchLoss := r.Value(valueKey("loss", synchKey, inj))
	soloLoss := r.Value(valueKey("loss", soloKey, inj))
	if soloLoss > synchLoss*3+0.5 {
		t.Fatalf("eager-SGD validation loss %.3f diverged from synch-SGD %.3f", soloLoss, synchLoss)
	}
}

func valueKey(metric, variant string, inj float64) string {
	return metric + "/" + variant + "/" + itoa(int(inj))
}

func TestFig12CifarSevereQuick(t *testing.T) {
	r, err := Fig12CifarSevere(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	synchTP := r.Value("throughput/synch-horovod")
	soloTP := r.Value("throughput/eager-solo")
	majTP := r.Value("throughput/eager-majority")
	if !(soloTP > majTP && majTP > synchTP) {
		t.Fatalf("throughput ordering violated: solo %.2f, majority %.2f, synch %.2f (want solo > majority > synch)", soloTP, majTP, synchTP)
	}
	// Accuracy sanity: every variant must do better than chance.
	p := experimentParams(QuickConfig())
	chance := 1.0 / float64(p.fig12Classes)
	for _, k := range []string{"top1/synch-horovod", "top1/eager-majority"} {
		if r.Value(k) < chance {
			t.Fatalf("%s accuracy %.2f below chance %.2f", k, r.Value(k), chance)
		}
	}
}

func TestFig13VideoLSTMQuick(t *testing.T) {
	r, err := Fig13VideoLSTM(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	synchTP := r.Value("throughput/synch-horovod")
	soloTP := r.Value("throughput/eager-solo")
	majTP := r.Value("throughput/eager-majority")
	if !(soloTP > synchTP && majTP > synchTP) {
		t.Fatalf("eager variants should beat synch under inherent imbalance: solo %.2f, majority %.2f, synch %.2f", soloTP, majTP, synchTP)
	}
	if soloTP <= majTP {
		t.Fatalf("solo throughput %.2f should exceed majority %.2f", soloTP, majTP)
	}
	for _, k := range []string{"top5/synch-horovod", "top5/eager-majority", "top5/eager-solo"} {
		if r.Value(k) <= 0 {
			t.Fatalf("%s missing", k)
		}
	}
}

func TestQuorumSpectrumQuick(t *testing.T) {
	r, err := QuorumSpectrum(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := experimentParams(QuickConfig())
	napMajority := r.Value("nap/candidates-1")
	napSolo := r.Value(("nap/candidates-" + itoa(p.fig10Procs)))
	if napMajority <= napSolo {
		t.Fatalf("majority-like quorum NAP %.2f should exceed solo-like NAP %.2f", napMajority, napSolo)
	}
}

func TestScalingSummaryQuick(t *testing.T) {
	r, err := ScalingSummary(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Value("throughput/single") <= 0 {
		t.Fatal("single-process throughput missing")
	}
	if r.Value("speedup/eager-solo") <= r.Value("speedup/synch-deep500")*0.8 {
		t.Fatalf("eager scaling speedup %.2f should not fall far below synch %.2f",
			r.Value("speedup/eager-solo"), r.Value("speedup/synch-deep500"))
	}
}

func TestFig11ImageNetLightQuick(t *testing.T) {
	r, err := Fig11ImageNetLight(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := experimentParams(QuickConfig())
	inj := p.fig11Injections[0]
	deepTP := r.Value(valueKey("throughput", "synch-deep500", inj))
	horoTP := r.Value(valueKey("throughput", "synch-horovod", inj))
	soloTP := r.Value(valueKey("throughput", "eager-solo", inj))
	if deepTP <= 0 || horoTP <= 0 || soloTP <= 0 {
		t.Fatalf("missing throughput values: %v %v %v", deepTP, horoTP, soloTP)
	}
	if soloTP <= deepTP || soloTP <= horoTP {
		t.Fatalf("eager-SGD %.2f should beat both synch baselines (%.2f deep500, %.2f horovod)", soloTP, deepTP, horoTP)
	}
	chance := 1.0 / float64(p.fig11Classes)
	if r.Value(valueKey("top1", "eager-solo", inj)) < chance {
		t.Fatalf("eager top-1 below chance")
	}
}
