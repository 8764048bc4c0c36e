package sweep

import (
	"fmt"
	"testing"
	"time"

	"eagersgd/internal/imbalance"
)

// TestSweepGoldenAtZeroHop pins every curve of sync, solo, majority and
// quorum(5) over the five load kinds at 8 and 64 ranks, with no wire latency.
// With no crash and no flood window the activation machines must reproduce
// the closed form they replaced: a round activates at its earliest candidate
// arrival, everywhere at once, and its NAP counts the arrivals by then. The
// values were captured from that closed form; a missing or wrong entry is
// reported as the map line to paste.
func TestSweepGoldenAtZeroHop(t *testing.T) {
	want := map[string]string{
		"n=8/none/sync":                       "200 6.4e+08 640000000 640000000 640000000 8 8 8 8 128000000000",
		"n=8/none/solo":                       "200 6.4e+08 640000000 640000000 640000000 8 8 8 8 128000000000",
		"n=8/none/majority":                   "200 6.4e+08 640000000 640000000 640000000 8 8 8 8 128000000000",
		"n=8/none/quorum5":                    "200 6.4e+08 640000000 640000000 640000000 8 8 8 8 128000000000",
		"n=8/linear-1ms/sync":                 "200 6.48e+08 648000000 648000000 648000000 8 8 8 8 129600000000",
		"n=8/linear-1ms/solo":                 "200 6.41e+08 641000000 641000000 641000000 1 1 1 8 128200000000",
		"n=8/linear-1ms/majority":             "200 6.4798e+08 645000000 667000000 675000000 4.445 1 8 8 129596000000",
		"n=8/linear-1ms/quorum5":              "200 6.4531e+08 641000000 658000000 706000000 1.825 1 6 8 129062000000",
		"n=8/shifted-50-400ms/sync":           "200 1.04e+09 1040000000 1040000000 1040000000 8 8 8 8 208000000000",
		"n=8/shifted-50-400ms/solo":           "200 8.65e+08 840000000 1040000000 1040000000 1.875 1 8 8 173000000000",
		"n=8/shifted-50-400ms/majority":       "200 9.3625e+08 940000000 1190000000 1290000000 4.62 1 8 8 187250000000",
		"n=8/shifted-50-400ms/quorum5":        "200 8.69e+08 890000000 940000000 990000000 2.34 1 5 8 173800000000",
		"n=8/random-62-of-8-300ms/sync":       "200 9.4e+08 940000000 940000000 940000000 8 8 8 8 188000000000",
		"n=8/random-62-of-8-300ms/solo":       "200 9.4e+08 940000000 940000000 940000000 8 8 8 8 188000000000",
		"n=8/random-62-of-8-300ms/majority":   "200 9.4e+08 940000000 940000000 940000000 8 8 8 8 188000000000",
		"n=8/random-62-of-8-300ms/quorum5":    "200 9.4e+08 940000000 940000000 940000000 8 8 8 8 188000000000",
		"n=8/cloud-noise/sync":                "200 8.44145053005e+08 811754731 1090252289 1427924778 8 8 8 8 168829010601",
		"n=8/cloud-noise/solo":                "200 6.9953915323e+08 680712603 787725756 982283511 1 1 1 8 139907830646",
		"n=8/cloud-noise/majority":            "200 7.7171622401e+08 718493202 1030554632 1406925302 4.72 1 8 8 154343244802",
		"n=8/cloud-noise/quorum5":             "200 7.18739311825e+08 693337888 879515124 1009291777 1.945 1 7 8 143747862365",
		"n=64/none/sync":                      "200 6.4e+08 640000000 640000000 640000000 64 64 64 64 128000000000",
		"n=64/none/solo":                      "200 6.4e+08 640000000 640000000 640000000 64 64 64 64 128000000000",
		"n=64/none/majority":                  "200 6.4e+08 640000000 640000000 640000000 64 64 64 64 128000000000",
		"n=64/none/quorum5":                   "200 6.4e+08 640000000 640000000 640000000 64 64 64 64 128000000000",
		"n=64/linear-1ms/sync":                "200 7.04e+08 704000000 704000000 704000000 64 64 64 64 140800000000",
		"n=64/linear-1ms/solo":                "200 6.41e+08 641000000 641000000 641000000 1 1 1 64 128200000000",
		"n=64/linear-1ms/majority":            "200 7.03275e+08 681000000 833000000 1009000000 33.285 1 64 64 140655000000",
		"n=64/linear-1ms/quorum5":             "200 6.7744e+08 649000000 845000000 1046000000 10.075 1 40 64 135488000000",
		"n=64/shifted-50-400ms/sync":          "200 1.04e+09 1040000000 1040000000 1040000000 64 64 64 64 208000000000",
		"n=64/shifted-50-400ms/solo":          "200 8.5877777734e+08 856666666 1023333333 1040000000 1.945 1 64 64 171755555468",
		"n=64/shifted-50-400ms/majority":      "200 9.8944444401e+08 901111111 1617777778 1834444444 31.235 1 64 64 197888888802",
		"n=64/shifted-50-400ms/quorum5":       "200 8.82527777335e+08 840000000 1184444442 1378888888 11.93 1 37 64 176505555467",
		"n=64/random-62-of-64-300ms/sync":     "200 9.4e+08 940000000 940000000 940000000 64 64 64 64 188000000000",
		"n=64/random-62-of-64-300ms/solo":     "200 9.205e+08 940000000 940000000 940000000 2.23 1 12 64 184100000000",
		"n=64/random-62-of-64-300ms/majority": "200 9.4e+08 940000000 940000000 1240000000 62.76 2 64 64 188000000000",
		"n=64/random-62-of-64-300ms/quorum5":  "200 9.4e+08 940000000 1240000000 1240000000 55.73 2 64 64 188000000000",
		"n=64/cloud-noise/sync":               "200 1.108154794295e+09 1022935767 1620131752 2133000000 64 64 64 64 221630958859",
		"n=64/cloud-noise/solo":               "200 6.983939053e+08 683434974 798185253 930417504 1.005 1 2 64 139678781060",
		"n=64/cloud-noise/majority":           "200 7.76333535185e+08 717641628 1126268432 1322694248 32.4 1 64 64 155266707037",
		"n=64/cloud-noise/quorum5":            "200 7.1955567435e+08 699943016 840401719 981418428 12.25 1 38 64 143911134870",
	}
	pols := []Policy{{Name: "sync", Mode: "sync"}, {Name: "solo", Mode: "solo"}, {Name: "majority", Mode: "majority"}, {Name: "quorum5", Mode: "quorum", K: 5}}
	for _, n := range []int{8, 64} {
		for _, skew := range []imbalance.Injector{
			imbalance.None{},
			imbalance.LinearSkew{StepMs: 1},
			imbalance.ShiftedSevere{Size: n, MinMs: 50, MaxMs: 400},
			imbalance.RandomSubset{Size: n, K: 62, Amount: 300, Seed: 42},
			imbalance.CloudNoise{Size: n, K: 62, Seed: 42},
		} {
			curves, err := Run(Config{Seed: 42, Ranks: n, Steps: 200, BaseCompute: 640 * time.Millisecond, Skew: skew, Policies: pols})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, skew.Name(), err)
			}
			for _, c := range curves {
				key := fmt.Sprintf("n=%d/%s/%s", n, skew.Name(), c.Policy.Name)
				got := fmt.Sprintf("%d %v %d %d %d %v %d %d %d %d", c.Steps, c.MeanStepNs, c.P50StepNs, c.P95StepNs, c.P99StepNs,
					c.MeanNAP, c.MinNAP, c.MaxNAP, c.Survivors, c.TotalNs)
				if got != want[key] {
					t.Errorf("curve changed; want line:\n\t\t%q: %q,", key, got)
				}
			}
		}
	}
}
