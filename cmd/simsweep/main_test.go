package main

import (
	"strings"
	"testing"

	"eagersgd/internal/imbalance"
)

// TestParseSkewBuildsInjectors checks that each -skew kind builds the
// training stack's injector for the world size, seeded by -seed.
func TestParseSkewBuildsInjectors(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want imbalance.Injector
		name string
	}{
		{"none", imbalance.None{}, "none"},
		{" random:4,300 ", imbalance.RandomSubset{Size: 64, K: 4, Amount: 300, Seed: 7}, "random-4-of-64-300ms"},
		{"linear:1", imbalance.LinearSkew{StepMs: 1}, "linear-1ms"},
		{"shifted:50,400", imbalance.ShiftedSevere{Size: 64, MinMs: 50, MaxMs: 400}, "shifted-50-400ms"},
		{"cloud:2", imbalance.CloudNoise{Size: 64, K: 2, Seed: 7}, "cloud-noise"},
	} {
		got, err := parseSkew(tc.spec, 7, 64)
		if err != nil {
			t.Fatalf("parseSkew(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Errorf("parseSkew(%q) built %#v, want %#v", tc.spec, got, tc.want)
		}
		if got.Name() != tc.name {
			t.Errorf("parseSkew(%q) built %q, want %q", tc.spec, got.Name(), tc.name)
		}
	}
}

// TestParseSkewRejectsBadSpecs checks that unknown kinds, wrong argument
// counts and negative, non-numeric or fractional arguments are rejected with
// an error naming the spec.
func TestParseSkewRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "nope", "constant:0", "pareto:200us,1.2,500ms",
		"none:1", "random:4", "random:4,300,1", "linear:", "shifted:50", "cloud:1,2",
		"random:-1,300", "linear:-2", "shifted:400,50", "cloud:-3",
		"linear:fast", "random:4,4ms", "shifted:NaN,1", "linear:Inf", "random:2.5,300", "cloud:0.5",
	} {
		_, err := parseSkew(spec, 7, 64)
		if err == nil {
			t.Errorf("parseSkew(%q) accepted a bad spec", spec)
			continue
		}
		if !strings.Contains(err.Error(), spec) {
			t.Errorf("parseSkew(%q) error %q does not name the spec", spec, err)
		}
	}
}
