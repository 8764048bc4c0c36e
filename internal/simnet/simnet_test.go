package simnet_test

import (
	"testing"
	"time"

	"eagersgd/internal/simnet"
)

// TestStreamDeterminism pins the SplitMix64 sequence: same seed, same draws;
// distinct derived seeds, distinct streams.
func TestStreamDeterminism(t *testing.T) {
	a := simnet.NewStream(42)
	b := simnet.NewStream(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %x vs %x", i, av, bv)
		}
	}
	s1 := simnet.DeriveSeed(7, 1, 2, 3)
	s2 := simnet.DeriveSeed(7, 1, 2, 3)
	s3 := simnet.DeriveSeed(7, 1, 3, 2)
	if s1 != s2 {
		t.Fatalf("DeriveSeed not deterministic: %x vs %x", s1, s2)
	}
	if s1 == s3 {
		t.Fatalf("DeriveSeed ignored id order: both %x", s1)
	}
}

// TestSeedDomainsPinned pins the seed-derivation domains and the seeds the
// sweep derives from them: a change to either changes every curve simsweep
// draws at a given root seed.
func TestSeedDomainsPinned(t *testing.T) {
	if simnet.DomainSkew != 2 || simnet.DomainWire != 3 {
		t.Fatalf("domains moved: skew %d, wire %d; want 2, 3", simnet.DomainSkew, simnet.DomainWire)
	}
	for _, tc := range []struct {
		ids  []uint64
		want uint64
	}{
		{[]uint64{simnet.DomainSkew, 0}, 0xed37e86986dd56a3},
		{[]uint64{simnet.DomainSkew, 1}, 0x8aefb2af83fca67b},
		{[]uint64{simnet.DomainWire, 0}, 0x712b20bdce4b2dfc},
	} {
		if got := simnet.DeriveSeed(1, tc.ids...); got != tc.want {
			t.Fatalf("DeriveSeed(1, %v) = %#x, want %#x", tc.ids, got, tc.want)
		}
	}
}

// TestModelsSampleDeterministically checks each model family produces the
// same sequence for the same seed, stays within its stated bounds, and
// round-trips through ParseModel.
func TestModelsSampleDeterministically(t *testing.T) {
	models := []string{
		"constant:2ms",
		"uniform:1ms,8ms",
		"pareto:200us,1.2,500ms",
		"trace:1ms,2ms,50ms",
		"tracealigned:1ms,2ms,50ms",
		"3ms", // bare-duration shorthand
	}
	for _, spec := range models {
		m, err := simnet.ParseModel(spec)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", spec, err)
		}
		// String() must re-parse to an equivalent model (spec round-trip).
		if _, err := simnet.ParseModel(m.String()); err != nil {
			t.Fatalf("ParseModel(%q).String()=%q does not re-parse: %v", spec, m.String(), err)
		}
		s1, s2 := m.Sampler(99), m.Sampler(99)
		for i := 0; i < 200; i++ {
			v1, v2 := s1.Next(), s2.Next()
			if v1 != v2 {
				t.Fatalf("%s: draw %d diverged: %d vs %d", spec, i, v1, v2)
			}
			if v1 < 0 {
				t.Fatalf("%s: negative duration %d", spec, v1)
			}
		}
	}
}

func TestModelBounds(t *testing.T) {
	u := simnet.Uniform(time.Millisecond, 8*time.Millisecond).Sampler(1)
	for i := 0; i < 1000; i++ {
		v := u.Next()
		if v < int64(time.Millisecond) || v > int64(8*time.Millisecond) {
			t.Fatalf("uniform draw %d outside [1ms,8ms]", v)
		}
	}
	p := simnet.Pareto(200*time.Microsecond, 1.2, 500*time.Millisecond).Sampler(1)
	for i := 0; i < 1000; i++ {
		v := p.Next()
		if v < int64(200*time.Microsecond) || v > int64(500*time.Millisecond) {
			t.Fatalf("pareto draw %d outside [200us cap 500ms]", v)
		}
	}
}

func TestParseModelRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "nope", "gauss:1ms", "uniform:8ms,1ms", "uniform:1ms",
		"pareto:1ms,0,2ms", "pareto:1ms,x,2ms", "trace:", "constant:fast",
	} {
		if _, err := simnet.ParseModel(spec); err == nil {
			t.Errorf("ParseModel(%q) accepted a bad spec", spec)
		}
	}
}
