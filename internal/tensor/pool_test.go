package tensor

import (
	"sync"
	"testing"

	"eagersgd/internal/race"
)

func TestGetVectorLengthsAndClassCaps(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 32}, {31, 32}, {32, 32}, {33, 64}, {64, 64}, {65, 128},
		{1024, 1024}, {1025, 2048}, {maxPoolCap, maxPoolCap},
	}
	for _, c := range cases {
		v := GetVector(c.n)
		if len(v) != c.n {
			t.Fatalf("GetVector(%d): len = %d", c.n, len(v))
		}
		if cap(v) != c.wantCap {
			t.Fatalf("GetVector(%d): cap = %d, want %d", c.n, cap(v), c.wantCap)
		}
		PutVector(v)
	}
}

// TestNewClassVectorHasLeaseCapacity: NewClassVector(n) has the capacity a
// GetVector(n) miss leases at, so PutVector files it in the class GetVector(n)
// leases from; beyond the classes it is a plain allocation.
func TestNewClassVectorHasLeaseCapacity(t *testing.T) {
	for _, n := range []int{1, 31, 32, 33, 1025, 1<<18 + 1, maxPoolCap} {
		v := NewClassVector(n)
		if len(v) != n || cap(v) != classCap(classForLen(n)) {
			t.Fatalf("NewClassVector(%d): len %d cap %d, want len %d cap %d", n, len(v), cap(v), n, classCap(classForLen(n)))
		}
		if classForCap(cap(v)) != classForLen(n) {
			t.Fatalf("NewClassVector(%d) is filed in class %d, leased from %d", n, classForCap(cap(v)), classForLen(n))
		}
	}
	for _, n := range []int{0, maxPoolCap + 1} {
		if v := NewClassVector(n); len(v) != n || cap(v) != n {
			t.Fatalf("NewClassVector(%d): len %d cap %d, want both %d", n, len(v), cap(v), n)
		}
	}
}

func TestGetVectorZeroLength(t *testing.T) {
	v := GetVector(0)
	if v == nil || len(v) != 0 {
		t.Fatalf("GetVector(0) = %v", v)
	}
	PutVector(v) // must not panic
}

func TestGetVectorNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative length")
		}
	}()
	GetVector(-1)
}

func TestGetVectorOversizedAllocatesDirectly(t *testing.T) {
	v := GetVector(4 * maxPoolCap)
	if len(v) != 4*maxPoolCap {
		t.Fatalf("len = %d", len(v))
	}
	before := ReadPoolStats()
	PutVector(v) // far too large for any class: dropped
	after := ReadPoolStats()
	if after.Discards != before.Discards+1 {
		t.Fatalf("oversized Put not discarded: %+v -> %+v", before, after)
	}
}

// TestPutGetReusesBuffer asserts that a released vector comes back from a
// Get of the same size class (cap 128). sync.Pool promises no single reuse,
// and under the race detector its Put drops a random quarter of the items,
// so the assertion is over many Put/Get pairs: a pool that reuses nothing
// fails every one of them.
func TestPutGetReusesBuffer(t *testing.T) {
	const pairs = 64
	reused := 0
	for i := 0; i < pairs; i++ {
		v := GetVector(100)
		v.Fill(3)
		PutVector(v)
		w := GetVector(70)
		if &w[0] == &v[0] {
			reused++
		}
		PutVector(w)
	}
	if reused == 0 {
		t.Fatalf("pool reused no released buffer in %d Put/Get pairs", pairs)
	}
}

func TestGetVectorZeroClearsRecycledContents(t *testing.T) {
	v := GetVector(64)
	v.Fill(42)
	PutVector(v)
	w := GetVectorZero(64)
	for i, x := range w {
		if x != 0 {
			t.Fatalf("element %d = %v, want 0", i, x)
		}
	}
	PutVector(w)
}

func TestPutVectorForeignCapacities(t *testing.T) {
	before := ReadPoolStats()
	PutVector(nil)                 // never a lease: silent no-op, not a discard
	PutVector(make(Vector, 5))     // cap below the smallest class: dropped
	PutVector(make(Vector, 0, 40)) // cap 40 serves class 0 (cap 32)
	after := ReadPoolStats()
	if after.Discards != before.Discards+1 {
		t.Fatalf("discards: %+v -> %+v", before, after)
	}
	if after.Puts != before.Puts+1 {
		t.Fatalf("puts: %+v -> %+v", before, after)
	}
	// The odd-capacity buffer must still satisfy a class-0 lease.
	v := GetVector(30)
	if len(v) != 30 {
		t.Fatalf("len = %d", len(v))
	}
	PutVector(v)
}

func TestPoolConcurrentStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 2 + (g*131+i*17)%4096
				v := GetVector(n)
				v[0] = float64(g)
				v[n-1] = float64(i)
				if v[0] != float64(g) || v[n-1] != float64(i) {
					t.Errorf("corrupted lease")
					return
				}
				PutVector(v)
			}
		}(g)
	}
	wg.Wait()
}

func TestGetPutCycleAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	// Warm the class and box pools.
	for i := 0; i < 16; i++ {
		PutVector(GetVector(1024))
	}
	avg := testing.AllocsPerRun(200, func() {
		v := GetVector(1024)
		v[0] = 1
		PutVector(v)
	})
	if avg > 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f objects per cycle, want 0", avg)
	}
}
