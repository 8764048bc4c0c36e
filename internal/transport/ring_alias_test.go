package transport

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// aliasTestElems is large enough to cross the aliasMinBytes floor (16 KiB)
// while staying a complete frame in a 256 KiB ring (maxRec 64 KiB).
const aliasTestElems = 4096

// vectorAliasesRing reports whether v's backing array lies inside r's data
// area — i.e. whether the ring delivered a zero-copy view.
func vectorAliasesRing(r *ringBuffer, v tensor.Vector) bool {
	if len(v) == 0 {
		return false
	}
	addr := uintptr(unsafe.Pointer(&v[0]))
	base := uintptr(unsafe.Pointer(&r.data[0]))
	return addr >= base && addr < base+uintptr(len(r.data))
}

// TestRingAliasDeliveryZeroCopy: a large complete frame must be delivered as
// a view of the ring span — no pool lease taken, head pinned until the
// receiver releases the view, then advanced past the record.
func TestRingAliasDeliveryZeroCopy(t *testing.T) {
	r := newRing(1 << 18)
	defer r.retireAliases()
	done := make(chan struct{})
	defer close(done)

	want := leasedVector(aliasTestElems, 7)
	snapshot := append(tensor.Vector(nil), want...)
	if err := r.enqueue(comm.Message{Source: 1, Tag: 2, Data: want}, done, true); err != nil {
		t.Fatal(err)
	}
	before := tensor.ReadPoolStats()
	m := drainOne(t, r)
	if !vectorAliasesRing(r, m.Data) {
		tensor.PutVector(m.Data)
		t.Skip("alias delivery unavailable on this architecture (portable wire codec)")
	}
	if got := tensor.ReadPoolStats().Gets - before.Gets; got != 0 {
		t.Fatalf("alias delivery took %d pool leases, want 0 (that is the copy it exists to remove)", got)
	}
	if m.Source != 1 || m.Tag != 2 || len(m.Data) != aliasTestElems {
		t.Fatalf("header mangled: %+v", m)
	}
	for i := range snapshot {
		if m.Data[i] != snapshot[i] {
			t.Fatalf("aliased payload differs at element %d", i)
		}
	}
	if h := r.head.Load(); h != 0 {
		t.Fatalf("head advanced to %d while the alias is still held", h)
	}
	wantPos := uint64(recordSpan(12 + 8*aliasTestElems))
	if r.consPos != wantPos {
		t.Fatalf("consPos = %d, want %d", r.consPos, wantPos)
	}
	tensor.PutVector(m.Data)
	if h := r.head.Load(); h != wantPos {
		t.Fatalf("head = %d after release, want %d", h, wantPos)
	}
}

// TestRingAliasOutOfOrderRelease: releasing aliases out of order only frees
// ring space up to the oldest unreleased one — head advances in record order,
// never past a held view, and a trailing copied record drains with the last
// release.
func TestRingAliasOutOfOrderRelease(t *testing.T) {
	r := newRing(1 << 18)
	defer r.retireAliases()
	done := make(chan struct{})
	defer close(done)

	for i := 0; i < 3; i++ {
		if err := r.enqueue(comm.Message{Tag: i, Data: leasedVector(aliasTestElems, float64(i))}, done, true); err != nil {
			t.Fatal(err)
		}
	}
	// A small frame rides behind the aliases on the copy path.
	if err := r.enqueue(comm.Message{Tag: 3, Data: leasedVector(8, 99)}, done, true); err != nil {
		t.Fatal(err)
	}
	var msgs [4]comm.Message
	for i := range msgs {
		msgs[i] = drainOne(t, r)
	}
	if !vectorAliasesRing(r, msgs[0].Data) {
		for _, m := range msgs {
			tensor.PutVector(m.Data)
		}
		t.Skip("alias delivery unavailable on this architecture (portable wire codec)")
	}
	if vectorAliasesRing(r, msgs[3].Data) {
		t.Fatal("small frame below the alias floor was aliased")
	}
	rec := uint64(recordSpan(12 + 8*aliasTestElems))

	tensor.PutVector(msgs[1].Data) // middle first: head must not move
	if h := r.head.Load(); h != 0 {
		t.Fatalf("head = %d after releasing the middle alias, want 0", h)
	}
	tensor.PutVector(msgs[0].Data) // oldest: frees the first two records
	if h := r.head.Load(); h != 2*rec {
		t.Fatalf("head = %d after releasing the oldest alias, want %d", h, 2*rec)
	}
	tensor.PutVector(msgs[2].Data) // last alias: the copied record drains too
	if h, want := r.head.Load(), r.consPos; h != want {
		t.Fatalf("head = %d after releasing every alias, want consPos %d", h, want)
	}
	if r.aliasActive.Load() {
		t.Fatal("alias tracking still active after the queue drained")
	}
	tensor.PutVector(msgs[3].Data) // an ordinary pool lease
}

// TestRingAliasBackpressure: held aliases pin ring space — a producer must
// block once the ring is full of unreleased views and resume when the
// receiver releases them, exactly like TCP socket-buffer backpressure.
func TestRingAliasBackpressure(t *testing.T) {
	r := newRing(1 << 17) // 128 KiB, maxRec 32 KiB
	defer r.retireAliases()
	done := make(chan struct{})
	defer close(done)
	const total = 12
	const elems = 2048 // 16 KiB payloads, exactly at the alias floor
	var sent atomic.Int32
	producer := make(chan struct{})
	go func() {
		defer close(producer)
		for i := 0; i < total; i++ {
			if err := r.enqueue(comm.Message{Tag: i, Data: leasedVector(elems, float64(i))}, done, true); err != nil {
				return
			}
			sent.Add(1)
		}
	}()

	var held []comm.Message
	rec := uint64(recordSpan(12 + 8*elems))
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, res, err := r.tryDequeue()
		if err != nil {
			t.Fatal(err)
		}
		if res == ringMsg {
			held = append(held, m)
		}
		// The producer is provably wedged once everything published has been
		// read, frames remain, and the next record cannot fit before head —
		// which is pinned at 0 by the held views.
		if int(sent.Load()) < total && r.consPos == r.tail.Load() &&
			r.tail.Load()-r.head.Load()+rec > r.mask+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer never blocked on held aliases (sent %d, held %d)", sent.Load(), len(held))
		}
		if res == ringEmpty {
			runtime.Gosched()
		}
	}
	if !vectorAliasesRing(r, held[0].Data) {
		for _, m := range held {
			tensor.PutVector(m.Data)
		}
		t.Skip("alias delivery unavailable on this architecture (portable wire codec)")
	}

	for _, m := range held {
		tensor.PutVector(m.Data)
	}
	for drained := len(held); drained < total; {
		m, res, err := r.tryDequeue()
		if err != nil {
			t.Fatal(err)
		}
		if res == ringMsg {
			tensor.PutVector(m.Data)
			drained++
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring did not drain after the aliases were released (%d of %d)", drained, total)
		}
	}
	// The last record is visible to the consumer before its enqueue returns:
	// join the producer before reading its count.
	select {
	case <-producer:
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after the ring drained")
	}
	if s := sent.Load(); s != total {
		t.Fatalf("producer finished %d of %d sends after the release", s, total)
	}
}

// TestRingAliasSubsliceRelease: releasing a sub-slice of the delivered view
// (a receiver trimming its vector) still frees the span — matching is by
// address containment, not slice identity.
func TestRingAliasSubsliceRelease(t *testing.T) {
	r := newRing(1 << 18)
	defer r.retireAliases()
	done := make(chan struct{})
	defer close(done)
	if err := r.enqueue(comm.Message{Data: leasedVector(aliasTestElems, 1)}, done, true); err != nil {
		t.Fatal(err)
	}
	m := drainOne(t, r)
	if !vectorAliasesRing(r, m.Data) {
		tensor.PutVector(m.Data)
		t.Skip("alias delivery unavailable on this architecture (portable wire codec)")
	}
	tensor.PutVector(m.Data[100:200])
	if h, want := r.head.Load(), r.consPos; h != want {
		t.Fatalf("head = %d after sub-slice release, want %d", h, want)
	}
}

// TestRingAliasRetireDeferred: a ring closed while a view is still held must
// stay in the alias table until the receiver releases the view — a release
// that no longer finds the ring would hand transport-owned memory to the
// pool.
func TestRingAliasRetireDeferred(t *testing.T) {
	r := newRing(1 << 18)
	done := make(chan struct{})
	defer close(done)
	if err := r.enqueue(comm.Message{Data: leasedVector(aliasTestElems, 3)}, done, true); err != nil {
		t.Fatal(err)
	}
	m := drainOne(t, r)
	if !vectorAliasesRing(r, m.Data) {
		tensor.PutVector(m.Data)
		r.retireAliases()
		t.Skip("alias delivery unavailable on this architecture (portable wire codec)")
	}
	registered := func() bool {
		aliasTable.mu.Lock()
		defer aliasTable.mu.Unlock()
		for _, reg := range aliasTable.rings {
			if reg == r {
				return true
			}
		}
		return false
	}
	r.retireAliases()
	if !registered() {
		t.Fatal("ring left the alias table while an alias was still held")
	}
	if m.Data[1] != 4 { // the span must still be readable
		t.Fatal("aliased payload corrupted before release")
	}
	before := tensor.ReadPoolStats()
	tensor.PutVector(m.Data)
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("late release reached the pool (%d leases), want it routed to the ring", n)
	}
	if registered() {
		t.Fatal("retired ring still registered in the alias table")
	}
}

// TestShmEndpointAliasRoundTrip: the full endpoint path delivers large frames
// as ring views through inbox and communicator, and closing the world with
// the view still held stays safe — the release after Close is routed back to
// the (already closed) ring without touching the pool.
func TestShmEndpointAliasRoundTrip(t *testing.T) {
	before := tensor.ReadPoolStats()
	hub := NewShmHub(2)
	a, b := hub.Endpoint(0), hub.Endpoint(1)

	payload := leasedVector(aliasTestElems, 5)
	if err := a.Send(1, comm.Message{Source: 0, Tag: 9, Data: payload}); err != nil {
		t.Fatal(err)
	}
	var m comm.Message
	select {
	case m = <-b.Inbox():
	case <-time.After(5 * time.Second):
		t.Fatal("large frame never arrived")
	}
	if m.Source != 0 || m.Tag != 9 || len(m.Data) != aliasTestElems || m.Data[10] != 15 {
		t.Fatalf("frame mangled: source %d tag %d len %d", m.Source, m.Tag, len(m.Data))
	}
	aliased := vectorAliasesRing(a.out[1], m.Data)

	hub.Close() // close with the view still held
	if m.Data[20] != 25 {
		t.Fatal("aliased payload unreadable after Close")
	}
	tensor.PutVector(m.Data)
	if !aliased {
		t.Skip("alias delivery unavailable on this architecture (portable wire codec)")
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("alias round trip leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
}
