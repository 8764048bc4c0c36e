package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

// drain collects messages from an inbox until it would block.
func drainInbox(in <-chan comm.Message) []comm.Message {
	var out []comm.Message
	for {
		select {
		case m, ok := <-in:
			if !ok {
				return out
			}
			out = append(out, m)
		case <-time.After(50 * time.Millisecond):
			return out
		}
	}
}

func payload(vals ...float64) tensor.Vector {
	v := tensor.GetVector(len(vals))
	copy(v, vals)
	return v
}

// sendFates replays n sends over a fresh injector with the given scenario and
// records which message indices were delivered (in delivery order).
func sendFates(t *testing.T, sc Scenario, n int) []float64 {
	t.Helper()
	hub := transport.NewHub(2)
	inj := NewInjector(2, sc)
	ep0 := inj.Wrap(hub.Endpoint(0))
	ep1 := inj.Wrap(hub.Endpoint(1))
	for i := 0; i < n; i++ {
		if err := ep0.Send(1, comm.Message{Source: 0, Tag: 7, Data: payload(float64(i))}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Let delayed/reordered deliveries settle before draining.
	time.Sleep(30 * time.Millisecond)
	var got []float64
	for _, m := range drainInbox(ep1.Inbox()) {
		got = append(got, m.Data[0])
		tensor.PutVector(m.Data)
	}
	hub.Close()
	inj.Close()
	return got
}

func TestDropsAreDeterministicPerSeed(t *testing.T) {
	sc := Scenario{Seed: 42, Default: LinkRule{Drop: 0.5}}
	a := sendFates(t, sc, 64)
	b := sendFates(t, sc, 64)
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("drop=0.5 delivered %d of 64 — injector not active", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sendFates(t, Scenario{Seed: 43, Default: LinkRule{Drop: 0.5}}, 64)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestCutDropsEverything(t *testing.T) {
	sc := Scenario{}
	sc.CutOneWay(0, 1)
	if got := sendFates(t, sc, 16); len(got) != 0 {
		t.Fatalf("cut link delivered %d messages", len(got))
	}
}

func TestDelayPreservesFIFOOrder(t *testing.T) {
	sc := Scenario{Seed: 9, Default: LinkRule{DelayProb: 0.7, DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond}}
	got := sendFates(t, sc, 32)
	if len(got) != 32 {
		t.Fatalf("delay-only link lost messages: got %d of 32", len(got))
	}
	for i := range got {
		if got[i] != float64(i) {
			t.Fatalf("delayed link reordered: position %d holds %v", i, got[i])
		}
	}
}

func TestReorderBreaksOrderButLosesNothing(t *testing.T) {
	sc := Scenario{Seed: 5, Default: LinkRule{Reorder: 0.5, DelayMax: 4 * time.Millisecond}}
	got := sendFates(t, sc, 64)
	if len(got) != 64 {
		t.Fatalf("reorder link lost messages: got %d of 64", len(got))
	}
	inOrder := true
	seen := make(map[float64]bool)
	for i, v := range got {
		if v != float64(i) {
			inOrder = false
		}
		seen[v] = true
	}
	if len(seen) != 64 {
		t.Fatalf("reorder link duplicated or lost payloads: %d distinct of 64", len(seen))
	}
	if inOrder {
		t.Fatal("reorder=0.5 over 64 messages delivered in exact FIFO order")
	}
}

func TestCrashSemantics(t *testing.T) {
	hub := transport.NewHub(3)
	inj := NewInjector(3, Scenario{CrashAtStep: map[int]int{1: 2}})
	eps := make([]comm.Endpoint, 3)
	for r := range eps {
		eps[r] = inj.Wrap(hub.Endpoint(r))
	}

	// Crash-at-step is per-rank deterministic: two steps of rank 1 kill it.
	if inj.Crashed(1) {
		t.Fatal("rank 1 crashed before any step")
	}
	inj.AdvanceStep(1)
	if inj.Crashed(1) {
		t.Fatal("rank 1 crashed one step early")
	}
	inj.AdvanceStep(1)
	if !inj.Crashed(1) {
		t.Fatal("rank 1 did not crash at its scripted step")
	}

	// The crashed rank's own sends fail with ErrCrashed.
	if err := eps[1].Send(0, comm.Message{Source: 1, Tag: 1, Data: payload(1)}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send from crashed rank: err = %v, want ErrCrashed", err)
	}
	// Its inbox closes, so its communicator observes a dead transport.
	select {
	case _, ok := <-eps[1].Inbox():
		if ok {
			t.Fatal("crashed rank received a message")
		}
	case <-time.After(time.Second):
		t.Fatal("crashed rank's inbox did not close")
	}
	// Traffic to it is black-holed without an error (the sender cannot tell).
	if err := eps[0].Send(1, comm.Message{Source: 0, Tag: 1, Data: payload(2)}); err != nil {
		t.Fatalf("send to crashed rank: %v", err)
	}
	// Live links keep working.
	if err := eps[0].Send(2, comm.Message{Source: 0, Tag: 1, Data: payload(3)}); err != nil {
		t.Fatalf("send between live ranks: %v", err)
	}
	got := drainInbox(eps[2].Inbox())
	if len(got) != 1 || got[0].Data[0] != 3 {
		t.Fatalf("live link delivered %v", got)
	}
	tensor.PutVector(got[0].Data)
	hub.Close()
	inj.Close()
}

// TestSignalCrashesNotifiesSurvivors: a signaled crash reaches a survivor as
// a failure message in its wrapped inbox, with cause ErrCrashed, after every
// frame the crashed rank sent before it died — and it is queued even though
// nobody reads that inbox until after the crash.
func TestSignalCrashesNotifiesSurvivors(t *testing.T) {
	hub := transport.NewHub(2)
	inj := NewInjector(2, Scenario{SignalCrashes: true})
	ep0 := inj.Wrap(hub.Endpoint(0))
	ep1 := inj.Wrap(hub.Endpoint(1))

	if err := ep1.Send(0, comm.Message{Source: 1, Tag: 3, Data: payload(7)}); err != nil {
		t.Fatalf("send before the crash: %v", err)
	}
	inj.Crash(1)
	got := drainInbox(ep0.Inbox())
	if len(got) != 2 {
		t.Fatalf("survivor received %d messages, want the frame then the crash notice", len(got))
	}
	if got[0].Err != nil || got[0].Source != 1 || got[0].Data[0] != 7 {
		t.Fatalf("first message = %+v, want the frame rank 1 sent before crashing", got[0])
	}
	tensor.PutVector(got[0].Data)
	if got[1].Source != 1 || !errors.Is(got[1].Err, ErrCrashed) {
		t.Fatalf("second message = %+v, want rank 1's failure with cause ErrCrashed", got[1])
	}
	hub.Close()
	inj.Close()
}

func TestScenarioString(t *testing.T) {
	sc := Scenario{Name: "lossy", Seed: 3, Default: LinkRule{Drop: 0.25}, CrashAtStep: map[int]int{2: 5}, SignalCrashes: true}
	sc.CutOneWay(0, 1)
	s := sc.String()
	for _, want := range []string{"lossy", "seed=3", "drop=0.25", "0->1", "cut", "crash[2]@step5", "signaled"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Scenario.String() = %q, missing %q", s, want)
		}
	}
}

func TestIsolateRankCutsBothDirections(t *testing.T) {
	hub := transport.NewHub(2)
	inj := NewInjector(2, Scenario{})
	ep0 := inj.Wrap(hub.Endpoint(0))
	ep1 := inj.Wrap(hub.Endpoint(1))
	inj.IsolateRank(1)
	if err := ep0.Send(1, comm.Message{Source: 0, Tag: 1, Data: payload(1)}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := ep1.Send(0, comm.Message{Source: 1, Tag: 1, Data: payload(2)}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := drainInbox(ep1.Inbox()); len(got) != 0 {
		t.Fatalf("isolated rank received %d messages", len(got))
	}
	if got := drainInbox(ep0.Inbox()); len(got) != 0 {
		t.Fatalf("messages escaped an isolated rank: %d", len(got))
	}
	hub.Close()
	inj.Close()
}

// TestLinkFirstUsedAfterCloseIsBornClosed is the regression test for a hang
// in Close: a link whose first message arrived after Close had snapshotted
// the link table was created open, nothing ever closed it, and its delivery
// worker — counted in the injector's wait group — waited forever, so the next
// Close (World.Close after the epoch's own) never returned. A link created by
// a closed injector must refuse the message and start no worker.
func TestLinkFirstUsedAfterCloseIsBornClosed(t *testing.T) {
	hub := transport.NewHub(2)
	defer hub.Close()
	inj := NewInjector(2, Scenario{Seed: 1, Default: LinkRule{DelayProb: 1, DelayMin: time.Millisecond, DelayMax: time.Millisecond}})
	inj.Close()

	before := tensor.ReadPoolStats()
	if ls := inj.link(0, 1); !ls.closed {
		t.Error("a link created after Close is open")
	}
	inj.enqueueFIFO(0, delayedMsg{ep: hub.Endpoint(0), dest: 1, m: comm.Message{Source: 0, Tag: 7, Data: payload(1, 2, 3)}})
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Errorf("the refused message's payload was not released (%d leases outstanding)", n)
	}

	closed := make(chan struct{})
	go func() {
		inj.Close() // waits for every delivery worker
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs on the worker of a link first used after Close")
	}
}
