package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEventsAwait pins the churn runner's wait: a waiter returns as soon
// as its predicate holds, is woken by notify and by the end of the run, and
// gives up after its timeout.
func TestRunEventsAwait(t *testing.T) {
	newEvents := func() *runEvents { return &runEvents{done: make(chan struct{})} }
	// awaitAsync runs await on its own goroutine and reports its verdict.
	awaitAsync := func(e *runEvents, ready func() bool, timeout time.Duration) <-chan bool {
		out := make(chan bool, 1)
		go func() { out <- e.await(ready, timeout) }()
		return out
	}
	verdict := func(t *testing.T, got <-chan bool) bool {
		t.Helper()
		select {
		case v := <-got:
			return v
		case <-time.After(10 * time.Second):
			t.Fatal("await never returned")
			return false
		}
	}

	t.Run("ready_at_once", func(t *testing.T) {
		e := newEvents()
		if !e.await(func() bool { return true }, 0) {
			t.Fatal("await reported false for a predicate that already holds")
		}
	})

	t.Run("notify_wakes_waiter", func(t *testing.T) {
		e := newEvents()
		var flag atomic.Bool
		got := awaitAsync(e, flag.Load, 0)
		// Keep notifying until the waiter returns, so the test does not
		// depend on whether the waiter parked before the first notify.
		flag.Store(true)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			e.notify()
			select {
			case v := <-got:
				if !v {
					t.Fatal("await reported false after its predicate came true")
				}
				return
			case <-time.After(time.Millisecond):
			}
		}
		t.Fatal("await never returned")
	})

	t.Run("notify_without_waiters_allocates_nothing", func(t *testing.T) {
		e := newEvents()
		e.notify()
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.wake != nil {
			t.Fatal("notify with no waiter left a wake channel behind")
		}
	})

	t.Run("one_notify_wakes_every_waiter", func(t *testing.T) {
		e := newEvents()
		var flag atomic.Bool
		var parked sync.WaitGroup
		const waiters = 4
		results := make([]<-chan bool, waiters)
		for i := range results {
			parked.Add(1)
			first := true
			results[i] = awaitAsync(e, func() bool {
				if first {
					first = false
					parked.Done()
				}
				return flag.Load()
			}, 0)
		}
		// Every waiter has taken the shared wake channel before its first
		// check, so one notify after they all checked must wake all of them.
		parked.Wait()
		flag.Store(true)
		e.notify()
		for i, got := range results {
			if !verdict(t, got) {
				t.Fatalf("waiter %d reported false after its predicate came true", i)
			}
		}
	})

	t.Run("run_end_releases_unready_waiter", func(t *testing.T) {
		e := newEvents()
		got := awaitAsync(e, func() bool { return false }, 0)
		close(e.done)
		if verdict(t, got) {
			t.Fatal("await reported true for a predicate that never held")
		}
	})

	t.Run("run_end_rechecks_predicate", func(t *testing.T) {
		e := newEvents()
		var flag atomic.Bool
		got := awaitAsync(e, flag.Load, 0)
		// The predicate comes true with no notify; the end of the run
		// alone must make the waiter look again.
		flag.Store(true)
		close(e.done)
		if !verdict(t, got) {
			t.Fatal("await reported false although its predicate held when the run ended")
		}
	})

	t.Run("timeout_expires", func(t *testing.T) {
		e := newEvents()
		start := time.Now()
		if e.await(func() bool { return false }, 20*time.Millisecond) {
			t.Fatal("await reported true for a predicate that never held")
		}
		if waited := time.Since(start); waited < 20*time.Millisecond {
			t.Fatalf("await gave up after %v, before its 20ms timeout", waited)
		}
	})
}
