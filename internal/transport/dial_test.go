package transport

import (
	"net"
	"testing"
	"time"
)

func TestDialRetryWaitsForLateListener(t *testing.T) {
	// Reserve a port, close it, and only re-listen after a delay: the dialer
	// must ride its backoff across the gap instead of failing on the first
	// refused connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	accepted := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial side will report the failure
		}
		defer ln2.Close()
		if c, err := ln2.Accept(); err == nil {
			c.Close()
			close(accepted)
		}
	}()

	conn, err := dialRetry(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dialRetry did not survive a 150ms-late listener: %v", err)
	}
	conn.Close()
	select {
	case <-accepted:
	case <-time.After(time.Second):
		t.Fatal("listener never observed the accepted connection")
	}
}

func TestDialRetryExhaustsBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nobody listens here for the rest of the test

	start := time.Now()
	if _, err := dialRetry(addr, 100*time.Millisecond); err == nil {
		t.Fatal("dialRetry succeeded against a closed port")
	}
	// The budget is a total window, not per attempt: with exponential backoff
	// capped at the remaining time, exhaustion must land near the window.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget exhaustion took %v, want ~100ms", elapsed)
	}
}

func TestNewTCPEndpointsRetryBuildsWorld(t *testing.T) {
	eps, err := newTCPEndpointsRetry(3, 23450, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		ep.Close()
	}
}

func TestNewTCPEndpointsRetryFailsFastOnOccupiedPort(t *testing.T) {
	// Squat on the base port so rank 0's bind fails. The ranks above it are
	// then waiting for a dial that will never come; construction must
	// surface rank 0's bind error within the retry budget instead of
	// deadlocking in their accept loops. This is live exposure for elastic
	// worlds: epoch transitions take fresh port blocks from a cursor, which
	// can land on a port the kernel handed to an unrelated ephemeral
	// connection.
	squatter, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	base := squatter.Addr().(*net.TCPAddr).Port

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := newTCPEndpointsRetry(3, base, 500*time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("construction succeeded with the base port occupied")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("failure took %v, want within the ~500ms budget", elapsed)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("newTCPEndpointsRetry deadlocked on an occupied base port")
	}
}
