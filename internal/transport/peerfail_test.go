package transport

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// dialTCPPair builds a two-rank TCP world on the given ports, skipping the
// test when loopback TCP is unavailable.
func dialTCPPair(t *testing.T, basePort int) [2]*TCPEndpoint {
	t.Helper()
	eps, err := NewTCPEndpoints(2, basePort)
	if err != nil {
		t.Skipf("TCP unavailable in this environment: %v", err)
	}
	return [2]*TCPEndpoint{eps[0], eps[1]}
}

// TestSendRecvSurfacesPeerReadLoopDeath is the regression test for the
// blocked-forever class: an exchange whose peer's read loop died used to hang
// until some unrelated timeout. With the failure notifier wired (as every
// communicator does), the death is scoped to that peer, the blocked exchange
// returns a typed PeerDownError, and the root cause — the endpoint's recorded
// ReadError — is in the error chain instead of a bare timeout.
func TestSendRecvSurfacesPeerReadLoopDeath(t *testing.T) {
	eps := dialTCPPair(t, 23100)
	c0 := comm.NewCommunicator(eps[0])
	c1 := comm.NewCommunicator(eps[1])
	defer c0.Close()
	defer c1.Close()

	type result struct {
		v   tensor.Vector
		err error
	}
	done := make(chan result, 1)
	go func() {
		// Rank 1 exchanges with rank 0; rank 0 never answers because its
		// stream to rank 1 is about to die.
		if err := c1.SendCopy(0, 5, make(tensor.Vector, 4), nil); err != nil {
			done <- result{nil, err}
			return
		}
		v, _, err := c1.RecvTimeout(0, 5, nil, 0)
		done <- result{v, err}
	}()
	time.Sleep(20 * time.Millisecond)

	// Corrupt rank 0's stream toward rank 1: an oversized length header kills
	// rank 1's read loop for that connection.
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[8:12], 0xfffffff0)
	if _, err := eps[0].writers[1].conn.Write(hdr[:]); err != nil {
		t.Fatalf("write corrupt frame: %v", err)
	}

	select {
	case r := <-done:
		if r.err == nil {
			tensor.PutVector(r.v)
			t.Fatal("SendRecv succeeded although the peer's read loop died")
		}
		if !errors.Is(r.err, comm.ErrPeerDown) {
			t.Fatalf("err = %v, want ErrPeerDown", r.err)
		}
		if !errors.Is(r.err, ErrFrameTooLarge) {
			t.Fatalf("err = %v does not surface the read loop's decode failure", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SendRecv still blocked after the peer's read loop died")
	}
	if err := eps[1].ReadError(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadError = %v, want ErrFrameTooLarge", err)
	}
	// The failure is scoped to the dead peer: the endpoint itself stays open,
	// and rank 1 can tell exactly who died.
	if c1.PeerError(0) == nil {
		t.Fatal("peer 0 not marked down on rank 1's communicator")
	}
}

// TestCanceledExchangeReturnsOnSilentPeer pins the ctx half of the contract:
// even without transport-level detection (the peer is silent, not dead), a
// canceled exchange returns promptly.
func TestCanceledExchangeReturnsOnSilentPeer(t *testing.T) {
	eps := dialTCPPair(t, 23140)
	c0 := comm.NewCommunicator(eps[0])
	c1 := comm.NewCommunicator(eps[1])
	defer c0.Close()
	defer c1.Close()

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		err := c1.SendCopy(0, 6, make(tensor.Vector, 4), cancel)
		if err == nil {
			_, _, err = c1.RecvTimeout(0, 6, cancel, 0)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, comm.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled exchange did not return")
	}
}

// TestPeerEOFMarksPeerDownWithNotifier: a peer process exiting cleanly (EOF
// on its connections) is a rank failure for the survivors — with a notifier
// registered, the survivor marks it down instead of closing its endpoint.
func TestPeerEOFMarksPeerDownWithNotifier(t *testing.T) {
	eps := dialTCPPair(t, 23180)
	c0 := comm.NewCommunicator(eps[0])
	defer c0.Close()

	var mu sync.Mutex
	var failed []int
	eps[0].NotifyPeerFailure(func(rank int, cause error) {
		mu.Lock()
		failed = append(failed, rank)
		mu.Unlock()
	})
	// Rank 1's process "exits": its endpoint closes, sending EOF to rank 0.
	eps[1].Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(failed)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer EOF not reported to the failure notifier")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if failed[0] != 1 {
		t.Fatalf("failed = %v, want [1]", failed)
	}
	mu.Unlock()
}
