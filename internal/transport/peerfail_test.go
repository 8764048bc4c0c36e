package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// until some unrelated timeout. With the failure delivered in band, the death
// is scoped to that peer, the blocked exchange
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

// nextMessage returns the next message of an endpoint's inbox, failing the
// test when none arrives within five seconds or the inbox closes.
func nextMessage(t *testing.T, inbox <-chan comm.Message) comm.Message {
	t.Helper()
	select {
	case m, ok := <-inbox:
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no message within 5s")
	}
	return comm.Message{}
}

// expectFrame checks that m is a frame (not a failure) from source with the
// given tag and length, and releases its payload.
func expectFrame(t *testing.T, m comm.Message, source, tag, n int) {
	t.Helper()
	if m.Err != nil {
		t.Fatalf("failure %v (source %d) overtook a frame the peer sent before it", m.Err, m.Source)
	}
	if m.Source != source || m.Tag != tag || len(m.Data) != n {
		t.Fatalf("frame source %d tag %d len %d, want %d/%d/%d", m.Source, m.Tag, len(m.Data), source, tag, n)
	}
	tensor.PutVector(m.Data)
}

// expectFailure checks that m is the in-band failure of source with a cause
// wrapping want.
func expectFailure(t *testing.T, m comm.Message, source int, want error) {
	t.Helper()
	if m.Err == nil {
		tensor.PutVector(m.Data)
		t.Fatalf("got a frame (source %d tag %d), want the failure of rank %d", m.Source, m.Tag, source)
	}
	if m.Source != source || m.Data != nil {
		t.Fatalf("failure message names rank %d with %d elements, want rank %d and no data", m.Source, len(m.Data), source)
	}
	if !errors.Is(m.Err, want) {
		t.Fatalf("failure cause = %v, want it to wrap %v", m.Err, want)
	}
}

// TestPeerEOFIsReportedInBand: a peer process exiting cleanly (EOF on its
// connections) is a rank failure for the survivors — reported in the
// survivor's inbox after the frames the peer sent before exiting, while the
// survivor's endpoint stays open. A clean exit is not a read error.
func TestPeerEOFIsReportedInBand(t *testing.T) {
	eps := dialTCPPair(t, 23180)
	defer eps[0].Close()
	if err := eps[1].Send(0, comm.Message{Source: 1, Tag: 4, Data: leasedVector(8, 0)}); err != nil {
		t.Fatal(err)
	}
	// Rank 1's process "exits": its endpoint closes, sending EOF to rank 0.
	eps[1].Close()
	expectFrame(t, nextMessage(t, eps[0].Inbox()), 1, 4, 8)
	expectFailure(t, nextMessage(t, eps[0].Inbox()), 1, io.EOF)
	if err := eps[0].ReadError(); err != nil {
		t.Fatalf("ReadError = %v after a clean peer exit, want nil", err)
	}
}

// TestPeerDownAfterItsLastFrames: what a peer sent before it exited reaches a
// receiver blocked on it before the peer's death does. Rank 1 sends a small
// and a large frame and closes while rank 0 waits in a receive naming it: both
// frames must be received, and only the next receive fails, with a
// PeerDownError wrapping io.EOF. A failure report that travels beside the
// inbox instead of through it overtakes frames still queued there.
func TestPeerDownAfterItsLastFrames(t *testing.T) {
	const (
		trials = 200
		tag    = 9
	)
	worlds := []struct {
		name string
		make func() ([]*comm.Communicator, error)
	}{
		{"tcp", func() ([]*comm.Communicator, error) { return NewTCPWorld(2, 23240) }},
		{"shm", func() ([]*comm.Communicator, error) { return NewShmWorld(2), nil }},
	}
	sizes := []int{3, 32 << 10}
	payloads := make([]tensor.Vector, len(sizes))
	for i, n := range sizes {
		payloads[i] = tensor.NewVector(n)
		payloads[i].Fill(float64(i + 1))
	}
	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			before := tensor.ReadPoolStats()
			failed, first := 0, error(nil)
			for i := 0; i < trials; i++ {
				w, err := wc.make()
				if err != nil {
					t.Skipf("transport unavailable in this environment: %v", err)
				}
				got := make(chan error, 1)
				go func() {
					for _, n := range sizes {
						v, _, err := w[0].RecvTimeout(1, tag, nil, 0)
						if err != nil {
							got <- fmt.Errorf("frame of %d elements: %w", n, err)
							return
						}
						m := len(v)
						tensor.PutVector(v)
						if m != n {
							got <- fmt.Errorf("frame of %d elements, want %d", m, n)
							return
						}
					}
					v, _, err := w[0].RecvTimeout(1, tag, nil, 0)
					tensor.PutVector(v)
					if !errors.Is(err, comm.ErrPeerDown) || !errors.Is(err, io.EOF) {
						err = fmt.Errorf("receive after the last frame: err = %v, want a PeerDownError wrapping io.EOF", err)
					} else {
						err = nil
					}
					got <- err
				}()
				for _, p := range payloads {
					if err := w[1].SendCopy(0, tag, p, nil); err != nil {
						t.Fatalf("trial %d: send: %v", i, err)
					}
				}
				w[1].Close()
				select {
				case err := <-got:
					if err != nil {
						if failed++; first == nil {
							first = fmt.Errorf("trial %d: %w", i, err)
						}
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("trial %d: receiver still blocked 10s after the peer closed", i)
				}
				w[0].Close()
			}
			if failed > 0 {
				t.Errorf("%d of %d trials lost frames to the peer's death; first: %v", failed, trials, first)
			}
			if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
				t.Errorf("%d leases leaked", n)
			}
		})
	}
}
