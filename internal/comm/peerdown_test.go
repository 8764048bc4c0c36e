package comm_test

import (
	"errors"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
	"eagersgd/internal/transport"
)

func TestMarkPeerDownWakesBlockedRecv(t *testing.T) {
	w := transport.NewInprocWorld(2)
	defer w[0].Close()
	cause := errors.New("synthetic failure")
	done := make(chan error, 1)
	go func() {
		_, _, err := w[0].Recv(1, 5)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w[0].MarkPeerDown(1, cause)
	select {
	case err := <-done:
		if !errors.Is(err, comm.ErrPeerDown) {
			t.Fatalf("err = %v, want ErrPeerDown", err)
		}
		if !errors.Is(err, cause) {
			t.Fatalf("err = %v does not unwrap to the recorded cause", err)
		}
		var pd *comm.PeerDownError
		if !errors.As(err, &pd) || pd.Rank != 1 {
			t.Fatalf("err = %v, want PeerDownError for rank 1", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on MarkPeerDown")
	}
}

func TestQueuedMessageBeatsDownMarking(t *testing.T) {
	// A payload that arrived before the peer died must still be deliverable.
	w := transport.NewInprocWorld(2)
	defer w[0].Close()
	v := tensor.GetVector(1)
	v[0] = 42
	if err := w[1].Send(0, 9, v); err != nil {
		t.Fatalf("send: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // let the demux queue it
	w[0].MarkPeerDown(1, nil)
	got, _, err := w[0].Recv(1, 9)
	if err != nil {
		t.Fatalf("queued message not delivered after marking: %v", err)
	}
	if got[0] != 42 {
		t.Fatalf("payload = %v", got[0])
	}
	tensor.PutVector(got)
	// The next receive fails fast.
	if _, _, err := w[0].Recv(1, 9); !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("second recv err = %v, want ErrPeerDown", err)
	}
}

func TestSendToDownPeerFailsFast(t *testing.T) {
	w := transport.NewInprocWorld(2)
	defer w[0].Close()
	w[0].MarkPeerDown(1, nil)
	v := tensor.GetVector(4)
	if err := w[0].Send(1, 1, v); !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("Send err = %v, want ErrPeerDown", err)
	}
	if err := w[0].SendCopy(1, 1, make(tensor.Vector, 4), nil); !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("SendCopy err = %v, want ErrPeerDown", err)
	}
}

func TestRecvTimeoutMarksPeerDown(t *testing.T) {
	w := transport.NewInprocWorld(2)
	defer w[0].Close()
	_, _, err := w[0].RecvTimeout(1, 3, nil, 30*time.Millisecond)
	if !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
	if !errors.Is(err, comm.ErrPeerDeadline) {
		t.Fatalf("err = %v does not carry ErrPeerDeadline as cause", err)
	}
	if cause := w[0].PeerError(1); !errors.Is(cause, comm.ErrPeerDeadline) {
		t.Fatalf("PeerError(1) = %v, want the deadline cause", cause)
	}
}

func TestRecvTimeoutDeliversWithinDeadline(t *testing.T) {
	w := transport.NewInprocWorld(2)
	defer w[0].Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		v := tensor.GetVector(1)
		v[0] = 7
		w[1].Send(0, 3, v)
	}()
	got, _, err := w[0].RecvTimeout(1, 3, nil, 5*time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if got[0] != 7 {
		t.Fatalf("payload = %v", got[0])
	}
	tensor.PutVector(got)
	if w[0].PeerError(1) != nil {
		t.Fatal("peer marked down although it delivered in time")
	}
}

func TestOnPeerDownReplaysExistingMarkings(t *testing.T) {
	w := transport.NewInprocWorld(3)
	defer w[0].Close()
	w[0].MarkPeerDown(2, nil)
	var seen []int
	w[0].OnPeerDown(func(rank int) { seen = append(seen, rank) })
	if len(seen) != 1 || seen[0] != 2 {
		t.Fatalf("replay = %v, want [2]", seen)
	}
	w[0].MarkPeerDown(1, nil)
	w[0].MarkPeerDown(1, nil) // idempotent: no second notification
	if len(seen) != 2 || seen[1] != 1 {
		t.Fatalf("notifications = %v, want [2 1]", seen)
	}
}

func TestCloseReleasesUnexpectedQueue(t *testing.T) {
	before := tensor.ReadPoolStats()
	w := transport.NewInprocWorld(2)
	// Park messages in rank 0's unexpected queue that no receive ever claims.
	for i := 0; i < 8; i++ {
		if err := w[1].Send(0, 100+i, tensor.GetVectorZero(16)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	for w[0].Pending() < 8 {
		time.Sleep(time.Millisecond)
	}
	w[0].Close()
	w[1].Close()
	after := tensor.ReadPoolStats()
	if n := after.OutstandingSince(before); n != 0 {
		t.Fatalf("close leaked %d pool leases via the unexpected queue%s", n, tensor.FormatLeaseReport())
	}
}

// TestExchangeDeadlineSurfacesPeerDown: an exchange with a silent peer —
// SendCopy then RecvTimeout with a deadline — fails typed instead of blocking,
// with and without a cancel channel.
func TestExchangeDeadlineSurfacesPeerDown(t *testing.T) {
	w := transport.NewInprocWorld(2)
	defer w[0].Close()
	data := make(tensor.Vector, 4)
	if err := w[0].SendCopy(1, 1, data, nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := w[0].RecvTimeout(1, 1, nil, 30*time.Millisecond)
	if !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
	// With a cancel channel (the cancelable path) the behaviour is the same.
	w2 := transport.NewInprocWorld(2)
	defer w2[0].Close()
	cancel := make(chan struct{})
	defer close(cancel)
	if err := w2[0].SendCopy(1, 1, data, cancel); err != nil {
		t.Fatal(err)
	}
	_, _, err = w2[0].RecvTimeout(1, 1, cancel, 30*time.Millisecond)
	if !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("cancelable err = %v, want ErrPeerDown", err)
	}
}
