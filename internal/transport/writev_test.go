package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/race"
	"eagersgd/internal/tensor"
)

// gatedBuffersConn is a net.Conn stub whose vectored-write hook blocks until
// the test releases it, so the test controls exactly when each write returns
// and can count how many writes were issued.
type gatedBuffersConn struct {
	gate    chan struct{} // one token admits one WriteBuffers call
	entered chan struct{} // signaled when a WriteBuffers call begins waiting

	mu    sync.Mutex
	calls int
	fail  error // returned (with a zero count) instead of writing
}

func newGatedBuffersConn() *gatedBuffersConn {
	return &gatedBuffersConn{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
}

func (c *gatedBuffersConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	c.entered <- struct{}{}
	<-c.gate
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.fail != nil {
		return 0, c.fail
	}
	var n int64
	for _, b := range *bufs {
		n += int64(len(b))
	}
	*bufs = nil
	return n, nil
}

func (c *gatedBuffersConn) Write(b []byte) (int, error) {
	panic("transport: vectored writer fell back to Write")
}
func (c *gatedBuffersConn) Read(b []byte) (int, error)         { select {} }
func (c *gatedBuffersConn) Close() error                       { return nil }
func (c *gatedBuffersConn) LocalAddr() net.Addr                { return nil }
func (c *gatedBuffersConn) RemoteAddr() net.Addr               { return nil }
func (c *gatedBuffersConn) SetDeadline(t time.Time) error      { return nil }
func (c *gatedBuffersConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *gatedBuffersConn) SetWriteDeadline(t time.Time) error { return nil }

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- conn
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		client.Close()
		t.Fatal("accept failed")
	}
	return client, server
}

// TestWriterConcurrentSendersFramesIntactInOrder sends M frames from each of
// N goroutines through one tcpWriter over a real loopback connection. Frames
// run up to 128 KiB, so a write can block mid-frame on a full socket buffer
// while the other senders wait: the stream must still decode to every frame
// intact with no interleaving, each sender's frames must arrive in send
// order, and every lease must be back.
func TestWriterConcurrentSendersFramesIntactInOrder(t *testing.T) {
	const senders, frames = 4, 128
	before := tensor.ReadPoolStats()
	client, server := loopbackPair(t)
	defer server.Close()
	w := newTCPWriter(client)
	defer client.Close()

	// Frame (s, k) carries length(s, k) elements; element i is value(s, k, i).
	length := func(s, k int) int { return 1 + (k*4099+s*1543)%(16<<10) }
	value := func(s, k, i int) float64 { return float64(s)*1e9 + float64(k)*1e5 + float64(i) }

	// The reader checks each header against the frame it expects before
	// reading the payload, so an interleaved stream fails at its first torn
	// header instead of trusting whatever length it announces.
	readErr := make(chan error, 1)
	go func() {
		var scratch []byte
		var hdr [12]byte
		next := make([]int, senders)
		for n := 0; n < senders*frames; n++ {
			if _, err := io.ReadFull(server, hdr[:]); err != nil {
				readErr <- fmt.Errorf("frame %d: header: %w", n, err)
				return
			}
			s := int(binary.LittleEndian.Uint32(hdr[0:4]))
			k := int(binary.LittleEndian.Uint32(hdr[4:8]))
			count := int(binary.LittleEndian.Uint32(hdr[8:12]))
			if s < 0 || s >= senders || k != next[s] || count != length(s, k) {
				readErr <- fmt.Errorf("frame %d: header (sender %d, frame %d, %d elements), want one of the next frames %v (interleaved frames?)", n, s, k, count, next)
				return
			}
			next[s]++
			v := tensor.GetVector(count)
			if err := readFloats(server, v, &scratch); err != nil {
				tensor.PutVector(v)
				readErr <- fmt.Errorf("sender %d frame %d: payload: %w", s, k, err)
				return
			}
			for i, x := range v {
				if x != value(s, k, i) {
					tensor.PutVector(v)
					readErr <- fmt.Errorf("sender %d frame %d element %d = %v, want %v (interleaved frames?)", s, k, i, x, value(s, k, i))
					return
				}
			}
			tensor.PutVector(v)
		}
		readErr <- nil
	}()

	var wg sync.WaitGroup
	sendErrs := make([]error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < frames; k++ {
				v := tensor.GetVector(length(s, k))
				for i := range v {
					v[i] = value(s, k, i)
				}
				if err := w.send(comm.Message{Source: s, Tag: k, Data: v}); err != nil {
					sendErrs[s] = fmt.Errorf("sender %d frame %d: %w", s, k, err)
					return
				}
			}
		}(s)
	}
	sendsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(sendsDone)
	}()
	// A reader that stops early stops draining the socket: close the
	// connection so senders blocked in writev fail instead of hanging.
	var err error
	select {
	case err = <-readErr:
	case <-time.After(10 * time.Second):
		err = errors.New("reader did not receive every frame")
	}
	if err != nil {
		client.Close()
		server.Close()
		<-sendsDone
		t.Fatal(err)
	}
	<-sendsDone
	for _, err := range sendErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("%d pool leases outstanding after every frame was sent and decoded%s", n, tensor.FormatLeaseReport())
	}
}

// TestWriterSendAllocFree: a steady-state send over a real connection
// allocates nothing. The header and the iovecs live on the writer, and the
// payload iovec aliases the pooled vector.
func TestWriterSendAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if tensor.LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	client, server := loopbackPair(t)
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, server)
		close(drained)
	}()
	defer func() {
		client.Close()
		server.Close()
		<-drained
	}()
	w := newTCPWriter(client)
	send := func() {
		if err := w.send(comm.Message{Source: 0, Tag: 1, Data: tensor.GetVector(4096)}); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm the pool
	if avg := testing.AllocsPerRun(200, send); avg > 0 {
		t.Fatalf("tcpWriter.send allocates %.2f objects per frame, want 0", avg)
	}
}

// TestDecodeFrameAllocFree holds the receive side of a TCP connection to zero
// allocations per frame: decoding pre-encoded frames of several sizes into
// pooled vectors, with the header and scratch buffers a read loop keeps.
func TestDecodeFrameAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	if tensor.LeaseDebugEnabled {
		t.Skip("-tags leasedebug trades the alloc-free guarantee for lease-site tracking")
	}
	sizes := []int{0, 1, 64, 4096}
	var wire []byte
	for i, n := range sizes {
		wire = appendFrame(wire, comm.Message{Source: i, Tag: 7, Data: make(tensor.Vector, n)})
	}
	r := bytes.NewReader(wire)
	var hdr [12]byte
	var scratch []byte
	decodeAll := func() {
		r.Reset(wire)
		for _, n := range sizes {
			m, err := decodeFrame(r, &hdr, &scratch)
			if err != nil || len(m.Data) != n {
				t.Fatalf("decodeFrame: %d elements, err %v; want %d", len(m.Data), err, n)
			}
			tensor.PutVector(m.Data)
		}
	}
	decodeAll() // warm the pool
	if avg := testing.AllocsPerRun(200, decodeAll) / float64(len(sizes)); avg > 0 {
		t.Fatalf("decodeFrame allocates %.2f objects per frame, want 0", avg)
	}
}

// waitMutexWaiterInSend waits until a goroutine is parked on a tcpWriter's
// mutex inside send, read off the goroutine stacks.
func waitMutexWaiterInSend(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "Mutex).lockSlow") && strings.Contains(g, "(*tcpWriter).send") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no sender parked on the writer's mutex")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterVectoredWriteFailureAttribution: the sender whose vectored write
// fails gets the error and its lease back in the pool; a sender queued on the
// writer's mutex behind that write gets the error without writing; and the
// error is sticky, so later sends fail fast.
func TestWriterVectoredWriteFailureAttribution(t *testing.T) {
	before := tensor.ReadPoolStats()
	conn := newGatedBuffersConn()
	w := newTCPWriter(conn)

	first := make(chan error, 1)
	go func() {
		first <- w.send(comm.Message{Source: 0, Tag: 0, Data: leasedVector(8, 0)})
	}()
	<-conn.entered // the first sender holds the mutex, blocked in writev

	second := make(chan error, 1)
	go func() {
		second <- w.send(comm.Message{Source: 0, Tag: 1, Data: leasedVector(8, 0)})
	}()
	waitMutexWaiterInSend(t)

	conn.mu.Lock()
	conn.fail = errors.New("connection reset by peer")
	conn.mu.Unlock()
	// The first write fails with zero bytes accepted. Closing the gate would
	// also let a second write through, which the call count below catches.
	close(conn.gate)

	if err := <-first; err == nil {
		t.Fatal("first send succeeded although its frame was never written")
	}
	if err := <-second; err == nil {
		t.Fatal("queued send succeeded behind a failed write")
	}
	// The error is sticky: later sends fail fast without writing.
	if err := w.send(comm.Message{Source: 0, Tag: 2, Data: leasedVector(8, 0)}); err == nil {
		t.Fatal("send after write failure succeeded")
	}
	conn.mu.Lock()
	calls := conn.calls
	conn.mu.Unlock()
	if calls != 1 {
		t.Fatalf("%d vectored writes issued, want 1: senders behind a failed write must not write", calls)
	}
	if n := tensor.ReadPoolStats().OutstandingSince(before); n != 0 {
		t.Fatalf("failed writes leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
}
