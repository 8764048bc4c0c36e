package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// maxFrameElements bounds the payload of a single TCP frame. 64M float64
// elements (512 MiB) is far above any gradient exchanged in this repository
// and protects the reader from corrupt length headers: a reader that trusted
// a hostile or corrupt length would try to allocate up to 32 GiB before
// failing.
const maxFrameElements = 64 << 20

// ErrFrameTooLarge is wrapped by decode errors for frames whose length header
// exceeds maxFrameElements.
var ErrFrameTooLarge = errors.New("transport: frame exceeds element limit")

// TCPConfig describes a TCP job: the addresses of every rank, indexed by
// rank, and this process's rank.
type TCPConfig struct {
	Rank      int
	Addrs     []string      // listen address of every rank, e.g. "127.0.0.1:9000"
	DialRetry time.Duration // total time to keep retrying dials (default 5s)
}

// TCPEndpoint implements comm.Endpoint over one duplex TCP connection per
// peer pair. Rank i accepts connections from ranks j < i and dials ranks
// j > i, so exactly one connection exists between every pair.
type TCPEndpoint struct {
	rank  int
	size  int
	inbox chan comm.Message
	done  chan struct{} // closed by Close; unblocks in-flight local deliveries

	mu      sync.Mutex
	writers []*tcpWriter // indexed by peer rank; nil for self
	ln      net.Listener
	closed  bool
	wg      sync.WaitGroup // read loops
	senders sync.WaitGroup // in-flight deliverLocal calls; drained before closing the inbox

	readMu  sync.Mutex
	readErr error // first read-loop decode/IO failure, kept for diagnostics
}

// tcpWriter owns one peer connection's write half. A send holds the mutex
// for one vectored write of its frame (net.Buffers / writev, see
// flushBuffers): a 12-byte header and the payload. Frames from concurrent
// senders therefore never interleave on the socket, and each sender's frames
// leave in the order it sent them. On little-endian targets the payload iovec
// aliases the pooled vector's backing array, so the frame is never copied in
// user space: the kernel reads the vector during writev, and the lease is
// released once the write returns (see encodePayload). The portable fallback
// converts into a staging buffer the writer keeps. Either way a steady-state
// send allocates nothing.
//
// A write failure is sticky: the failed sender gets the error, and so does
// every later sender, without writing. A write stuck on a peer that stopped
// draining its socket holds the mutex, which is the backpressure the
// Endpoint.Send contract advertises; Close unblocks it by closing the
// connection, which fails the write.
type tcpWriter struct {
	conn net.Conn

	mu   sync.Mutex
	hdr  [12]byte
	iov  [2][]byte   // backing array of bufs: header, payload
	bufs net.Buffers // the frame's iovecs; the write consumes them
	enc  []byte      // staging buffer of the portable encoder, reused
	err  error       // first write failure; sticky
}

// buffersWriter lets tests intercept the vectored write; *net.TCPConn goes
// through net.Buffers.WriteTo, which issues a single writev per frame.
type buffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

// flushBuffers hands one frame's iovecs to the connection.
func flushBuffers(conn net.Conn, bufs *net.Buffers) (int64, error) {
	if bw, ok := conn.(buffersWriter); ok {
		return bw.WriteBuffers(bufs)
	}
	return bufs.WriteTo(conn)
}

func newTCPWriter(conn net.Conn) *tcpWriter {
	return &tcpWriter{conn: conn}
}

// send writes m as one frame and returns once the kernel has accepted all of
// it, or the write failed. It consumes m.Data on every path.
func (w *tcpWriter) send(m comm.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		tensor.PutVector(m.Data)
		return w.err
	}
	putFrameHeader(w.hdr[:], m)
	var retained tensor.Vector
	w.bufs, retained, w.enc = encodePayload(append(w.iov[:0], w.hdr[:]), m.Data, w.enc)
	_, err := flushBuffers(w.conn, &w.bufs)
	// The kernel is done with the payload iovec, written or not: the Send
	// contract consumed the lease, and non-delivery is reported below.
	tensor.PutVector(retained)
	if err != nil {
		w.err = err
	}
	return err
}

// NewTCPEndpoint establishes the full mesh of connections described by cfg
// and returns a ready endpoint. It blocks until every peer connection is
// established or the dial retry budget is exhausted.
func NewTCPEndpoint(cfg TCPConfig) (*TCPEndpoint, error) {
	size := len(cfg.Addrs)
	if size == 0 {
		return nil, fmt.Errorf("transport: empty address list")
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("transport: rank %d out of range for %d addresses", cfg.Rank, size)
	}
	retry := cfg.DialRetry
	if retry <= 0 {
		retry = 5 * time.Second
	}
	ep := &TCPEndpoint{
		rank:    cfg.Rank,
		size:    size,
		inbox:   make(chan comm.Message, DefaultInboxDepth),
		done:    make(chan struct{}),
		writers: make([]*tcpWriter, size),
	}

	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Rank], err)
	}
	ep.ln = ln

	var acceptErr error
	var acceptWG sync.WaitGroup
	expected := cfg.Rank // ranks below us dial in
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		// The accept phase shares the dial-retry budget. A lower rank that
		// failed to start — lost its bind race (epoch port blocks can land on
		// an in-use ephemeral port), or died before dialing — will never dial
		// in; without a deadline every sibling would sit in Accept forever
		// and mesh construction would deadlock instead of surfacing that
		// rank's error.
		deadline := time.Now().Add(retry)
		tl, _ := ln.(*net.TCPListener)
		for i := 0; i < expected; i++ {
			if tl != nil {
				tl.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
					err = fmt.Errorf("transport: rank %d accepted %d of %d expected peer connections within %v (a lower rank likely failed to start): %w",
						cfg.Rank, i, expected, retry, err)
				}
				acceptErr = err
				return
			}
			var hdr [4]byte
			conn.SetReadDeadline(deadline) // handshake must not outwait the phase
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				acceptErr = fmt.Errorf("transport: handshake read: %w", err)
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			peer := int(binary.LittleEndian.Uint32(hdr[:]))
			if peer < 0 || peer >= size {
				acceptErr = fmt.Errorf("transport: handshake from invalid rank %d", peer)
				conn.Close()
				return
			}
			tuneConn(conn)
			ep.mu.Lock()
			ep.writers[peer] = newTCPWriter(conn)
			ep.mu.Unlock()
		}
		if tl != nil {
			tl.SetDeadline(time.Time{})
		}
	}()

	// Dial every higher rank, retrying until its listener is up.
	for peer := cfg.Rank + 1; peer < size; peer++ {
		conn, err := dialRetry(cfg.Addrs[peer], retry)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("transport: dial rank %d (%s): %w", peer, cfg.Addrs[peer], err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(cfg.Rank))
		if _, err := conn.Write(hdr[:]); err != nil {
			ln.Close()
			return nil, fmt.Errorf("transport: handshake write to rank %d: %w", peer, err)
		}
		tuneConn(conn)
		ep.writers[peer] = newTCPWriter(conn)
	}

	acceptWG.Wait()
	if acceptErr != nil {
		ln.Close()
		return nil, acceptErr
	}

	for peer, w := range ep.writers {
		if peer == cfg.Rank || w == nil {
			continue
		}
		ep.wg.Add(1)
		go ep.readLoop(peer, w.conn)
	}
	return ep, nil
}

// tuneConn applies the latency-sensitive socket options. TCP_NODELAY is Go's
// default for TCP connections, but the pipelined collectives depend on small
// segment frames leaving immediately, so it is asserted explicitly rather
// than inherited.
func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// Dial backoff shape: start small so a listener that is already up costs one
// extra round trip at most, double up to a cap so a slow-starting peer (or a
// joiner dialing a world mid-reconfiguration) is not hammered, and jitter each
// sleep by up to half so a whole world bootstrapping at once does not dial in
// lockstep. The budget remains the total wall-clock window across attempts.
const (
	dialBackoffFloor = 2 * time.Millisecond
	dialBackoffCeil  = 250 * time.Millisecond
)

func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := dialBackoffFloor
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, err
		}
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		if backoff < dialBackoffCeil {
			backoff *= 2
		}
	}
}

// Rank returns this endpoint's rank.
func (e *TCPEndpoint) Rank() int { return e.rank }

// Size returns the number of ranks in the job.
func (e *TCPEndpoint) Size() int { return e.size }

// Inbox returns the stream of messages addressed to this rank: decoded
// frames, and a failure message (comm.Message.Err) after the last frame of a
// peer whose connection died.
func (e *TCPEndpoint) Inbox() <-chan comm.Message { return e.inbox }

// Send writes m as a length-prefixed frame to the destination connection,
// in one vectored write (see tcpWriter). Sending to
// self forwards the payload to the local inbox without any encoding. Send
// consumes m.Data: after the frame is encoded the vector is released to the
// pool, and on every error path it is released as well, so the caller (the
// comm layer) never owns the payload after Send.
func (e *TCPEndpoint) Send(dest int, m comm.Message) error {
	if dest < 0 || dest >= e.size {
		tensor.PutVector(m.Data)
		return fmt.Errorf("transport: destination %d out of range [0,%d)", dest, e.size)
	}
	if dest == e.rank {
		return e.deliverLocal(m)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		tensor.PutVector(m.Data)
		return ErrClosed
	}
	w := e.writers[dest]
	e.mu.Unlock()
	if w == nil {
		tensor.PutVector(m.Data)
		return fmt.Errorf("transport: no connection to rank %d", dest)
	}
	return w.send(m)
}

// deliverLocal forwards m (ownership included) to the local inbox, releasing
// the payload if the endpoint is closing.
func (e *TCPEndpoint) deliverLocal(m comm.Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		tensor.PutVector(m.Data)
		return ErrClosed
	}
	// Registering under the lock while closed is still false guarantees Close
	// cannot start draining senders before this delivery is visible to it.
	e.senders.Add(1)
	e.mu.Unlock()
	defer e.senders.Done()
	select {
	case e.inbox <- m:
		return nil
	case <-e.done:
		tensor.PutVector(m.Data)
		return ErrClosed
	}
}

// Close tears down the listener, the peer connections, and the inbox. The
// inbox is closed only after the read loops have exited and in-flight local
// deliveries have drained, so a delivery never races the close.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	writers := append([]*tcpWriter(nil), e.writers...)
	e.mu.Unlock()

	e.ln.Close()
	for _, w := range writers {
		if w != nil {
			w.conn.Close()
		}
	}
	e.wg.Wait()
	e.senders.Wait()
	close(e.inbox)
	return nil
}

// readLoop drains one peer connection, decoding frames into pool-leased
// vectors and forwarding them to the inbox. Each loop owns a private header
// buffer and a scratch buffer that is grown once and reused for every frame,
// so a steady-state receive performs no allocation. A decode failure
// (including an oversized or truncated frame) or EOF tears the connection
// down and fails only that peer, in band, behind its last frame (see
// handleReadFailure); a decode failure is also recorded on the endpoint (see
// ReadError) instead of silently vanishing.
func (e *TCPEndpoint) readLoop(peer int, conn net.Conn) {
	defer e.wg.Done()
	var hdr [12]byte
	var scratch []byte
	for {
		m, err := decodeFrame(conn, &hdr, &scratch)
		if err != nil {
			e.handleReadFailure(peer, conn, err)
			return
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			tensor.PutVector(m.Data)
			return
		}
		if err := e.deliverLocal(m); err != nil {
			return
		}
	}
}

// handleReadFailure reacts to a read loop ending: nothing during our own
// shutdown; otherwise the peer is unreachable (its process exited — EOF — or
// the stream is corrupt). Decode/IO failures are recorded for ReadError
// diagnostics. The failure is scoped to the peer: the connection is closed
// (failing its pending writes) and the failure is delivered to the inbox
// behind every frame this read loop delivered, so the comm layer marks the
// rank down only after consuming them.
func (e *TCPEndpoint) handleReadFailure(peer int, conn net.Conn, err error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return
	}
	cause := err
	if errors.Is(err, io.EOF) {
		cause = fmt.Errorf("transport: rank %d closed its connection (process exited?): %w", peer, err)
	} else {
		e.readMu.Lock()
		if e.readErr == nil {
			e.readErr = err
		}
		e.readMu.Unlock()
	}
	conn.Close() // fail pending writes toward the dead peer too
	e.deliverLocal(comm.Message{Source: peer, Err: cause})
}

// ReadError returns the first fatal decode or I/O failure observed by a read
// loop (nil if none). A non-nil value means a peer connection died mid-job —
// for example on a corrupt or oversized frame. Only that peer fails: its
// failure message carries this error, so a communicator's blocked operations
// naming it observe a PeerDownError wrapping it.
func (e *TCPEndpoint) ReadError() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	return e.readErr
}

// Frame layout (little endian):
//
//	uint32 source | uint32 tag (stored as int32; tags may be negative) | uint32 count | count * float64
//
// appendFrame appends m's wire encoding to buf and returns the extended
// slice. On little-endian architectures the payload is one bulk copy of the
// vector's bytes (see wire_le.go); the portable fallback converts element by
// element.
func appendFrame(buf []byte, m comm.Message) []byte {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(int32(m.Source)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(int32(m.Tag)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(m.Data)))
	buf = append(buf, hdr[:]...)
	return appendFloats(buf, m.Data)
}

// decodeFrame reads one frame from r into a pool-leased vector. The header
// lands in *hdr, which the caller keeps across frames: a local array would
// escape through io.ReadFull and cost a heap object per frame. On
// little-endian architectures the payload bytes land directly in the vector's
// backing array (no staging buffer, no conversion pass); the portable
// fallback stages through *scratch (grown once, then reused). The returned
// message owns its Data lease. Oversized length headers are rejected before
// any payload allocation with an error wrapping ErrFrameTooLarge; a payload
// shorter than its header promises fails with a descriptive truncation error.
func decodeFrame(r io.Reader, hdr *[12]byte, scratch *[]byte) (comm.Message, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return comm.Message{}, err
	}
	source := int(int32(binary.LittleEndian.Uint32(hdr[0:4])))
	tag := int(int32(binary.LittleEndian.Uint32(hdr[4:8])))
	// Compare in the unsigned domain: converting first could wrap negative on
	// 32-bit ints and sneak past the limit.
	count64 := uint64(binary.LittleEndian.Uint32(hdr[8:12]))
	if count64 > maxFrameElements {
		return comm.Message{}, fmt.Errorf("%w: header from rank %d (tag %d) announces %d elements, limit %d (corrupt or hostile length header)",
			ErrFrameTooLarge, source, tag, count64, maxFrameElements)
	}
	count := int(count64)
	data := tensor.GetVector(count)
	if err := readFloats(r, data, scratch); err != nil {
		tensor.PutVector(data)
		return comm.Message{}, fmt.Errorf("transport: truncated frame from rank %d (tag %d): read fewer than the %d payload bytes announced: %w",
			source, tag, 8*count, err)
	}
	return comm.Message{Source: source, Tag: tag, Data: data}, nil
}

// NewTCPEndpoints starts size TCP endpoints on consecutive loopback ports
// beginning at basePort and returns them indexed by rank. It exists for
// in-process TCP worlds (tests, examples, fault-injection wrapping);
// production deployments construct one NewTCPEndpoint per OS process.
func NewTCPEndpoints(size, basePort int) ([]*TCPEndpoint, error) {
	return newTCPEndpointsRetry(size, basePort, 0)
}

// newTCPEndpointsRetry is NewTCPEndpoints with an explicit dial-retry budget
// (TCPConfig.DialRetry) applied to every rank's dials; retry <= 0 keeps the
// default window.
func newTCPEndpointsRetry(size, basePort int, retry time.Duration) ([]*TCPEndpoint, error) {
	addrs := make([]string, size)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
	}
	eps := make([]*TCPEndpoint, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = NewTCPEndpoint(TCPConfig{Rank: r, Addrs: addrs, DialRetry: retry})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Close()
				}
			}
			return nil, err
		}
	}
	return eps, nil
}

// NewTCPWorld starts size TCP endpoints on consecutive loopback ports
// beginning at basePort and returns a communicator per rank.
func NewTCPWorld(size, basePort int) ([]*comm.Communicator, error) {
	eps, err := NewTCPEndpoints(size, basePort)
	if err != nil {
		return nil, err
	}
	world := make([]*comm.Communicator, size)
	for r := 0; r < size; r++ {
		world[r] = comm.NewCommunicator(eps[r])
	}
	return world, nil
}
