package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// This file implements the SPSC byte ring beneath the shared-memory transport
// (see shm.go): one directed ring per (producer rank, consumer rank) pair.
// The producer reserves a span of the data area, encodes the PR 2 frame
// format in place with the wire_le.go bulk codec, and publishes it with one
// atomic store; the consumer decodes straight into a pool-leased vector. A
// same-host frame exchange therefore performs zero syscalls and exactly one
// copy on each side (encode into the ring, decode out of it). The words the
// two ends share are ringHeader's fields.
//
// Record framing inside the data area (all records 8-byte aligned, so a
// complete frame's float payload — at offset 16 into the record — can be
// handed to the receiver as a zero-copy view of the ring, see ringalias.go):
//
//	uint32 recWord | payload
//
// The top two bits of recWord carry the record type, the rest the payload
// byte length. Complete frames carry the PR 2 wire format (12-byte header +
// little-endian float64s). Frames larger than the fragment threshold stream
// as a fragment-start record (full frame header + first chunk) followed by
// continuation records (raw payload bytes), so a ring a few hundred KiB large
// carries arbitrarily big gradients while the consumer drains concurrently —
// the ring itself pipelines the copy. A pad record skips the tail of the data
// area when a record would wrap.
const (
	// Record types (top two bits of the record word).
	recFrame = 0 // complete frame: 12-byte header + payload
	recStart = 1 // fragment start: 12-byte header (count = total) + first chunk
	recCont  = 2 // fragment continuation: raw payload bytes
	recPad   = 3 // skip to the top of the data area (length bits ignored)

	recTypeShift = 30
	recLenMask   = 1<<recTypeShift - 1

	// ringFragmentBytes is the payload size above which a frame streams as
	// fragments. 128 KiB (16Ki float64s) keeps even the default 16Ki-element
	// pipeline segments in single records while letting an unsegmented
	// multi-MiB recursive-doubling frame flow through a modest ring.
	ringFragmentBytes = 128 << 10

	// DefaultRingBytes is the default data-area capacity of one directed
	// ring. Must comfortably exceed ringFragmentBytes so a fragment and its
	// bookkeeping always fit with room for the consumer to stay ahead.
	DefaultRingBytes = 1 << 19 // 512 KiB
)

// ErrRingClosed is returned when enqueueing into a ring whose consumer end
// has been closed.
var ErrRingClosed = errors.New("transport: ring closed")

// errRingCorrupt wraps consumer-side framing violations: a record word or
// frame header that cannot have been produced by this transport. It is the
// shared-memory analogue of a TCP decode failure and tears the peer down the
// same way.
var errRingCorrupt = errors.New("transport: ring framing corrupt")

// ringParker is where a ring end blocks once it parks and what the opposite
// end signals to wake it (see waiter).
type ringParker struct {
	wake chan struct{} // buffered(1)
}

func (p *ringParker) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// paddedUint64 and paddedUint32 are atomics that fill a cache line, so
// neighbouring words written by different ring ends never false-share.
type paddedUint64 struct {
	atomic.Uint64
	_ [56]byte
}

type paddedUint32 struct {
	atomic.Uint32
	_ [60]byte
}

// ringHeader is the state a ring's two ends share, one cache line per word.
type ringHeader struct {
	_          [64]byte     // keeps head off the line of whatever precedes the header
	head       paddedUint64 // consumer position, bytes consumed (monotonic)
	tail       paddedUint64 // producer position, bytes published (monotonic)
	prodClosed paddedUint32 // producer closed its end (EOF after drain)
	consClosed paddedUint32 // consumer closed its end (producer aborts)
	consParked paddedUint32 // consumer is parked; a committing producer must wake it
	prodParked paddedUint32 // producer is parked on a full ring; consumer wakes it
}

// ringBuffer is one directed SPSC ring. The producer side is internally
// serialized (prodMu): the comm layer may issue concurrent sends to one
// destination, and they are appended to the ring in admission order,
// preserving per-(source, tag) FIFO.
type ringBuffer struct {
	data   []byte // the data area: capacity bytes, a power of two
	mask   uint64
	maxRec int // payload-byte budget of one record (scaled down for tiny rings)

	ringHeader

	prodMu   sync.Mutex
	consWake ringParker // signaled by the producer after a commit
	prodWake waiter     // the producer's wait state; signaled by the consumer after freeing space

	// consPos is the consumer's private read cursor. It runs ahead of the
	// shared head whenever aliased spans (ringalias.go) are outstanding: head
	// only advances — freeing ring space for the producer — once the receiver
	// releases the aliased vectors, while consPos tracks what has been read.
	// With no aliases outstanding the two are equal. Owned by the consumer.
	consPos uint64

	// Consumer-side reassembly state for fragmented frames: the vector being
	// filled and the byte offset reached. Owned by the single consumer.
	pending     tensor.Vector
	pendingMsg  comm.Message
	pendingFill int

	// Alias-delivery state (ringalias.go): spans handed out as zero-copy
	// vectors and the deferred head advances queued behind them.
	aliasMu     sync.Mutex
	aliasActive atomic.Bool // any span entries pending (consumer fast-path check)
	aliasSpans  []aliasSpan // FIFO of consumed spans not yet freed to the producer
	aliasHeld   int         // unreleased alias entries among aliasSpans
	aliasReg    bool        // consumer-owned: ring is in the process alias table
	aliasRetire bool        // consumer closed with aliases outstanding; leave the table at the last release
}

// newRing creates a ring with the given data capacity (rounded up to a power
// of two, minimum 4 KiB). Both ends park on channels.
func newRing(capacity int) *ringBuffer {
	capacity = ringCapacity(capacity)
	r := &ringBuffer{
		data:   make([]byte, capacity),
		mask:   uint64(capacity - 1),
		maxRec: ringMaxRec(capacity),
	}
	r.consWake.wake = make(chan struct{}, 1)
	r.prodWake.wake = make(chan struct{}, 1)
	return r
}

// ringCapacity normalizes a requested capacity: power of two, at least 4 KiB.
func ringCapacity(capacity int) int {
	if capacity < 1<<12 {
		capacity = DefaultRingBytes
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return c
}

// ringMaxRec bounds one record's payload so a record never exceeds a quarter
// of the data area — the producer must always be able to make progress while
// the consumer holds the rest of the ring, whatever capacity was configured.
func ringMaxRec(capacity int) int {
	m := ringFragmentBytes
	if q := capacity / 4; q < m {
		m = q
	}
	return m
}

// enqueue appends m to the ring, blocking (with adaptive parking) while the
// ring is full. The encode is synchronous — m.Data is fully copied into the
// ring before the call returns — so the payload can be either owned (released
// here on every path, the Endpoint.Send ownership contract) or merely
// borrowed from the caller (the SendCopy fast path: never released). done
// aborts a blocked enqueue when the producing endpoint shuts down; a consumer
// that closed its end aborts it with ErrRingClosed.
func (r *ringBuffer) enqueue(m comm.Message, done <-chan struct{}, owned bool) error {
	if owned {
		defer tensor.PutVector(m.Data)
	}
	if len(m.Data) > maxFrameElements {
		return fmt.Errorf("%w: ring frame with %d elements exceeds the %d-element limit",
			ErrFrameTooLarge, len(m.Data), maxFrameElements)
	}
	r.prodMu.Lock()
	defer r.prodMu.Unlock()

	if 8*len(m.Data) <= r.maxRec {
		return r.writeRecord(recFrame, 12+8*len(m.Data), done, func(span []byte) {
			putFrameHeader(span, m)
			putFloats(span[12:], m.Data)
		})
	}

	// Fragment path: header + first chunk, then continuations. The consumer
	// reassembles into one pooled vector; the producer blocks on ring space
	// between chunks, which is exactly the pipelining that lets a small ring
	// carry a frame much larger than itself.
	elems := len(m.Data)
	chunk := r.maxRec / 8 // elements per fragment
	first := chunk
	if first > elems {
		first = elems
	}
	err := r.writeRecord(recStart, 12+8*first, done, func(span []byte) {
		putFrameHeader(span, m)
		putFloats(span[12:], m.Data[:first])
	})
	for off := first; err == nil && off < elems; off += chunk {
		end := off + chunk
		if end > elems {
			end = elems
		}
		part := m.Data[off:end]
		err = r.writeRecord(recCont, 8*len(part), done, func(span []byte) {
			putFloats(span, part)
		})
	}
	return err
}

// enqueueFill appends one complete frame whose float payload is produced by
// fill directly inside the reserved ring span: fill(dst, a, b) computes the
// payload into dst — a view of the span — from the caller's operands, fusing
// what would otherwise be a separate combine pass plus the encode copy into
// one write. Only frames that fit a single record qualify (fragments stream
// through the staged path), and only where the wire format doubles as memory
// representation (wireViewable); ok=false means the caller must fall back to
// a plain enqueue, with no reservation made. a and b remain caller-owned.
func (r *ringBuffer) enqueueFill(source, tag int, a, b tensor.Vector, fill func(dst, a, b tensor.Vector), done <-chan struct{}) (ok bool, err error) {
	count := len(a)
	if !wireViewable || count == 0 || count > maxFrameElements || 8*count > r.maxRec {
		return false, nil
	}
	r.prodMu.Lock()
	defer r.prodMu.Unlock()
	err = r.writeRecord(recFrame, 12+8*count, done, func(span []byte) {
		binary.LittleEndian.PutUint32(span[0:4], uint32(int32(source)))
		binary.LittleEndian.PutUint32(span[4:8], uint32(int32(tag)))
		binary.LittleEndian.PutUint32(span[8:12], uint32(count))
		if dst, viewed := floatsView(span[12:12+8*count], count); viewed {
			fill(dst, a, b)
			return
		}
		// Unreachable when wireViewable (record starts are 8-aligned, so the
		// payload at record offset 16 is too), but stay correct regardless.
		tmp := tensor.GetVector(count)
		fill(tmp, a, b)
		putFloats(span[12:12+8*count], tmp)
		tensor.PutVector(tmp)
	})
	return true, err
}

// putFrameHeader encodes the 12-byte PR 2 frame header into span. The count
// field always carries the frame's TOTAL element count, also for fragment
// starts — the consumer sizes its reassembly lease from it.
func putFrameHeader(span []byte, m comm.Message) {
	binary.LittleEndian.PutUint32(span[0:4], uint32(int32(m.Source)))
	binary.LittleEndian.PutUint32(span[4:8], uint32(int32(m.Tag)))
	binary.LittleEndian.PutUint32(span[8:12], uint32(len(m.Data)))
}

// writeRecord reserves a span of payloadLen bytes (plus the record word and
// any pad record), lets encode fill it in place, and publishes it with one
// atomic tail store, waking a parked consumer. It blocks while the ring lacks
// space: spinning, then yielding, then parking until the consumer frees room.
func (r *ringBuffer) writeRecord(recType int, payloadLen int, done <-chan struct{}, encode func(span []byte)) error {
	capacity := r.mask + 1
	need := uint64(recordSpan(payloadLen))
	tail := r.tail.Load()
	contig := capacity - (tail & r.mask)
	advance := need
	pad := false
	if need > contig {
		// The record will not fit before the wrap point: pad the tail of the
		// data area and start at the top.
		pad = true
		advance = contig + need
	}

	for {
		if r.consClosed.Load() != 0 {
			return ErrRingClosed
		}
		if advance <= capacity-(tail-r.head.Load()) {
			break
		}
		if !r.prodWake.wait(r.prodParked.Store, func() bool {
			return capacity-(tail-r.head.Load()) >= advance || r.consClosed.Load() != 0
		}, done) {
			return ErrClosed
		}
	}
	r.prodWake.idle = 0

	idx := tail & r.mask
	if pad {
		binary.LittleEndian.PutUint32(r.data[idx:], uint32(recPad)<<recTypeShift)
		idx = 0
	}
	binary.LittleEndian.PutUint32(r.data[idx:], uint32(recType)<<recTypeShift|uint32(payloadLen))
	encode(r.data[idx+4 : idx+4+uint64(payloadLen)])
	r.tail.Store(tail + advance)
	if r.consParked.Swap(0) != 0 {
		r.consWake.signal()
	}
	return nil
}

// recordSpan is the ring-space footprint of a record with the given payload
// length: the 4-byte record word plus the payload, rounded up to 8 bytes so
// every record — and hence every complete frame's float payload, 16 bytes in —
// stays 8-aligned. The alignment is what makes alias delivery (ringalias.go)
// possible: a float64 view of the payload needs a naturally aligned base.
func recordSpan(payloadLen int) int { return (4 + payloadLen + 7) &^ 7 }

// ringYieldBudget is how many times a waiter yields the processor before it
// parks (see waiter.wait).
const ringYieldBudget = 2

// WaitStats counts how an endpoint's waiters — its poller and the producer
// ends of its outgoing rings — spent their idle time.
type WaitStats struct {
	Hits    uint64 // poller sweeps that found work
	Yields  uint64 // runtime.Gosched calls
	Parks   uint64 // times a waiter blocked on its wake channel
	Wakeups uint64 // parks ended by the opposite end's signal
}

func (s *WaitStats) add(o WaitStats) {
	s.Hits += o.Hits
	s.Yields += o.Yields
	s.Parks += o.Parks
	s.Wakeups += o.Wakeups
}

// waiter is how a ring end waits when it runs out of work or space: yield
// briefly, then park. It never busy-waits: an exchange keeps two goroutines
// per rank busy (the rank's own and its poller), and whenever those outnumber
// the processors every spin iteration is stolen from the very goroutine being
// waited on — a fixed spin budget turned a microsecond hand-off into a
// scheduler quantum. It embeds the ringParker it blocks on, which the
// opposite end signals. A waiter belongs to one goroutine at a time (the
// poller, or a producer under prodMu); only snapshot crosses goroutines.
type waiter struct {
	ringParker

	idle   int       // consecutive empty checks of the current wait episode
	counts WaitStats // owner-private; copied to pub when parking

	pubMu sync.Mutex
	pub   WaitStats
}

// progressed ends the current wait episode: the owner found work or space.
func (w *waiter) progressed() {
	w.idle = 0
	w.counts.Hits++
}

// snapshot returns the counts as of the waiter's most recent park.
func (w *waiter) snapshot() WaitStats {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	return w.pub
}

// wait advances one step of the yield → park escalation after an empty
// check; the caller re-checks when it returns true. To park, setParked(1)
// raises the parked flag(s) and ready is re-checked before blocking (the
// lost-wakeup guard: the opposite end reads the flag only after its own
// publish, so either it sees the flag and signals, or this end's re-check
// sees the publish). Returns false when done fired.
func (w *waiter) wait(setParked func(uint32), ready func() bool, done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	default:
	}
	w.idle++
	if w.idle <= ringYieldBudget {
		w.counts.Yields++
		runtime.Gosched()
		return true
	}
	setParked(1)
	defer setParked(0)
	if ready() {
		return true
	}
	w.counts.Parks++
	w.pubMu.Lock()
	w.pub = w.counts
	w.pubMu.Unlock()
	select {
	case <-w.wake:
		w.counts.Wakeups++
		return true
	case <-done:
		return false
	}
}

// closeProducer marks the producer end closed (EOF once drained) and wakes a
// parked consumer so it observes the close.
func (r *ringBuffer) closeProducer() {
	r.prodClosed.Store(1)
	if r.consParked.Swap(0) != 0 {
		r.consWake.signal()
	}
	r.consWake.signal()
}

// abortProducer marks the consumer end closed and wakes a parked producer so
// its blocked enqueue aborts with ErrRingClosed. It touches only the shared
// flags, so either end may call it — the consuming endpoint during its own
// Close, or on its outgoing ring toward a peer it has declared dead (the
// shared-memory analogue of closing a TCP connection to fail pending writes).
func (r *ringBuffer) abortProducer() {
	r.consClosed.Store(1)
	if r.prodParked.Swap(0) != 0 {
		r.prodWake.signal()
	}
	r.prodWake.signal()
}

// releasePending drops a half-reassembled frame back into the pool. Only the
// consumer may call it (the reassembly state is consumer-owned): the poller
// when it declares the producing peer dead, or Close after the poller has
// been joined.
func (r *ringBuffer) releasePending() {
	if r.pending != nil {
		tensor.PutVector(r.pending)
		r.pending = nil
		r.pendingFill = 0
	}
}

// ringResult classifies one tryDequeue outcome.
type ringResult int

const (
	ringEmpty ringResult = iota // nothing published (check closed for EOF)
	ringMsg                     // a complete message was decoded
	ringMore                    // progress was made (fragment consumed), poll again
	ringDead                    // producer closed and the ring is drained
)

// tryDequeue consumes at most one record without blocking. On ringMsg the
// returned message owns either a pool-leased vector or, for large complete
// frames, a zero-copy view of the ring span itself (ringalias.go) — the
// receiver releases both the same way, with tensor.PutVector. Framing
// violations return a descriptive error wrapping errRingCorrupt and poison
// the ring (the caller tears the peer down, mirroring a TCP decode failure).
func (r *ringBuffer) tryDequeue() (comm.Message, ringResult, error) {
	pos := r.consPos
	tail := r.tail.Load()
	if pos == tail {
		if r.prodClosed.Load() != 0 && pos == r.tail.Load() {
			return comm.Message{}, ringDead, nil
		}
		return comm.Message{}, ringEmpty, nil
	}
	capacity := r.mask + 1
	idx := pos & r.mask
	word := binary.LittleEndian.Uint32(r.data[idx:])
	recType := int(word >> recTypeShift)
	payloadLen := int(word & recLenMask)
	if recType == recPad {
		r.consumeRecord(pos, capacity-idx)
		return comm.Message{}, ringMore, nil
	}
	need := uint64(recordSpan(payloadLen))
	if need > capacity-idx || tail-pos < need {
		return comm.Message{}, ringEmpty, fmt.Errorf("%w: record of %d bytes exceeds the published span (type %d)",
			errRingCorrupt, payloadLen, recType)
	}
	span := r.data[idx+4 : idx+4+uint64(payloadLen)]

	switch recType {
	case recFrame:
		if r.pending != nil {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: complete frame interleaved with an unfinished fragment stream", errRingCorrupt)
		}
		if len(span) < 12 {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: frame record of %d bytes is shorter than a frame header", errRingCorrupt, len(span))
		}
		source, tag, count, err := ringFrameHeader(span)
		if err != nil {
			return comm.Message{}, ringEmpty, err
		}
		if len(span) < 12+8*count {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: truncated frame from rank %d (tag %d): record holds %d of the %d payload bytes announced",
				errRingCorrupt, source, tag, len(span)-12, 8*count)
		}
		if 8*count >= aliasMinBytes {
			if v, ok := floatsView(span[12:12+8*count], count); ok && r.consumeAliasRecord(pos, need, idx+16, uint64(8*count)) {
				return comm.Message{Source: source, Tag: tag, Data: v}, ringMsg, nil
			}
		}
		data := tensor.GetVector(count)
		getFloats(data, span[12:])
		r.consumeRecord(pos, need)
		return comm.Message{Source: source, Tag: tag, Data: data}, ringMsg, nil

	case recStart:
		if r.pending != nil {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: fragment start interleaved with an unfinished fragment stream", errRingCorrupt)
		}
		if payloadLen < 12 {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: fragment start of %d bytes is shorter than a frame header", errRingCorrupt, payloadLen)
		}
		source, tag, count, err := ringFrameHeader(span)
		if err != nil {
			return comm.Message{}, ringEmpty, err
		}
		chunk := (payloadLen - 12) / 8
		if chunk > count {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: fragment start carries %d elements of a %d-element frame", errRingCorrupt, chunk, count)
		}
		r.pending = tensor.GetVector(count)
		r.pendingMsg = comm.Message{Source: source, Tag: tag}
		getFloats(r.pending[:chunk], span[12:])
		r.pendingFill = chunk
		r.consumeRecord(pos, need)
		if r.pendingFill == count { // a degenerate single-fragment frame
			return r.finishPending(), ringMsg, nil
		}
		return comm.Message{}, ringMore, nil

	case recCont:
		if r.pending == nil {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: fragment continuation with no fragment stream open", errRingCorrupt)
		}
		chunk := payloadLen / 8
		if payloadLen%8 != 0 || r.pendingFill+chunk > len(r.pending) {
			return comm.Message{}, ringEmpty, fmt.Errorf("%w: fragment continuation of %d bytes overflows the %d-element frame (have %d)",
				errRingCorrupt, payloadLen, len(r.pending), r.pendingFill)
		}
		getFloats(r.pending[r.pendingFill:r.pendingFill+chunk], span)
		r.pendingFill += chunk
		r.consumeRecord(pos, need)
		if r.pendingFill == len(r.pending) {
			return r.finishPending(), ringMsg, nil
		}
		return comm.Message{}, ringMore, nil

	default:
		return comm.Message{}, ringEmpty, fmt.Errorf("%w: unknown record type %d", errRingCorrupt, recType)
	}
}

// finishPending hands the reassembled frame to the caller.
func (r *ringBuffer) finishPending() comm.Message {
	m := r.pendingMsg
	m.Data = r.pending
	r.pending = nil
	r.pendingFill = 0
	return m
}

// advance publishes the consumer's progress and wakes a parked producer. In
// alias mode the head advance is deferred instead — see consumeRecord.
func (r *ringBuffer) advance(head, n uint64) {
	r.head.Store(head + n)
	if r.prodParked.Swap(0) != 0 {
		r.prodWake.signal()
	}
}

// ringFrameHeader decodes and validates the 12-byte frame header at the start
// of span. The element count is validated in the unsigned domain against the
// transport-wide limit, mirroring decodeFrame: a corrupt header must never
// size an allocation.
func ringFrameHeader(span []byte) (source, tag, count int, err error) {
	source = int(int32(binary.LittleEndian.Uint32(span[0:4])))
	tag = int(int32(binary.LittleEndian.Uint32(span[4:8])))
	count64 := uint64(binary.LittleEndian.Uint32(span[8:12]))
	if count64 > maxFrameElements {
		return 0, 0, 0, fmt.Errorf("%w: header from rank %d (tag %d) announces %d elements, limit %d (corrupt or hostile length header)",
			ErrFrameTooLarge, source, tag, count64, maxFrameElements)
	}
	return source, tag, int(count64), nil
}
