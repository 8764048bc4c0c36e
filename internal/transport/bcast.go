package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// This file implements the SPMC broadcast segment beside the per-pair SPSC
// rings (ring.go): one single-producer/many-consumer byte region per rank,
// into which a one-to-many hop — the ring allreduce's allgather phase, a
// collective broadcast — publishes each block exactly once, and from which
// every other rank reads it in place. A P-rank allgather hop that
// costs P-1 ring encodes (and P-1 decode copies) over the pairwise rings
// costs one encode and zero copies here: consumers above the alias floor
// receive a float64 view of the region itself (ringalias.go machinery), and
// a per-block reference count — not per-consumer bookkeeping — tells the
// producer when the block's space is free again.
//
// Block framing inside the data area (blocks 8-byte aligned, so the payload —
// 16 bytes in — can be handed out as a zero-copy float64 view):
//
//	uint32 word (type<<30 | payload bytes) | uint32 tag | uint32 count | 4 pad bytes | payload
//
// Reclamation protocol: every consumer advances its shared head cursor the
// moment it consumes a block — copy or alias — so heads measure sweep
// progress only. What pins a block is its reference count: a consumer taking
// a zero-copy view increments the block's count *before* advancing its head,
// and tensor.PutVector routes the release back here (the process alias
// table) to decrement it. The producer frees the region's prefix once every
// live consumer's head has passed a block AND its count is zero. Dead
// consumers (closed endpoints, ranks declared failed) are dropped from the
// head quorum so one crashed rank cannot pin the region forever.
//
// The reference counts and block FIFO live under a region mutex.
const (
	// Block types (top two bits of the block word, sharing the ring's record
	// framing constants). Broadcast blocks are never fragmented: a block
	// either fits the region budget whole or the caller must use the rings.
	bcFrame = recFrame
	bcPad   = recPad

	// bcBlockHdr is the fixed block header: word, tag, element count, padded
	// to 16 bytes so the payload of an 8-aligned block is 8-aligned.
	bcBlockHdr = 16

	// DefaultBcastBytes is the default broadcast-segment capacity per rank.
	// 4 MiB lets a 2 MiB allgather chunk (256Ki float64s, a 1Mi-element
	// allreduce across 4 ranks) publish as a single block with the producer
	// still able to run one block ahead of the slowest consumer.
	DefaultBcastBytes = 4 << 20
)

// bcastSpan is the region-space footprint of a block with the given payload
// length: header plus payload, rounded up to 8 bytes.
func bcastSpan(payloadLen int) int { return (bcBlockHdr + payloadLen + 7) &^ 7 }

// bcastBlock is the producer-side ledger entry of one published block: where
// it ends, where its aliased payload lives, and how many zero-copy views of
// it are still outstanding. Pad blocks carry no payload. Guarded by aliasMu.
type bcastBlock struct {
	end      uint64 // region position after this block
	payStart uint64 // data-area offset of the payload; 0 for pads
	payLen   uint64 // payload byte length; 0 for pads
	refs     int    // outstanding zero-copy views
}

// bcastConsumer is one consumer's shared state, a cache line of its own so
// the consumers' head cursors never false-share.
type bcastConsumer struct {
	head   atomic.Uint64 // sweep cursor, bytes consumed (monotonic)
	parked atomic.Uint32 // consumer is parked; a publishing producer must wake it
	closed atomic.Uint32 // consumer gone: closed its endpoint or declared dead
	wake   ringParker    // the consumer's endpoint wake channel
	_      [40]byte
}

// bcastRegion is one rank's broadcast segment: that rank is the only
// producer, every other rank of its hub is a consumer.
type bcastRegion struct {
	producer int
	group    []int // every rank other than the producer
	data     []byte
	mask     uint64
	maxBlock int // payload-byte budget of one block (BroadcastBudget)

	_          [64]byte        // keeps tail off the line of the read-only fields above
	tail       paddedUint64    // producer position, bytes published (monotonic)
	prodClosed paddedUint32    // producer closed its end (EOF after drain)
	prodParked paddedUint32    // producer parked on a full region; consumers wake it
	cons       []bcastConsumer // indexed by rank; the producer's own slot is born closed

	prodMu   sync.Mutex
	prodWake waiter

	reclaimed uint64 // producer-private: bytes returned to the free span

	// aliasMu guards the block ledger and the alias life cycle. Lock order:
	// prodMu before aliasMu (publish), aliasTable.mu before aliasMu
	// (release/retire); never the reverse.
	aliasMu       sync.Mutex
	blocks        []bcastBlock
	aliasOut      int  // outstanding views across all blocks
	retirePending bool // producer closed with views outstanding
	retired       bool // left the alias table; no new views may be taken
}

// newBcastRegion creates the broadcast segment the given rank produces into.
// wakes holds every rank's endpoint wake channel: consumer r parks on
// wakes[r]. The producer's own slot is born closed, so it never counts toward
// the reclamation quorum.
func newBcastRegion(producer, capacity int, wakes []chan struct{}) *bcastRegion {
	capacity = ringCapacity(capacity)
	b := &bcastRegion{
		producer: producer,
		data:     make([]byte, capacity),
		mask:     uint64(capacity - 1),
		maxBlock: capacity / 2,
		cons:     make([]bcastConsumer, len(wakes)),
	}
	b.prodWake.wake = make(chan struct{}, 1)
	for r := range b.cons {
		if r == producer {
			b.cons[r].closed.Store(1)
			continue
		}
		b.cons[r].wake.wake = wakes[r]
		b.group = append(b.group, r)
	}

	// Registered for alias release from birth (removed again by retire):
	// registration must be visible before the first zero-copy view can
	// possibly be released, and consumers race each other, so the safe
	// moment is before any reader exists.
	aliasInstallHook.Do(func() { tensor.SetAliasReleaser(&aliasTable) })
	aliasTable.mu.Lock()
	aliasTable.bcasts = append(aliasTable.bcasts, b)
	aliasTable.mu.Unlock()
	return b
}

// reader binds consumer rank's sweep cursor over the region.
func (b *bcastRegion) reader(rank int) *bcastReader {
	return &bcastReader{reg: b, rank: rank}
}

// publish appends one block carrying data (borrowed from the caller, fully
// encoded before return) and wakes every parked live consumer. It blocks
// (adaptive parking) while the region lacks space — the flow control that
// stops a producer outrunning its slowest consumer — and aborts with
// ErrClosed when done fires. One publish replaces a send to every consumer.
func (b *bcastRegion) publish(tag int, data tensor.Vector, done <-chan struct{}) error {
	payloadLen := 8 * len(data)
	if payloadLen > b.maxBlock || len(data) > maxFrameElements {
		return fmt.Errorf("%w: broadcast block of %d elements exceeds the region budget (%d bytes)",
			ErrFrameTooLarge, len(data), b.maxBlock)
	}
	b.prodMu.Lock()
	defer b.prodMu.Unlock()

	capacity := b.mask + 1
	need := uint64(bcastSpan(payloadLen))
	tail := b.tail.Load()
	contig := capacity - tail&b.mask
	advance := need
	pad := false
	if need > contig {
		pad = true
		advance = contig + need
	}

	hasSpace := func() bool { return capacity-(tail-b.reclaim()) >= advance }
	for !hasSpace() {
		if !b.prodWake.wait(b.prodParked.Store, hasSpace, done) {
			return ErrClosed
		}
	}
	b.prodWake.idle = 0

	idx := tail & b.mask
	if pad {
		binary.LittleEndian.PutUint32(b.data[idx:], uint32(bcPad)<<recTypeShift)
		idx = 0
	}
	binary.LittleEndian.PutUint32(b.data[idx:], uint32(bcFrame)<<recTypeShift|uint32(payloadLen))
	binary.LittleEndian.PutUint32(b.data[idx+4:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(b.data[idx+8:], uint32(len(data)))
	putFloats(b.data[idx+bcBlockHdr:idx+bcBlockHdr+uint64(payloadLen)], data)

	b.aliasMu.Lock()
	if pad {
		b.blocks = append(b.blocks, bcastBlock{end: tail + contig})
	}
	b.blocks = append(b.blocks, bcastBlock{end: tail + advance, payStart: idx + bcBlockHdr, payLen: uint64(payloadLen)})
	b.aliasMu.Unlock()

	b.tail.Store(tail + advance)
	for _, c := range b.group {
		cons := &b.cons[c]
		if cons.closed.Load() == 0 && cons.parked.Swap(0) != 0 {
			cons.wake.signal()
		}
	}
	return nil
}

// reclaim advances the producer's free-space mark over the prefix of blocks
// that every live consumer has swept past and no one holds a view of, and
// returns it. Only the producer calls it (under prodMu).
func (b *bcastRegion) reclaim() uint64 {
	b.aliasMu.Lock()
	i := 0
	for i < len(b.blocks) {
		// Heads before refs: a consumer increments the block's count and only
		// then advances its head, so once every head has passed the block any
		// count it took is visible here (the head load synchronizes with the
		// consumer's store, which its counted increment precedes).
		if !b.headsPassed(b.blocks[i].end) || b.blocks[i].refs != 0 {
			break
		}
		i++
	}
	if i > 0 {
		b.reclaimed = b.blocks[i-1].end
		b.blocks = append(b.blocks[:0], b.blocks[i:]...)
	}
	out := b.reclaimed
	b.aliasMu.Unlock()
	return out
}

// headsPassed reports whether every live consumer's head reached end.
func (b *bcastRegion) headsPassed(end uint64) bool {
	for _, c := range b.group {
		if cons := &b.cons[c]; cons.closed.Load() == 0 && cons.head.Load() < end {
			return false
		}
	}
	return true
}

// takeAlias registers one zero-copy view of the block whose payload starts at
// the given data-area offset. Returns false — the consumer copies instead —
// once the region is retired (producer closed, last view released), so a
// late-draining consumer can never hand out a view the alias table no longer
// routes.
func (b *bcastRegion) takeAlias(payStart uint64) bool {
	b.aliasMu.Lock()
	defer b.aliasMu.Unlock()
	if b.retired {
		return false
	}
	for i := range b.blocks {
		blk := &b.blocks[i]
		if blk.payLen != 0 && blk.payStart == payStart {
			blk.refs++
			b.aliasOut++
			return true
		}
	}
	return false
}

// releaseAliasAt releases the view covering data-area offset off (the alias
// table resolved the address to this region) and wakes a producer parked on
// the space it may have freed. Returns true when this was the last
// outstanding view of a retired region and it should leave the table.
func (b *bcastRegion) releaseAliasAt(off uint64) bool {
	b.aliasMu.Lock()
	for i := range b.blocks {
		blk := &b.blocks[i]
		if blk.refs > 0 && off >= blk.payStart && off < blk.payStart+blk.payLen {
			blk.refs--
			b.aliasOut--
			break
		}
	}
	retired := b.retirePending && b.aliasOut == 0
	if retired {
		b.retired = true
		b.retirePending = false
	}
	b.aliasMu.Unlock()
	if b.prodParked.Swap(0) != 0 {
		b.prodWake.signal()
	}
	return retired
}

// closeProducer marks the producer end closed (consumers observe EOF after
// draining) and wakes every parked consumer so they see it.
func (b *bcastRegion) closeProducer() {
	b.prodClosed.Store(1)
	for _, c := range b.group {
		if b.cons[c].parked.Swap(0) != 0 {
			b.cons[c].wake.signal()
		}
		b.cons[c].wake.signal()
	}
}

// deadConsumer drops consumer rank from the reclamation quorum — its own
// endpoint closing, or the producer's side observing the rank fail — and
// wakes a producer its sweep debt may have been blocking. Views the consumer
// already took stay counted; they are released when the dead rank's
// communicator drains its queue.
func (b *bcastRegion) deadConsumer(rank int) {
	b.cons[rank].closed.Store(1)
	if b.prodParked.Swap(0) != 0 {
		b.prodWake.signal()
	}
	b.prodWake.signal()
}

// retire detaches the region from alias release at producer close: removed
// from the table immediately when no views are outstanding, deferred to the
// last release otherwise (a late tensor.PutVector must still find the region
// and never reach the pool with transport-owned memory). Consumers still
// draining after retirement fall back to copy delivery (takeAlias refuses).
func (b *bcastRegion) retire() {
	aliasTable.mu.Lock()
	b.aliasMu.Lock()
	if b.aliasOut > 0 {
		b.retirePending = true
		b.aliasMu.Unlock()
		aliasTable.mu.Unlock()
		return
	}
	b.retired = true
	b.aliasMu.Unlock()
	aliasTable.removeBcastLocked(b)
	aliasTable.mu.Unlock()
}

// bcastReader is one consumer's sweep cursor over a peer's broadcast region.
// Owned by that consumer's poller goroutine.
type bcastReader struct {
	reg  *bcastRegion
	rank int
	pos  uint64 // local mirror of the shared head
}

// tryDequeue consumes at most one block without blocking, mirroring
// ringBuffer.tryDequeue's result contract. Blocks at or above the alias floor
// are delivered as zero-copy views pinned by the block's reference count;
// everything else is decoded into a pool lease. Either way the shared head
// advances immediately — sweep progress and space release are decoupled by
// the counts, not by deferred head advances.
func (br *bcastReader) tryDequeue() (comm.Message, ringResult, error) {
	b := br.reg
	pos := br.pos
	tail := b.tail.Load()
	if pos == tail {
		if b.prodClosed.Load() != 0 && pos == b.tail.Load() {
			return comm.Message{}, ringDead, nil
		}
		return comm.Message{}, ringEmpty, nil
	}
	capacity := b.mask + 1
	idx := pos & b.mask
	word := binary.LittleEndian.Uint32(b.data[idx:])
	recType := int(word >> recTypeShift)
	payloadLen := int(word & recLenMask)
	if recType == bcPad {
		br.advance(capacity - idx)
		return comm.Message{}, ringMore, nil
	}
	need := uint64(bcastSpan(payloadLen))
	if recType != bcFrame || payloadLen%8 != 0 || need > capacity-idx || tail-pos < need {
		return comm.Message{}, ringEmpty, fmt.Errorf("%w: broadcast block of %d bytes (type %d) exceeds the published span",
			errRingCorrupt, payloadLen, recType)
	}
	tag := int(int32(binary.LittleEndian.Uint32(b.data[idx+4:])))
	count := int(binary.LittleEndian.Uint32(b.data[idx+8:]))
	if count > maxFrameElements || 8*count != payloadLen {
		return comm.Message{}, ringEmpty, fmt.Errorf("%w: broadcast block announces %d elements for %d payload bytes",
			errRingCorrupt, count, payloadLen)
	}
	payload := b.data[idx+bcBlockHdr : idx+bcBlockHdr+uint64(payloadLen)]
	if payloadLen >= aliasMinBytes {
		if v, ok := floatsView(payload, count); ok && b.takeAlias(idx+bcBlockHdr) {
			br.advance(need)
			return comm.Message{Source: b.producer, Tag: tag, Data: v}, ringMsg, nil
		}
	}
	data := tensor.GetVector(count)
	getFloats(data, payload)
	br.advance(need)
	return comm.Message{Source: b.producer, Tag: tag, Data: data}, ringMsg, nil
}

// advance publishes this consumer's sweep progress and wakes a parked
// producer. Any reference count this consumer took for the span must already
// be registered (see reclaim's ordering comment).
func (br *bcastReader) advance(n uint64) {
	br.pos += n
	br.reg.cons[br.rank].head.Store(br.pos)
	if br.reg.prodParked.Swap(0) != 0 {
		br.reg.prodWake.signal()
	}
}
