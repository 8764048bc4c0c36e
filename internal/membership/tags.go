package membership

import (
	"eagersgd/internal/collectives"
	"eagersgd/internal/partial"
)

// Per-epoch tag-block namespacing. Every epoch's reducers place their wire
// traffic in tag blocks derived from the epoch number, so a stray frame from
// epoch N that survives the transition window can be recognized — and
// discarded, not misdelivered — by epoch N+1's communicators
// (comm.DiscardTagsOnArrival). The blocks wrap modulo a small period because
// the 32-bit wire tag space is finite; that is safe because the transition
// protocol drains the outgoing epoch, so only frames from the immediately
// preceding epoch can ever straggle into the next.
//
// The layout (all below the int32 wire-tag limit):
//
//	[1<<20, 1<<20 + 128*2^16)  collective blocks, one 2^16 block per epoch
//	[1<<24 + e*2^21, ...)      partial (eager engine) blocks, 8-epoch wrap
//	[1<<30, ...)               state transfer (transfer.go), epoch-free
//
// An eager engine never leaves its block however long the epoch lasts: it uses
// a constant set of tags inside [base, base+partial.TagSpan) — base+0 for the
// round-stamped activation flood, base+64 onward one internal/collectives tag
// block for the data phase, base+2048 onward the recursive doubling used under
// a peer deadline — the same ones every round (rounds are strictly
// sequential, so per-(source, tag) FIFO orders them). Round numbers travel in
// the activation payload, not in the tag.
const (
	collectiveEpochPeriod = 128
	partialEpochPeriod    = 8
	partialEpochStride    = partial.TagSpan
)

// CollectiveTagShift returns the collectives.Config.TagOffset shift of the
// epoch's collective tag block. Epoch 0 shifts by zero, so a fixed-size world
// is bit-compatible with the pre-elastic wire layout.
func CollectiveTagShift(epoch uint64) int {
	lo, hi := collectives.BucketStreamTagRange()
	return int(epoch%collectiveEpochPeriod) * (hi - lo)
}

// PartialBaseTag returns the partial.Options.BaseTag of the epoch's eager
// engine: the default base shifted into the epoch's private block. Epoch 0
// yields partial.DefaultBaseTag exactly.
func PartialBaseTag(epoch uint64) int {
	return partial.DefaultBaseTag + int(epoch%partialEpochPeriod)*partialEpochStride
}

// EpochTagRanges returns the [lo, hi) tag intervals the epoch's reducer
// traffic occupies — the collective block and the partial block. A
// transition registers the outgoing epoch's ranges with the incoming
// communicators (comm.DiscardTagsOnArrival) so straggler frames are released
// on arrival instead of sitting in the unexpected queue or, worse, matching
// a same-tag receive of a later epoch.
func EpochTagRanges(epoch uint64) [][2]int {
	lo, hi := collectives.BucketStreamTagRange()
	shift := CollectiveTagShift(epoch)
	base := PartialBaseTag(epoch)
	return [][2]int{
		{lo + shift, hi + shift},
		{base, base + partialEpochStride},
	}
}
