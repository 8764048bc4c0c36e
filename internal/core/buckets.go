package core

import "eagersgd/internal/nn"

// bucketPlan maps a model's layer segments onto exchange buckets: lens/offs
// describe the buckets in offset order, segsPerBucket how many layer segments
// each bucket coalesces, and bucketOf locates a segment's bucket by the
// segment's offset. The plan is a pure function of the segments and the
// coalescing target, so every SPMD rank computes the same layout.
type bucketPlan struct {
	lens          []int
	offs          []int
	segsPerBucket []int
	bucketOf      map[int]int
}

// planBuckets coalesces adjacent layer segments (in offset order) into
// buckets of at least bucketElems elements — the Horovod/DDP-style fusion
// bucket, trading per-bucket exchange overhead against overlap granularity.
// bucketElems <= 0 keeps one bucket per segment. A coalesced bucket becomes
// ready only when its lowest-offset segment does, which under reverse-layer
// emission is the last of its segments to settle.
func planBuckets(segs []nn.Segment, bucketElems int) bucketPlan {
	p := bucketPlan{bucketOf: make(map[int]int, len(segs))}
	curLen, curSegs, curOff := 0, 0, 0
	flush := func() {
		if curSegs == 0 {
			return
		}
		p.lens = append(p.lens, curLen)
		p.offs = append(p.offs, curOff)
		p.segsPerBucket = append(p.segsPerBucket, curSegs)
		curLen, curSegs = 0, 0
	}
	for _, s := range segs {
		if curSegs == 0 {
			curOff = s.Offset
		}
		p.bucketOf[s.Offset] = len(p.lens)
		curLen += s.Len
		curSegs++
		if bucketElems <= 0 || curLen >= bucketElems {
			flush()
		}
	}
	flush()
	return p
}

// BucketLayout returns the bucket lengths (in offset order) an overlapped
// trainer opens its steps with for the task and coalescing target.
func BucketLayout(task BucketedTask, bucketElems int) []int {
	return planBuckets(task.Segments(), bucketElems).lens
}
