package partial

// BucketRange returns the [lo, hi) element range of bucket b, so tests can
// reassemble a round from WaitBucket and check each bucket's length.
func (a *Allreducer) BucketRange(b int) (lo, hi int) {
	return a.bucketOffs[b], a.bucketOffs[b] + a.buckets[b]
}

// NumBuckets returns the number of buckets WaitBucket slices a round into.
func (a *Allreducer) NumBuckets() int { return len(a.buckets) }

// Mode returns the configured mode.
func (a *Allreducer) Mode() Mode { return a.opts.Mode }

// Size returns the number of participating ranks.
func (a *Allreducer) Size() int { return a.comm.Size() }

// Rank returns the local rank.
func (a *Allreducer) Rank() int { return a.comm.Rank() }
