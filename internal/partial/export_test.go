package partial

// BucketRange returns the [lo, hi) element range of bucket b, so tests can
// reassemble a round from WaitBucket and check each bucket's length.
func (a *Allreducer) BucketRange(b int) (lo, hi int) {
	return a.bucketOffs[b], a.bucketOffs[b] + a.buckets[b]
}
