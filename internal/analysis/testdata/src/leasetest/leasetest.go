// Package leasetest exercises leasecheck: pool-lease leaks, early-return
// leaks, double releases, use-after-release/send, ownership transfers, and
// suppression.
package leasetest

import (
	"comm"

	"tensor"
)

const tagWork = 1 << 8

// straightLineLeak never releases its lease.
func straightLineLeak(n int) float64 {
	v := tensor.GetVector(n) // want "pool lease .v. is never released or transferred"
	v[0] = 1
	return v[0]
}

// earlyReturnLeak releases on the happy path but leaks on the error path.
func earlyReturnLeak(c *comm.Communicator, n int) error {
	v := tensor.GetVectorZero(n)
	if err := c.SendCopy(1, tagWork, v, nil); err != nil {
		return err // want "may leak on this return path"
	}
	tensor.PutVector(v)
	return nil
}

// deferRelease is the canonical cleanup idiom: no diagnostics.
func deferRelease(n int) float64 {
	v := tensor.GetVector(n)
	defer tensor.PutVector(v)
	v[0] = 2
	return v[0]
}

// deferClosureRelease releases through a deferred closure: no diagnostics.
func deferClosureRelease(n int) float64 {
	v := tensor.GetVectorZero(n)
	defer func() {
		tensor.PutVector(v)
	}()
	return v[0]
}

// doubleRelease puts the same lease twice on one path.
func doubleRelease(n int) {
	v := tensor.GetVector(n)
	tensor.PutVector(v)
	tensor.PutVector(v) // want "already released at line"
}

// doubleReleaseAfterDefer registers a deferred put and then puts again.
func doubleReleaseAfterDefer(n int) {
	v := tensor.GetVector(n)
	defer tensor.PutVector(v)
	v[0] = 3
	tensor.PutVector(v) // want "released twice: a deferred release is registered"
}

// useAfterRelease reads the lease after returning it to the pool.
func useAfterRelease(n int) float64 {
	v := tensor.GetVector(n)
	tensor.PutVector(v)
	return v[0] // want "use of pool lease .v. after release"
}

// useAfterSend touches the payload after Send consumed it.
func useAfterSend(c *comm.Communicator, n int) error {
	v := tensor.GetVectorZero(n)
	if err := c.Send(1, tagWork, v); err != nil {
		return err
	}
	v[0] = 4 // want "use of pool lease .v. after ownership transfer"
	return nil
}

// branchReleaseNoFalsePositive releases in both arms; the lexical
// approximation must not call the second arm a double release.
func branchReleaseNoFalsePositive(c *comm.Communicator, n int, fast bool) error {
	v := tensor.GetVectorZero(n)
	if fast {
		return c.Send(1, tagWork, v)
	}
	tensor.PutVector(v)
	return nil
}

// stash takes ownership of the vector passed to it.
//
//eagersgd:takes-ownership
func stash(v tensor.Vector) {}

// annotatedTransfer hands the lease to an annotated consumer and may keep
// slicing it afterward (shared-by-reference, recycled by the consumer).
func annotatedTransfer(n int) float64 {
	v := tensor.GetVectorZero(n)
	stash(v)
	return v[0]
}

// escapeByReturn passes ownership to the caller: no diagnostics.
func escapeByReturn(n int) tensor.Vector {
	v := tensor.GetVector(n)
	v[0] = 5
	return v
}

// escapeByStore parks the lease in longer-lived state: no diagnostics.
type holder struct{ buf tensor.Vector }

func escapeByStore(h *holder, n int) {
	v := tensor.GetVectorZero(n)
	h.buf = v
}

// suppressedLeak hands its lease to an opaque consumer the analyzer cannot
// model; the ignore directive (with its mandatory reason) silences the leak
// report.
func suppressedLeak(sink func(tensor.Vector), n int) {
	//eagervet:ignore leasecheck -- sink recycles the lease via the pool in every registered implementation.
	v := tensor.GetVector(n)
	sink(v)
}
