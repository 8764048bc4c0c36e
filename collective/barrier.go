package collective

import "errors"

// The step calls' errors on a live reducer with no step open.
var (
	errSubmitWithoutStep = errors.New("collective: SubmitBucket without BeginStep")
	errWaitWithoutStep   = errors.New("collective: WaitStep without BeginStep")
)

// drainBarrier is one elastic reducer's drain barrier as a value, with no
// lock and no I/O: which operations pass the gate while a membership
// transition drains the world, and the epoch-relative round counters its
// catch-up allowance is measured in. Each event is one method;
// elasticReducer calls them under its mutex, and drain_explore_test.go in
// every order.
//
// The allowance exists because synchronous collectives are lockstep: when
// the gate falls while one member is mid-collective, its peers must run the
// matching round, or the drain deadlocks against the step it waits for. The
// reducers minted at one index across nodes form a matched group, allowed up
// to the furthest round any of them started.
type drainBarrier struct {
	active   int    // admitted operations in flight (Reduce calls, steps, model syncs, brackets)
	rounds   uint64 // operations finished since the epoch's engine was minted
	brackets int    // open TrainStepper brackets; operations nested in one bypass the gate
	stepOpen bool   // a bucketed step passed the gate and WaitStep has not ended it
	draining bool
	target   uint64 // while draining: admit operations until rounds reaches this
	closed   bool
}

// admit is an operation, or a bracket opening, asking to pass the gate.
// While draining it passes only under the allowance or inside an open
// bracket. It reports whether the caller must park until the next wake and
// ask again, or ErrReducerClosed.
func (b *drainBarrier) admit(bracket bool) (park bool, err error) {
	if b.closed {
		return false, ErrReducerClosed
	}
	if b.draining && b.rounds >= b.target && b.brackets == 0 {
		return true, nil
	}
	b.active++
	if bracket {
		b.brackets++
	}
	return false, nil
}

// finish is an admitted operation finishing, with or without an error.
func (b *drainBarrier) finish(bracket bool) {
	if bracket {
		b.brackets--
	}
	b.active--
	b.rounds++
}

// beginDrain closes the gate while admitted operations run on, and returns
// groupMax raised to the operations started here, finished or in flight.
func (b *drainBarrier) beginDrain(groupMax uint64) uint64 {
	b.draining = true
	b.target = b.rounds
	return max(groupMax, b.rounds+uint64(b.active))
}

// allow raises the allowance to the group's furthest started round, so a
// member behind it catches up instead of starving a lockstep peer. It
// reports whether parked operations must be woken.
func (b *drainBarrier) allow(groupMax uint64) bool {
	if groupMax <= b.target {
		return false
	}
	b.target = groupMax
	return true
}

func (b *drainBarrier) idle() bool { return b.active == 0 }

// revoke ends the catch-up at an instant when the whole world is idle:
// nothing is admitted until undrain. A member whose operations failed on a
// dead peer stops short of its allowance and must not hold the epoch open.
func (b *drainBarrier) revoke() { b.target = b.rounds }

func (b *drainBarrier) undrain() { b.draining = false }

// remint restarts the round counters with a fresh epoch's engine: the group
// maximum compares members' counters, and a joiner counts from zero. It
// reports whether the barrier is closed, in which case the fresh engine
// must be closed too: the close reached only the engine it replaces.
func (b *drainBarrier) remint() (closed bool) {
	b.rounds, b.target = 0, 0
	return b.closed
}

// close reports whether this call closed the barrier, in which case the
// current engine must be closed and parked operations woken.
func (b *drainBarrier) close() bool {
	if b.closed {
		return false
	}
	b.closed = true
	return true
}

func (b *drainBarrier) openStep() { b.stepOpen = true }

// inStep is a step call checking that a step is open: nil if one is,
// ErrReducerClosed once the reducer is closed, noStep otherwise.
func (b *drainBarrier) inStep(noStep error) error {
	switch {
	case b.stepOpen:
		return nil
	case b.closed:
		return ErrReducerClosed
	}
	return noStep
}

// endStep is WaitStep ending the open step, with inStep's verdict.
func (b *drainBarrier) endStep() error {
	err := b.inStep(errWaitWithoutStep)
	b.stepOpen = false
	return err
}
