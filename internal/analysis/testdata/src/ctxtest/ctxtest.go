// Package ctxtest exercises ctxcheck: context roots in library code,
// loop-resident calls missing their cancellable variants, and suppression.
package ctxtest

import (
	"context"

	"comm"
)

const tagWork = 1 << 8

// Engine is a stand-in for a collective endpoint.
type Engine struct{}

// Pull blocks until work arrives.
func (e *Engine) Pull() error { return nil }

// PullCancel is the cancellable variant of Pull.
func (e *Engine) PullCancel(stop <-chan struct{}) error { return nil }

// poll blocks without a cancellation path.
func poll() {}

// pollContext is the cancellable variant of poll.
func pollContext(ctx context.Context) {}

// rootInLibrary fabricates a context root in library code.
func rootInLibrary(e *Engine) error {
	ctx := context.Background() // want "library code must not call context.Background"
	_ = ctx
	return e.Pull()
}

// todoInLibrary is the same break via TODO.
func todoInLibrary() context.Context {
	return context.TODO() // want "library code must not call context.TODO"
}

// loopWithoutCancel spins on the uncancellable variants.
func loopWithoutCancel(e *Engine, c *comm.Communicator) error {
	for {
		if err := e.Pull(); err != nil { // want "loop-resident call to Pull has no cancellation path: use PullCancel"
			return err
		}
		poll()                              // want "loop-resident call to poll has no cancellation path: use pollContext"
		if err := c.Barrier(); err != nil { // want "loop-resident call to Barrier has no cancellation path: use BarrierContext"
			return err
		}
		if _, err := c.Recv(0, tagWork); err != nil { // want "loop-resident call to Recv has no cancellation path: use RecvTimeout"
			return err
		}
	}
}

// loopWithCancel uses the cancellable variants: no diagnostics.
func loopWithCancel(ctx context.Context, e *Engine, c *comm.Communicator, stop <-chan struct{}) error {
	for {
		if err := e.PullCancel(stop); err != nil {
			return err
		}
		pollContext(ctx)
		if err := c.BarrierContext(ctx); err != nil {
			return err
		}
		if _, err := c.RecvTimeout(0, tagWork, stop, 0); err != nil {
			return err
		}
	}
}

// outsideLoop may use the blocking variant: only loop residency is policed.
func outsideLoop(e *Engine) error {
	return e.Pull()
}

// suppressedLoop documents why the blocking variant is correct here.
func suppressedLoop(e *Engine) error {
	for i := 0; i < 3; i++ {
		//eagervet:ignore ctxcheck -- bounded three-attempt handshake during setup; cancellation arrives via Close tearing down the transport.
		if err := e.Pull(); err != nil {
			return err
		}
	}
	return nil
}
