// Package comm is the golden-test stub of the transport layer, mirroring the
// ownership semantics the analyzers encode: Send consumes its payload and
// SendCopy borrows it.
package comm

import (
	"context"
	"time"

	"tensor"
)

// Communicator is the stub endpoint.
type Communicator struct{}

// Send transfers ownership of payload, even on error.
func (c *Communicator) Send(dest, tag int, payload tensor.Vector) error { return nil }

// SendCopy borrows payload: the caller still owns it afterward.
func (c *Communicator) SendCopy(dest, tag int, payload tensor.Vector, cancel <-chan struct{}) error {
	return nil
}

// Recv blocks until a message arrives.
func (c *Communicator) Recv(source, tag int) (tensor.Vector, error) { return nil, nil }

// RecvTimeout is the general receive: cancellable, with a peer deadline.
func (c *Communicator) RecvTimeout(source, tag int, cancel <-chan struct{}, deadline time.Duration) (tensor.Vector, error) {
	return nil, nil
}

// Barrier blocks until every rank arrives.
func (c *Communicator) Barrier() error { return nil }

// BarrierContext is the cancellable variant of Barrier.
func (c *Communicator) BarrierContext(ctx context.Context) error { return nil }
