package collective_test

import (
	"context"
	"testing"

	"eagersgd/collective"
	"eagersgd/internal/tensor"
)

// TestInprocWorldEagerAtScale trains a solo world of 64 ranks in process
// and requires every rank to finish with clean lease accounting: the real
// stack at a world size the socket transports do not comfortably host in
// one test.
func TestInprocWorldEagerAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank world takes a moment")
	}
	const (
		size  = 64
		dim   = 32
		steps = 3
	)
	before := tensor.ReadPoolStats()
	w, err := collective.NewWorld(size,
		collective.WithTransport(collective.Inproc),
		collective.WithMode(collective.Solo),
		collective.WithSeed(23),
	)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	runRanks(t, size, func(rank int) error {
		red, err := w.Node(rank).Reducer(dim)
		if err != nil {
			return err
		}
		defer red.Close()
		grad := make(tensor.Vector, dim)
		for s := 0; s < steps; s++ {
			res, err := red.Reduce(context.Background(), grad)
			if err != nil {
				return err
			}
			tensor.PutVector(res.Sum)
		}
		return nil
	})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	after := tensor.ReadPoolStats()
	if n := after.OutstandingSince(before); n != 0 {
		t.Fatalf("64-rank inproc run leaked %d pool leases%s", n, tensor.FormatLeaseReport())
	}
}
