package partial

// Mode returns the configured mode.
func (a *Allreducer) Mode() Mode { return a.opts.Mode }

// Size returns the number of participating ranks.
func (a *Allreducer) Size() int { return a.comm.Size() }

// Rank returns the local rank.
func (a *Allreducer) Rank() int { return a.comm.Rank() }

// BufferCaps returns the capacities of the engine's three rotating buffers:
// the send buffer, the round buffer and the last result.
func (a *Allreducer) BufferCaps() [3]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return [3]int{cap(a.sendBuf), cap(a.roundBuf), cap(a.lastResult)}
}
