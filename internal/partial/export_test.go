package partial

// Mode returns the configured mode.
func (a *Allreducer) Mode() Mode { return a.opts.Mode }

// Size returns the number of participating ranks.
func (a *Allreducer) Size() int { return a.comm.Size() }

// Rank returns the local rank.
func (a *Allreducer) Rank() int { return a.comm.Rank() }
