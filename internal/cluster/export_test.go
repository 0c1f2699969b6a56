package cluster

// Merged returns the number of entries accepted from peers so far.
func (r *Replicator) Merged() int64 {
	if r == nil {
		return 0
	}
	return r.merged.Load()
}
