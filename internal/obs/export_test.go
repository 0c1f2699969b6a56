package obs

import "math"

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SnapshotReset atomically reads-and-zeroes counters and histograms
// while snapshotting: across any sequence of SnapshotReset calls plus a
// final Snapshot, every counter increment and histogram observation is
// reported exactly once, even under concurrent writers. Gauges and
// callback metrics are read without resetting.
func (r *Registry) SnapshotReset() []Sample {
	return r.snapshot(true)
}
