// Package obs is a stdlib-only, low-overhead metrics core: atomic
// counters, float gauges, fixed-bucket histograms, and callback metrics,
// collected in a named Registry that can render Prometheus text format
// and JSON snapshots.
//
// Every metric type is nil-safe: methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops, and a nil *Registry hands out nil metrics. An
// instrumented component therefore holds plain metric pointers and pays
// only a nil check when observability is disabled — there is no
// interface dispatch and no branching configuration on the hot path.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label pair. Construct with L.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// --- Counter ------------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- Gauge --------------------------------------------------------------

// Gauge is an atomic float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram ----------------------------------------------------------

// Histogram counts observations into fixed buckets with upper bounds
// (plus an implicit +Inf bucket) and tracks their sum, Prometheus-style.
type Histogram struct {
	bounds []float64      // ascending upper bounds (le)
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
}

// newHistogram builds a histogram over the given ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~16) and the common case
	// (low latencies) exits early; a binary search costs more in branch
	// misses than it saves.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0. No-op on nil.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n bucket bounds starting at start, each factor
// times the previous — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs to ~67s in ×4 steps: wide enough for both
// per-task scheduler latencies and whole-request tuning runs.
var LatencyBuckets = ExpBuckets(1e-6, 4, 13)

// --- callback metrics ---------------------------------------------------

// counterFn and gaugeFn are scrape-time callback metrics; they let
// components that already keep atomic counters (the worker pool, the
// admission layer) expose them without double counting.
type counterFn struct{ fn func() int64 }

type gaugeFn struct{ fn func() float64 }

// --- Registry -----------------------------------------------------------

// kind tags a registered metric's Prometheus type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered metric instance (a family member: one name
// plus one label set).
type metric struct {
	name   string
	help   string
	kind   kind
	labels []Label

	c  *Counter
	g  *Gauge
	h  *Histogram
	cf *counterFn
	gf *gaugeFn
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; registration is idempotent on (name, labels), so
// hot-path callers may re-request a metric instead of caching it.
type Registry struct {
	mu    sync.Mutex
	order []*metric
	index map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*metric{}}
}

// metricKey uniquely identifies a metric instance within the registry.
func metricKey(name string, labels []Label) string {
	k := name
	for _, l := range labels {
		k += "\x00" + l.Key + "\x01" + l.Value
	}
	return k
}

// register adds or returns the existing metric for (name, labels).
func (r *Registry) register(name, help string, kd kind, labels []Label, build func(*metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if m, ok := r.index[key]; ok {
		if m.kind != kd {
			panic("obs: metric " + name + " re-registered with a different type")
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kd, labels: append([]Label(nil), labels...)}
	build(m)
	r.index[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns) a counter. A nil registry returns nil,
// whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, labels, func(m *metric) { m.c = &Counter{} }).c
}

// Gauge registers (or returns) a gauge. Nil-safe like Counter.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, labels, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram registers (or returns) a histogram over the given ascending
// bucket bounds. Nil-safe like Counter.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, labels, func(m *metric) { m.h = newHistogram(bounds) }).h
}

// CounterFunc registers a counter whose value is computed at scrape
// time by fn (e.g. reading a component's own atomic).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounterFunc, labels, func(m *metric) { m.cf = &counterFn{fn: fn} })
}

// GaugeFunc registers a gauge computed at scrape time by fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindGaugeFunc, labels, func(m *metric) { m.gf = &gaugeFn{fn: fn} })
}

// snapshotMetrics copies the metric list under the lock so rendering
// and snapshotting never hold it while calling callbacks.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.order...)
}
