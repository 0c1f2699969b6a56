package obs

import (
	"fmt"
	"math"
	"strconv"
)

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below UpperBound (non-cumulative).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON renders the upper bound as a string so the +Inf bucket
// survives JSON encoding (encoding/json rejects infinite float64s).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf("{\"le\":%q,\"count\":%d}", le, b.Count)), nil
}

// Sample is one metric's state at snapshot time. Counter and gauge
// samples carry Value; histogram samples carry Count, Sum, and Buckets
// (the +Inf bucket is the entry with UpperBound = +Inf, marshalled as
// the JSON string "+Inf").
type Sample struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   int64             `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Snapshot returns the current value of every metric in registration
// order. Nil registries return nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	ms := r.snapshotMetrics()
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Type: m.kind.promType()}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.c.Value())
		case kindGauge:
			s.Value = m.g.Value()
		case kindCounterFunc:
			s.Value = float64(m.cf.fn())
		case kindGaugeFunc:
			s.Value = m.gf.fn()
		case kindHistogram:
			h := m.h
			s.Buckets = make([]Bucket, len(h.counts))
			var total int64
			for i := range h.counts {
				c := h.counts[i].Load()
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				s.Buckets[i] = Bucket{UpperBound: ub, Count: c}
				total += c
			}
			s.Count = total
			s.Sum = h.Sum()
		}
		out = append(out, s)
	}
	return out
}
