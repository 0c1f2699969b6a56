package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"petabricks/internal/obs"
)

// This file is the benchmark's own tracing. Spans are recorded here, in
// the benchmark's files, around each call into a layer's public
// functions; tracing inside the program is a later change. Spans stay
// in memory and are written to out/trace-<workload>.json when the run
// ends. An untraced run carries nil recorders, which cost one nil check
// per call.

// span is one timed call. IDs are unique within a trace file; Parent is
// 0 for an op, the root of its tree.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	// Derived marks a span whose duration comes from a counter the
	// program keeps (plan build, rule compile, kernel seconds) and whose
	// position inside its parent is therefore not measured.
	Derived bool `json:"derived,omitempty"`
}

// tracer is one traced pass: the obs registry wired into the layers
// that have one, and the recorders that hold its spans.
type tracer struct {
	reg   *obs.Registry
	epoch time.Time

	mu   sync.Mutex
	recs []*recorder
}

func newTracer() *tracer { return &tracer{reg: obs.NewRegistry(), epoch: time.Now()} }

// recorder holds the spans of one goroutine-at-a-time caller. The
// shared server-side recorder is the exception and says so with locked.
type recorder struct {
	t      *tracer
	id     int64
	locked bool
	mu     sync.Mutex
	spans  []span
	stack  []int64
}

// recorder returns a new recorder; a nil tracer gives a nil recorder.
func (t *tracer) recorder(locked bool) *recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{t: t, id: int64(len(t.recs) + 1), locked: locked}
	t.recs = append(t.recs, r)
	return r
}

// begin opens a span under the innermost open span of this recorder and
// returns its ID (0 from a nil recorder).
func (r *recorder) begin(layer, name string) int64 {
	if r == nil {
		return 0
	}
	var parent int64
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := r.beginUnder(parent, layer, name)
	r.stack = append(r.stack, id)
	return id
}

// beginUnder opens a span under an explicit parent without touching the
// stack: for callers on other goroutines (the HTTP handler side).
func (r *recorder) beginUnder(parent int64, layer, name string) int64 {
	if r == nil {
		return 0
	}
	if r.locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	id := r.id<<32 | int64(len(r.spans)+1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: int64(time.Since(r.t.epoch))})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	r.endUnder(id)
	r.stack = r.stack[:len(r.stack)-1]
}

// endUnder closes a span opened by beginUnder.
func (r *recorder) endUnder(id int64) {
	if r == nil {
		return
	}
	if r.locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.spans[int(id&0xffffffff)-1].End = int64(time.Since(r.t.epoch))
}

// derived adds a closed child of parent that starts with it and lasts
// seconds, clipped to the parent.
func (r *recorder) derived(parent int64, layer, name string, seconds float64) {
	if r == nil || seconds <= 0 {
		return
	}
	if r.locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	p := r.spans[int(parent&0xffffffff)-1]
	end := p.Start + int64(seconds*1e9)
	if p.End > 0 && end > p.End {
		end = p.End
	}
	id := r.id<<32 | int64(len(r.spans)+1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: p.Start, End: end, Derived: true})
}

// counter sums every sample of one metric name in the registry.
func (t *tracer) counter(name string) float64 {
	sum := 0.0
	for _, s := range t.reg.Snapshot() {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// all returns every recorded span, closed ones only.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		r.mu.Lock()
		for _, s := range r.spans {
			if s.End >= s.Start && s.End > 0 {
				out = append(out, s)
			}
		}
		r.mu.Unlock()
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerShare is one row of a trace summary.
type layerShare struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	MsOp  float64 `json:"self_ms_per_op"`
	Share float64 `json:"share_pct"` // of summed op time
}

// summarize groups self time by (layer, name) and relates it to the
// summed duration of the op spans.
func summarize(spans []span) (rows []layerShare, ops int) {
	self := selfTimes(spans)
	type key struct{ layer, name string }
	sum := map[key]*layerShare{}
	var opNs int64
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
			opNs += s.End - s.Start
		}
		k := key{s.Layer, s.Name}
		if sum[k] == nil {
			sum[k] = &layerShare{Layer: s.Layer, Name: s.Name}
		}
		sum[k].Calls++
		sum[k].MsOp += float64(self[s.ID]) / 1e6
	}
	for _, r := range sum {
		if opNs > 0 {
			r.Share = 100 * r.MsOp * 1e6 / float64(opNs)
		}
		if ops > 0 {
			r.MsOp /= float64(ops)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, ops
}

// write stores the trace of one workload under dir/out.
func (t *tracer) write(dir, workload string) (string, []layerShare, error) {
	spans := t.all()
	rows, ops := summarize(spans)
	doc := struct {
		Workload string       `json:"workload"`
		Ops      int          `json:"ops"`
		Summary  []layerShare `json:"summary"`
		Spans    []span       `json:"spans"`
	}{workload, ops, rows, spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", nil, err
	}
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(out, "trace-"+workload+".json")
	return path, rows, os.WriteFile(path, raw, 0o644)
}
