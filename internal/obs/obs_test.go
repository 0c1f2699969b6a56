package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(1.5)
	g.Dec()
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "hist", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if snap[0].Count != 6 {
		t.Fatalf("count = %d, want 6", snap[0].Count)
	}
	if h.Sum() != 1066.5 {
		t.Fatalf("sum = %g, want 1066.5", h.Sum())
	}
	want := []int64{2, 2, 1, 1} // le=1: {0.5,1}; le=10: {5,10}; le=100: {50}; +Inf: {1000}
	for i, b := range snap[0].Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, want[i])
		}
	}
	if !math.IsInf(snap[0].Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %g, want +Inf", snap[0].Buckets[3].UpperBound)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", LatencyBuckets)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	r.CounterFunc("f", "", func() int64 { return 1 })
	r.GaugeFunc("f2", "", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "", L("k", "v"))
	b := r.Counter("dup_total", "", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("dup_total", "", L("k", "w"))
	if a == c {
		t.Fatal("different label value must be a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name with a different type must panic")
		}
	}()
	r.Gauge("dup_total", "", L("k", "v"))
}

// TestConcurrentExactCounts hammers one counter, one gauge, and one
// histogram from 32 goroutines and asserts the totals are exact.
func TestConcurrentExactCounts(t *testing.T) {
	const goroutines, per = 32, 10000
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_seconds", "", []float64{0.25, 0.5, 0.75})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%4+1) * 0.25) // 0.25..1.0: one value per bucket, exact in binary
			}
		}(i)
	}
	wg.Wait()
	const total = goroutines * per
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %g, want %d", g.Value(), total)
	}
	snap := r.Snapshot()[2]
	if snap.Count != total {
		t.Errorf("histogram count = %d, want %d", snap.Count, total)
	}
	// Per-goroutine sum: (0.25 + 0.5 + 0.75 + 1.0) * per/4.
	if want := float64(goroutines) * 2.5 * per / 4; h.Sum() != want {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), want)
	}
	for i, b := range snap.Buckets {
		if b.Count != total/4 {
			t.Errorf("bucket %d = %d, want %d", i, b.Count, total/4)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pb_test_total", "counted things", L("kind", `a"b\c`)).Add(3)
	r.Gauge("pb_test_gauge", "a level").Set(1.5)
	h := r.Histogram("pb_test_seconds", "latency", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(10)
	r.CounterFunc("pb_test_fn_total", "computed", func() int64 { return 7 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pb_test_total counted things\n",
		"# TYPE pb_test_total counter\n",
		`pb_test_total{kind="a\"b\\c"} 3` + "\n",
		"# TYPE pb_test_gauge gauge\n",
		"pb_test_gauge 1.5\n",
		"# TYPE pb_test_seconds histogram\n",
		`pb_test_seconds_bucket{le="0.001"} 1` + "\n",
		`pb_test_seconds_bucket{le="0.1"} 2` + "\n",
		`pb_test_seconds_bucket{le="+Inf"} 3` + "\n",
		"pb_test_seconds_count 3\n",
		"# TYPE pb_test_fn_total counter\n",
		"pb_test_fn_total 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_total", "").Inc()
	h := r.Histogram("j_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot with +Inf bucket must marshal: %v", err)
	}
	s := string(data)
	for _, want := range []string{`"name":"j_total"`, `"le":"+Inf"`, `"le":"1"`, `"count":1`} {
		if !strings.Contains(s, want) {
			t.Errorf("json missing %q in %s", want, s)
		}
	}
}
