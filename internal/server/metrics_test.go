package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"petabricks/internal/autotuner"
	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/runtime"
)

// TestMetricsEndpoint is the acceptance check for the observability
// layer: after live traffic, GET /metrics must expose pool steal/park
// counters, interp compile-cache counters, and request latency
// histograms in Prometheus text format, and the opt-in pprof endpoints
// must answer.
func TestMetricsEndpoint(t *testing.T) {
	mreg := obs.NewRegistry()
	interp.Instrument(mreg)
	defer interp.Instrument(nil)
	autotuner.Instrument(mreg)
	defer autotuner.Instrument(nil)

	_, ts := newTestServer(t, "", func(o *Options) {
		o.Metrics = mreg
		o.EnablePprof = true
	})

	// Live traffic: one native kernel run and two interpreted DSL runs
	// (the second hits the invocation cache).
	for _, body := range []map[string]any{
		{"program": "sort", "n": 2000, "seed": 3},
		{"program": "RollingSum", "n": 48, "seed": 3},
		{"program": "RollingSum", "n": 48, "seed": 4},
	} {
		if code, out := postJSON(t, ts.URL+"/v1/run", body); code != http.StatusOK {
			t.Fatalf("run %v: code %d body %v", body, code, out)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		// Pool scheduler state, per worker.
		`pb_pool_worker_steals_total{worker="0"}`,
		`pb_pool_worker_parks_total{worker="0"}`,
		`pb_pool_worker_queue_depth{worker="0"}`,
		"# TYPE pb_pool_task_seconds histogram",
		// Interp compile cache (two RollingSum runs: miss then hit).
		"# TYPE pb_interp_cache_hits_total counter",
		"# TYPE pb_interp_cache_misses_total counter",
		// Request latency histogram with endpoint label and buckets.
		`pb_server_request_seconds_bucket{endpoint="run",le="+Inf"} 3`,
		`pb_server_requests_total{result="completed"} 3`,
		`pb_interp_run_seconds_count{transform="RollingSum"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Families of removed mechanisms (async jobs, idle re-tuning, the
	// cluster layer and its peer artifact fetch, the served artifact
	// store, the rule counter that summed the jit's two, the warm loads of
	// a disk tier pbserve does not open, the plan cache's own eviction
	// count) and gauges that repeated other values (the worker count,
	// /v1/stats's uptime) must not come back.
	for _, gone := range []string{"pb_jobs_", "pb_server_tune_idle_runs_total",
		"pb_cluster_", "pb_artifact_", `tier="peer"`, "pb_interp_rules_compiled_total",
		"pb_jit_warm_loads_total", "pb_plan_warm_loads_total",
		"pb_interp_plan_cache_evictions_total", "pb_pool_workers", "pb_server_uptime_seconds"} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics still exposes %q:\n%s", gone, grepLines(body, gone))
		}
	}
	if !strings.Contains(body, "pb_interp_cache_hits_total 1") {
		t.Errorf("cache hit counter not live after repeated run:\n%s",
			grepLines(body, "pb_interp_cache"))
	}

	// Basic exposition-format validity: every non-comment line is
	// "name{labels} value" with a parseable value.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i < 0 || i == len(line)-1 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// pprof answers when opted in.
	pp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d, want 200", pp.StatusCode)
	}
}

// TestMetricsDisabled: without Options.Metrics, /metrics is not routed
// and pprof stays unmounted.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, "", nil)
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 when observability is off", path, resp.StatusCode)
		}
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// jsonResp carries a decoded JSON body together with the response
// headers, which the plain postJSON helper discards.
type jsonResp struct {
	header http.Header
	json   map[string]any
}

func postJSONResp(t *testing.T, url string, body any) (int, jsonResp) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: bad response body: %v", url, err)
	}
	return resp.StatusCode, jsonResp{header: resp.Header, json: out}
}

// blockingProgram signals on started, then parks every Run until the
// gate opens; it lets tests hold the background tuner busy
// deterministically.
type blockingProgram struct {
	started chan struct{}
	once    sync.Once
	gate    chan struct{}
}

func (p *blockingProgram) Run(pool *runtime.Pool, cfg *choice.Config, n int, seed int64, opt bench.RunOpts) (bench.Result, error) {
	p.once.Do(func() { close(p.started) })
	<-p.gate
	return bench.Result{Out: n}, nil
}

func blockingBenchmark(prog *blockingProgram) *bench.Benchmark {
	space := func() *choice.Space {
		sp := &choice.Space{}
		sp.AddSelector(choice.SelectorSpec{
			Transform:   "slowtune",
			ChoiceNames: []string{"only"},
			Recursive:   []bool{false},
			MaxLevels:   1,
		})
		return sp
	}
	return &bench.Benchmark{
		Name:     "slowtune",
		Run:      prog.Run,
		Space:    space,
		Same:     func(a, b any, tol float64) bool { return true },
		Baseline: func() *choice.Config { return choice.NewConfig() },
		CheckTol: -1,
		MinSize:  64,
		Trials:   1,
	}
}

// TestShedRetryAfter is the admission-layer table test: when the server
// sheds load — run slots exhausted or the tuning queue full — the
// response must be a 503 with a Retry-After header and a structured
// JSON body, not a bare 503.
func TestShedRetryAfter(t *testing.T) {
	prog := &blockingProgram{started: make(chan struct{}), gate: make(chan struct{})}
	defer close(prog.gate)
	srv, hs := newTestServer(t, "", func(o *Options) {
		o.MaxInflight = 1
		o.QueueTimeout = 200 * time.Millisecond
		if err := o.Registry.Add(blockingBenchmark(prog)); err != nil {
			t.Fatal(err)
		}
	})
	ts := hs.URL

	cases := []struct {
		name  string
		setup func(t *testing.T)
		post  string
		body  map[string]any
	}{
		{
			name: "run slots exhausted",
			setup: func(t *testing.T) {
				srv.sem <- struct{}{} // occupy the only execution slot
				t.Cleanup(func() { <-srv.sem })
			},
			post: "/v1/run",
			body: map[string]any{"program": "sort", "n": 100, "seed": 1},
		},
		{
			name: "tune queue full",
			setup: func(t *testing.T) {
				// One job parks the tuner inside the gated program, then
				// the queue is filled to capacity behind it.
				if !srv.tuner.enqueue(tuneJob{program: "slowtune", size: 64, max: 64}) {
					t.Fatal("could not start the blocking tune job")
				}
				select {
				case <-prog.started: // the tuner goroutine is parked now
				case <-time.After(5 * time.Second):
					t.Fatal("blocking tune job never started")
				}
				deadline := time.Now().Add(2 * time.Second)
				for srv.tuner.enqueue(tuneJob{program: "slowtune", size: 64, max: 64}) {
					if time.Now().After(deadline) {
						t.Fatal("tuning queue never filled")
					}
				}
			},
			post: "/v1/tune",
			body: map[string]any{"program": "slowtune", "max": 64},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.setup(t)
			code, out := postJSONResp(t, ts+tc.post, tc.body)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("code = %d, want 503 (body %v)", code, out.json)
			}
			if ra := out.header.Get("Retry-After"); ra != "1" {
				t.Errorf("Retry-After = %q, want %q (QueueTimeout rounded up)", ra, "1")
			}
			if _, ok := out.json["error"].(string); !ok {
				t.Errorf("shed body has no error string: %v", out.json)
			}
			if secs, ok := out.json["retry_after_seconds"].(float64); !ok || secs != 1 {
				t.Errorf("retry_after_seconds = %v, want 1", out.json["retry_after_seconds"])
			}
		})
	}

	// Control: a plain client error must NOT advertise Retry-After.
	code, out := postJSONResp(t, ts+"/v1/run", map[string]any{"program": "nope", "n": 1})
	if code != http.StatusNotFound {
		t.Fatalf("unknown program = %d, want 404", code)
	}
	if ra := out.header.Get("Retry-After"); ra != "" {
		t.Errorf("404 carries Retry-After %q; only shedding responses should", ra)
	}
}
