package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/configstore"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/runtime"
)

const rollingSumSrc = "../../testdata/rollingsum.pbcc"

func newTestServer(t *testing.T, storePath string, tweak func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.AddKernels(); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadDSLFile(rollingSumSrc); err != nil {
		t.Fatal(err)
	}
	store, err := configstore.Open(storePath, 32)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewPool(4)
	opts := Options{
		Pool:     pool,
		Store:    store,
		Registry: reg,
		TuneMax:  512,
		Logf:     t.Logf,
	}
	if tweak != nil {
		tweak(&opts)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		pool.Shutdown()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	st, out, err := tryPostJSON(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return st, out
}

// tryPostJSON is postJSON for goroutines other than the test's own,
// which must not call t.Fatal: it returns the failure instead.
func tryPostJSON(url string, body any) (int, map[string]any, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s: bad response body: %v", url, err)
	}
	return resp.StatusCode, out, nil
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: bad response body: %v", url, err)
	}
	return resp.StatusCode, out
}

// expectedSortChecksum reproduces the sort benchmark's fingerprint
// independently of any configuration.
func expectedSortChecksum(n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	in := sortk.Generate(rng, n)
	sort.Slice(in.Data, func(i, j int) bool { return in.Data[i] < in.Data[j] })
	sum := 0.0
	for i, v := range in.Data {
		sum += float64(v) * float64(i+1)
	}
	return sum
}

// TestConcurrentRuns is the acceptance-criteria integration test: 24
// concurrent /v1/run requests across one native kernel (sort) and one
// interpreted .pbcc transform (RollingSum), outputs verified against an
// independent computation / for cross-request agreement. Run under
// -race this also exercises the admission layer, the shared pool, and
// the config store concurrently.
func TestConcurrentRuns(t *testing.T) {
	_, ts := newTestServer(t, "", nil)
	const (
		perProgram = 12
		sortN      = 2000
		rollN      = 48
		seed       = int64(7)
	)
	wantSort := expectedSortChecksum(sortN, seed)
	type reply struct {
		program string
		status  int
		body    map[string]any
		err     error
	}
	out := make(chan reply, 2*perProgram)
	var wg sync.WaitGroup
	post := func(program string, n int) {
		defer wg.Done()
		st, body, err := tryPostJSON(ts.URL+"/v1/run", map[string]any{"program": program, "n": n, "seed": seed})
		out <- reply{program, st, body, err}
	}
	for i := 0; i < perProgram; i++ {
		wg.Add(2)
		go post("sort", sortN)
		go post("RollingSum", rollN)
	}
	wg.Wait()
	close(out)
	rollChecksums := map[float64]int{}
	counts := map[string]int{}
	for r := range out {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("%s run failed (%d, %v): %v", r.program, r.status, r.err, r.body)
		}
		counts[r.program]++
		cs, _ := r.body["checksum"].(float64)
		switch r.program {
		case "sort":
			if cs != wantSort {
				t.Fatalf("sort checksum %v, want %v (output incorrect)", cs, wantSort)
			}
		case "RollingSum":
			rollChecksums[cs]++
		}
		if src := r.body["config_source"]; src != "baseline" {
			t.Fatalf("untuned server must serve the baseline config, got %v", src)
		}
	}
	if counts["sort"] != perProgram || counts["RollingSum"] != perProgram {
		t.Fatalf("reply counts: %v", counts)
	}
	if len(rollChecksums) != 1 {
		t.Fatalf("RollingSum outputs disagree across identical requests: %v", rollChecksums)
	}
	for cs := range rollChecksums {
		if cs == 0 {
			t.Fatal("RollingSum checksum is zero; transform produced no output")
		}
	}
}

// TestTunePersistPickup tunes sort and RollingSum through /v1/tune,
// verifies the tuned configs are served to subsequent /v1/run calls,
// and that they survive a store save/load round trip into a second
// server instance.
func TestTunePersistPickup(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "store.json")
	srv, ts := newTestServer(t, storePath, nil)
	workers := srv.pool.NumWorkers()

	for _, tc := range []struct {
		program string
		n       int64
	}{
		{"sort", 512},
		{"RollingSum", 32},
	} {
		st, body := postJSON(t, ts.URL+"/v1/tune", map[string]any{
			"program": tc.program, "n": tc.n, "max": tc.n, "wait": true,
		})
		if st != http.StatusOK {
			t.Fatalf("tune %s failed (%d): %v", tc.program, st, body)
		}
		if body["promoted"] != true {
			t.Fatalf("first tune of %s must promote: %v", tc.program, body)
		}
		wantKey := configstore.KeyFor(tc.program, tc.n, workers).String()
		if body["config"] != wantKey {
			t.Fatalf("tune key = %v, want %s", body["config"], wantKey)
		}

		// Subsequent runs at a nearby size pick the tuned config up.
		st, body = postJSON(t, ts.URL+"/v1/run", map[string]any{"program": tc.program, "n": int(tc.n) - 5})
		if st != http.StatusOK {
			t.Fatalf("run after tune failed (%d): %v", st, body)
		}
		if body["config_source"] != "store" || body["config"] != wantKey {
			t.Fatalf("run after tune served %v/%v, want store/%s", body["config_source"], body["config"], wantKey)
		}
	}

	// /v1/configs reports both entries.
	st, body := getJSON(t, ts.URL+"/v1/configs")
	if st != http.StatusOK {
		t.Fatalf("configs failed: %v", body)
	}
	if entries := body["entries"].([]any); len(entries) != 2 {
		t.Fatalf("expected 2 stored configs, got %d", len(entries))
	}

	// The store file on disk round-trips into a brand-new server.
	back, err := configstore.Open(storePath, 32)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("store file holds %d entries, want 2", back.Len())
	}
	_, ts2 := newTestServer(t, storePath, nil)
	st, body = postJSON(t, ts2.URL+"/v1/run", map[string]any{"program": "sort", "n": 500})
	if st != http.StatusOK || body["config_source"] != "store" {
		t.Fatalf("restarted server did not pick the persisted config up: %d %v", st, body)
	}
}

// TestTunedSortConfigShape pins down that tuning actually changes
// serving behaviour: after tuning, the stored selector must not be the
// O(n^2) pure insertion sort at the training size.
func TestTunedSortConfigShape(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "store.json")
	srv, ts := newTestServer(t, storePath, nil)
	st, body := postJSON(t, ts.URL+"/v1/tune", map[string]any{"program": "sort", "n": 1024, "max": 1024, "wait": true})
	if st != http.StatusOK {
		t.Fatalf("tune failed: %v", body)
	}
	cfg, _, ok := srv.store.Get(configstore.KeyFor("sort", 1024, srv.pool.NumWorkers()))
	if !ok {
		t.Fatal("tuned entry missing from store")
	}
	if cfg.Selector("sort", 0).Choose(1024).Choice == sortk.ChoiceIS {
		t.Fatalf("tuned selector still pure insertion sort at n=1024: %v", cfg.Sels["sort"])
	}
}

// TestAdmissionSheds verifies the admission layer: with one execution
// slot and a zero-length queue, concurrent requests to a slow program
// are shed with 503 instead of piling onto the pool.
func TestAdmissionSheds(t *testing.T) {
	reg := NewRegistry()
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	if err := reg.Add(&bench.Benchmark{
		Name: "slow",
		Run: func(_ *runtime.Pool, _ *choice.Config, n int, _ int64, _ bench.RunOpts) (bench.Result, error) {
			once.Do(func() { close(started) })
			<-gate
			return bench.Result{Seconds: 0, Checksum: 1}, nil
		},
		Baseline: choice.NewConfig,
	}); err != nil {
		t.Fatal(err)
	}
	store, _ := configstore.Open("", 8)
	pool := runtime.NewPool(1)
	srv, err := New(Options{
		Pool: pool, Store: store, Registry: reg,
		MaxInflight: 1, MaxQueue: 1, QueueTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); pool.Shutdown() })
	// Open the gate on every exit, or a failed check leaves a handler
	// parked and the server's cleanup waiting on it.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)

	type reply struct {
		status int
		err    error
	}
	replies := make(chan reply, 3)
	post := func() { // on its own goroutine: reports, never fails the test
		st, _, err := tryPostJSON(ts.URL+"/v1/run", map[string]any{"program": "slow", "n": 1})
		replies <- reply{st, err}
	}
	go post()
	select {
	case <-started: // the first request holds the only slot
	case r := <-replies:
		t.Fatalf("first request ended before its execution started (%d, %v)", r.status, r.err)
	case <-time.After(10 * time.Second):
		t.Fatal("first request never started")
	}
	go post()
	go post()
	// Both extra requests either exceed the queue bound immediately or
	// time out waiting; at least one 503 must be shed while the slot is
	// held. Then release the slot so queued work finishes.
	time.Sleep(200 * time.Millisecond)
	release()
	var got []int
	okCount, shedCount := 0, 0
	for i := 0; i < 3; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatalf("request failed: %v", r.err)
		}
		c := r.status
		got = append(got, c)
		switch c {
		case http.StatusOK:
			okCount++
		case http.StatusServiceUnavailable:
			shedCount++
		}
	}
	if okCount < 1 || shedCount < 1 || okCount+shedCount != 3 {
		t.Fatalf("admission codes = %v, want >=1 OK and >=1 503", got)
	}
}

// TestErrorsAndStats covers the 4xx surfaces and the stats/programs
// endpoints.
func TestErrorsAndStats(t *testing.T) {
	_, ts := newTestServer(t, "", nil)
	if st, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "nope", "n": 10}); st != http.StatusNotFound {
		t.Fatalf("unknown program: got %d", st)
	}
	if st, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "sort"}); st != http.StatusBadRequest {
		t.Fatalf("missing n: got %d", st)
	}
	if st, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "sort", "n": 1 << 30}); st != http.StatusBadRequest {
		t.Fatalf("oversized n: got %d", st)
	}
	// poisson has no baseline and no stored config -> 409.
	if st, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "poisson", "n": 65}); st != http.StatusConflict {
		t.Fatalf("untuned poisson: got %d", st)
	}
	// poisson is not tunable through the generic endpoint -> 400.
	if st, _ := postJSON(t, ts.URL+"/v1/tune", map[string]any{"program": "poisson"}); st != http.StatusBadRequest {
		t.Fatalf("poisson tune: got %d", st)
	}
	if st, _ := getJSON(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Fatal("healthz failed")
	}
	st, body := getJSON(t, ts.URL+"/v1/programs")
	if st != http.StatusOK {
		t.Fatal("programs failed")
	}
	progs := body["programs"].([]any)
	names := map[string]bool{}
	for _, p := range progs {
		names[p.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"sort", "matmul", "eigen", "poisson", "RollingSum"} {
		if !names[want] {
			t.Fatalf("program %q missing from /v1/programs: %v", want, names)
		}
	}
	// One successful run, then stats must reflect it.
	if st, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "sort", "n": 100}); st != http.StatusOK {
		t.Fatalf("run failed: %v", body)
	}
	st, body = getJSON(t, ts.URL+"/v1/stats")
	if st != http.StatusOK {
		t.Fatal("stats failed")
	}
	reqs := body["requests"].(map[string]any)
	if reqs["completed"].(float64) < 1 {
		t.Fatalf("stats did not count the run: %v", reqs)
	}
	if _, ok := body["pool"].(map[string]any)["workers"]; !ok {
		t.Fatalf("stats missing pool section: %v", body)
	}
	if _, ok := body["artifacts"]; ok {
		t.Fatalf("stats still has an artifacts section: %v", body["artifacts"])
	}
}

// TestEngineSelection checks that the server, not the client, selects
// the execution tier: a request that still names an "engine" is
// rejected, one that does not agrees with the AST oracle run
// in-process, and /v1/stats surfaces the tier-compilation statistics.
func TestEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, "", nil)
	for _, engine := range []string{"interp", "turbo"} {
		req := map[string]any{"program": "RollingSum", "n": 64, "engine": engine}
		if st, body := postJSON(t, ts.URL+"/v1/run", req); st != http.StatusBadRequest {
			t.Fatalf("%v: got %d, want 400: %v", req, st, body)
		}
	}
	var sums []float64
	for range 2 {
		req := map[string]any{"program": "RollingSum", "n": 64}
		st, body := postJSON(t, ts.URL+"/v1/run", req)
		if st != http.StatusOK {
			t.Fatalf("%v: got %d: %v", req, st, body)
		}
		sums = append(sums, body["checksum"].(float64))
	}
	bs, err := bench.LoadDSL(rollingSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	var oracle *bench.Benchmark
	for _, b := range bs {
		if b.Name == "RollingSum" {
			oracle = b
		}
	}
	if oracle == nil {
		t.Fatal("RollingSum missing from its source file")
	}
	cfg := choice.NewConfig()
	cfg.SetInt(interp.EngineKey, interp.EngineInterp)
	pool := runtime.NewPool(1)
	defer pool.Shutdown()
	res, err := oracle.Run(pool, cfg, 64, 1, bench.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sum := range sums {
		if sum != res.Checksum {
			t.Fatalf("request %d: checksum %v, AST oracle %v", i, sum, res.Checksum)
		}
	}
	st, body := getJSON(t, ts.URL+"/v1/stats")
	if st != http.StatusOK {
		t.Fatal("stats failed")
	}
	engines, ok := body["engines"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing engines section: %v", body)
	}
	compiled, ok := engines["compiled"].(map[string]any)
	if !ok || len(compiled) == 0 {
		t.Fatalf("engines stats recorded no tier compiles: %v", engines)
	}
	// Both RollingSum rules — including the direct sum-over-region rule
	// — are inside the bytecode fragment since reductions lower, so the
	// jit must record no fallback for this transform.
	if fallbacks, ok := engines["fallbacks"].([]any); ok {
		for _, f := range fallbacks {
			r := f.(map[string]any)
			if r["tier"] == "jit" && r["transform"] == "RollingSum" {
				t.Fatalf("unexpected jit fallback for RollingSum: %v", r)
			}
		}
	}
}

// TestTuneNeverPromotesBrokenConfig sanity-checks the tuner's evaluator
// path: the evaluator bench.Tune returns must give a working baseline
// config a finite cost (broken configs score 1e30 and can never rank
// above it).

func TestTuneNeverPromotesBrokenConfig(t *testing.T) {
	b, _ := bench.Lookup("sort")
	pool := runtime.NewPool(1)
	defer pool.Shutdown()
	_, _, w, err := bench.Tune(b, pool, b.MinSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.Baseline()
	if c := w.Measure(cfg, 256); c >= 1e30 {
		t.Fatalf("baseline sort config disqualified: %g", c)
	}
}

// TestConfigsLookup drives GET /v1/configs?program=&n=&workers= on one
// node: an exact match, a nearest-bucket match, a miss, and the 400s
// for a bad n or workers.
func TestConfigsLookup(t *testing.T) {
	srv, ts := newTestServer(t, "", nil)
	// An empty store lists no entries as [], not null.
	if _, body := getJSON(t, ts.URL+"/v1/configs"); body["entries"] == nil {
		t.Fatalf("empty store: entries = %v, want []", body["entries"])
	}
	k := configstore.KeyFor("sort", 512, 4)
	cfg := choice.NewConfig()
	cfg.SetInt("sort.seqcutoff", 128)
	srv.store.Put(k, cfg, 0.001, time.Unix(100, 0))

	lookup := func(query string) map[string]any {
		t.Helper()
		st, body := getJSON(t, ts.URL+"/v1/configs?"+query)
		if st != http.StatusOK {
			t.Fatalf("%s: status %d: %v", query, st, body)
		}
		if _, ok := body["digest"]; ok {
			t.Fatalf("%s: reply still carries a digest: %v", query, body)
		}
		if entries := body["entries"].([]any); len(entries) != 1 || entries[0].(map[string]any)["key"] != k.String() {
			t.Fatalf("%s: entries = %v, want the one stored entry", query, entries)
		}
		lw, ok := body["lookup"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no lookup in %v", query, body)
		}
		return lw
	}

	// Exact: same bucket, and workers defaults to the pool's width.
	for _, q := range []string{"program=sort&n=512&workers=4", "program=sort&n=300"} {
		lw := lookup(q)
		if lw["found"] != true || lw["exact"] != true || lw["matched_key"] != k.String() ||
			lw["matched_bucket"] != float64(k.Bucket) || lw["want_bucket"] != float64(k.Bucket) ||
			lw["workers"] != float64(4) {
			t.Fatalf("%s: exact lookup = %v", q, lw)
		}
	}
	// Nearest bucket: a larger size is served the stored bucket.
	lw := lookup("program=sort&n=4096&workers=4")
	if lw["found"] != true || lw["exact"] != false || lw["matched_bucket"] != float64(k.Bucket) ||
		lw["want_bucket"] != float64(12) {
		t.Fatalf("nearest-bucket lookup = %v", lw)
	}
	// Not found: no entry for the program.
	lw = lookup("program=matmul&n=512")
	if lw["found"] != false || lw["exact"] != false {
		t.Fatalf("missing program lookup = %v", lw)
	}
	if _, ok := lw["matched_key"]; ok {
		t.Fatalf("a miss names a matched key: %v", lw)
	}

	for _, q := range []string{
		"program=sort", "program=sort&n=0", "program=sort&n=-3", "program=sort&n=abc",
		"program=sort&n=512&workers=0", "program=sort&n=512&workers=x",
	} {
		if st, body := getJSON(t, ts.URL+"/v1/configs?"+q); st != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %v", q, st, body)
		}
	}
}

// TestIdenticalRunsEachExecute: /v1/run has one execution path, so
// two identical requests that overlap both run, even with the ignored
// Options.CoalesceWindow set. A registry entry parks every execution
// on a gate, so the two requests are in flight at the same time for
// certain. Each reply, /v1/stats and /metrics carry exactly the keys
// and series of that one path.
func TestIdenticalRunsEachExecute(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	metrics := obs.NewRegistry()
	_, ts := newTestServer(t, "", func(o *Options) {
		o.CoalesceWindow = 10 * time.Millisecond
		o.Metrics = metrics
		if err := o.Registry.Add(&bench.Benchmark{
			Name: "gated",
			Run: func(_ *runtime.Pool, _ *choice.Config, n int, seed int64, _ bench.RunOpts) (bench.Result, error) {
				started <- struct{}{}
				<-gate
				return bench.Result{Checksum: float64(n) * float64(seed)}, nil
			},
			Baseline: choice.NewConfig,
		}); err != nil {
			t.Fatal(err)
		}
	})
	// Open the gate on every exit, or a failed check leaves a handler
	// parked and the server's cleanup waiting on it.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)

	counts := func() (admitted, completed float64) {
		t.Helper()
		_, stats := getJSON(t, ts.URL+"/v1/stats")
		req := stats["requests"].(map[string]any)
		return req["admitted"].(float64), req["completed"].(float64)
	}
	admitted0, completed0 := counts()

	type reply struct {
		status int
		body   map[string]any
		err    error
	}
	replies := make(chan reply, 2)
	post := func() { // on its own goroutine: reports, never fails the test
		var r reply
		r.status, r.body, r.err = tryPostJSON(ts.URL+"/v1/run", map[string]any{"program": "gated", "n": 64, "seed": 5})
		replies <- r
	}
	for i := 0; i < 2; i++ {
		go post()
		select {
		case <-started: // the second request runs beside the parked first
		case <-time.After(10 * time.Second):
			t.Fatalf("execution %d never started", i+1)
		}
	}
	release()

	wantKeys := []string{"bucket", "checksum", "config", "config_source", "n", "program", "seconds", "workers"}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("run failed (%d, %v): %v", r.status, r.err, r.body)
		}
		if got := r.body["checksum"]; got != float64(64*5) {
			t.Fatalf("checksum %v, want %d", got, 64*5)
		}
		if got := slices.Sorted(maps.Keys(r.body)); !slices.Equal(got, wantKeys) {
			t.Fatalf("reply keys %v, want %v", got, wantKeys)
		}
	}
	if admitted, completed := counts(); admitted-admitted0 != 2 || completed-completed0 != 2 {
		t.Fatalf("admitted +%v, completed +%v; want +2 each", admitted-admitted0, completed-completed0)
	}

	_, stats := getJSON(t, ts.URL+"/v1/stats")
	wantSections := []string{"engines", "pool", "requests", "store", "tuner", "uptime_seconds"}
	if got := slices.Sorted(maps.Keys(stats)); !slices.Equal(got, wantSections) {
		t.Fatalf("/v1/stats sections %v, want %v", got, wantSections)
	}
	var buf strings.Builder
	if err := metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE pb_server_"); ok {
			families = append(families, strings.Fields(name)[0])
		}
	}
	sort.Strings(families)
	wantFamilies := []string{"inflight", "queue_waiting", "request_seconds", "requests_total", "tune_jobs_total"}
	if !slices.Equal(families, wantFamilies) {
		t.Fatalf("pb_server_* families %v, want %v", families, wantFamilies)
	}
}
