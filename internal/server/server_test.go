package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"petabricks/internal/autotuner"
	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/configstore"
	"petabricks/internal/kernels/sortk"
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
	return resp.StatusCode, out
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
	}
	out := make(chan reply, 2*perProgram)
	var wg sync.WaitGroup
	for i := 0; i < perProgram; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			st, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "sort", "n": sortN, "seed": seed})
			out <- reply{"sort", st, body}
		}()
		go func() {
			defer wg.Done()
			st, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "RollingSum", "n": rollN, "seed": seed})
			out <- reply{"RollingSum", st, body}
		}()
	}
	wg.Wait()
	close(out)
	rollChecksums := map[float64]int{}
	counts := map[string]int{}
	for r := range out {
		if r.status != http.StatusOK {
			t.Fatalf("%s run failed (%d): %v", r.program, r.status, r.body)
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
	release := make(chan struct{})
	var once sync.Once
	if err := reg.Add(&bench.Benchmark{
		Name: "slow",
		Run: func(_ *runtime.Pool, _ *choice.Config, n int, _ int64, _ bench.RunOpts) (bench.Result, error) {
			once.Do(func() { close(started) })
			<-release
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

	codes := make(chan int, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "slow", "n": 1})
		codes <- st
	}()
	<-started // first request holds the only slot
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			st, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "slow", "n": 1})
			codes <- st
		}()
	}
	// Both extra requests either exceed the queue bound immediately or
	// time out waiting; at least one 503 must be shed while the slot is
	// held. Then release the slot so queued work finishes.
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()
	close(codes)
	var got []int
	okCount, shedCount := 0, 0
	for c := range codes {
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
// the execution tier: a request that still names an "engine" is served
// exactly like one that does not, both agree with the AST oracle run
// in-process, and /v1/stats surfaces the tier-compilation statistics.
func TestEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, "", nil)
	var sums []float64
	for _, req := range []map[string]any{
		{"program": "RollingSum", "n": 64},
		{"program": "RollingSum", "n": 64, "engine": "interp"},
		{"program": "RollingSum", "n": 64, "engine": "turbo"},
	} {
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
// path: the WallClock evaluator must give a working baseline config a
// finite cost (broken configs score 1e30 and can never rank above it).

func TestTuneNeverPromotesBrokenConfig(t *testing.T) {
	b, _ := bench.Lookup("sort")
	pool := runtime.NewPool(1)
	defer pool.Shutdown()
	prog := b.Program(pool)
	w := &autotuner.WallClock{P: prog, Trials: 1, Seed: 3}
	cfg := b.Baseline()
	if c := w.Measure(cfg, 256); c >= 1e30 {
		t.Fatalf("baseline sort config disqualified: %g", c)
	}
}
