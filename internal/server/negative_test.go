package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/configstore"
	"petabricks/internal/runtime"
)

// newNegativeServer builds a server with one execution slot, a blocking
// "slow" program (not tunable — no search space), and the native
// kernels, for exercising every rejection path.
func newNegativeServer(t *testing.T) (*Server, *httptest.Server, chan struct{}, chan struct{}) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.AddKernels(); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	if err := reg.Add(&bench.Benchmark{
		Name: "slow",
		Run: func(_ *runtime.Pool, _ *choice.Config, n int, _ int64, _ bench.RunOpts) (bench.Result, error) {
			started <- struct{}{}
			<-release
			return bench.Result{Checksum: 1}, nil
		},
		Baseline: choice.NewConfig,
	}); err != nil {
		t.Fatal(err)
	}
	store, err := configstore.Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewPool(2)
	srv, err := New(Options{
		Pool: pool, Store: store, Registry: reg,
		MaxInflight: 1, MaxQueue: 4, QueueTimeout: 5 * time.Second,
		MaxN: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); pool.Shutdown() })
	return srv, ts, started, release
}

// TestHandlerNegativePaths is the table-driven sweep over every way a
// request can be malformed: wrong method, broken or mistyped JSON,
// unknown fields, oversized bodies, unknown programs, out-of-range sizes, and tuning a
// program that has no search space.
func TestHandlerNegativePaths(t *testing.T) {
	_, ts, _, release := newNegativeServer(t)
	defer close(release)

	huge := `{"n": 8, "program": "` + strings.Repeat("x", 1<<21) + `"}`
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"run rejects GET", http.MethodGet, "/v1/run", "", http.StatusMethodNotAllowed},
		{"run rejects PUT", http.MethodPut, "/v1/run", `{"program":"sort","n":8}`, http.StatusMethodNotAllowed},
		{"tune rejects GET", http.MethodGet, "/v1/tune", "", http.StatusMethodNotAllowed},
		{"configs rejects POST", http.MethodPost, "/v1/configs", "{}", http.StatusMethodNotAllowed},
		{"stats rejects POST", http.MethodPost, "/v1/stats", "{}", http.StatusMethodNotAllowed},
		{"programs rejects DELETE", http.MethodDelete, "/v1/programs", "", http.StatusMethodNotAllowed},

		{"run empty body", http.MethodPost, "/v1/run", "", http.StatusBadRequest},
		{"run truncated JSON", http.MethodPost, "/v1/run", `{"program": "sort", "n":`, http.StatusBadRequest},
		{"run not JSON", http.MethodPost, "/v1/run", "program=sort&n=8", http.StatusBadRequest},
		{"run mistyped field", http.MethodPost, "/v1/run", `{"program": 7, "n": "eight"}`, http.StatusBadRequest},
		{"run oversized body", http.MethodPost, "/v1/run", huge, http.StatusBadRequest},
		{"run unknown field", http.MethodPost, "/v1/run", `{"program": "sort", "n": 8, "sed": 3}`, http.StatusBadRequest},
		{"run removed engine field", http.MethodPost, "/v1/run", `{"program": "sort", "n": 8, "engine": "interp"}`, http.StatusBadRequest},

		{"run unknown program", http.MethodPost, "/v1/run", `{"program": "nope", "n": 8}`, http.StatusNotFound},
		{"run missing n", http.MethodPost, "/v1/run", `{"program": "sort"}`, http.StatusBadRequest},
		{"run zero n", http.MethodPost, "/v1/run", `{"program": "sort", "n": 0}`, http.StatusBadRequest},
		{"run negative n", http.MethodPost, "/v1/run", `{"program": "sort", "n": -4}`, http.StatusBadRequest},
		{"run n over limit", http.MethodPost, "/v1/run", `{"program": "sort", "n": 8192}`, http.StatusBadRequest},

		{"tune empty body", http.MethodPost, "/v1/tune", "", http.StatusBadRequest},
		{"tune bad JSON", http.MethodPost, "/v1/tune", `{"program"`, http.StatusBadRequest},
		{"tune unknown field", http.MethodPost, "/v1/tune", `{"program": "sort", "wiat": true}`, http.StatusBadRequest},
		{"tune unknown program", http.MethodPost, "/v1/tune", `{"program": "nope"}`, http.StatusNotFound},
		{"tune untunable program", http.MethodPost, "/v1/tune", `{"program": "slow"}`, http.StatusBadRequest},
		{"tune n over limit", http.MethodPost, "/v1/tune", `{"program": "sort", "n": 8192}`, http.StatusBadRequest},
		{"tune max over limit", http.MethodPost, "/v1/tune", `{"program": "sort", "max": 9999}`, http.StatusBadRequest},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: got %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.want, body)
			}
			// Every rejection must still be well-formed JSON with an error field.
			if !strings.Contains(string(body), `"error"`) {
				t.Fatalf("%s %s: rejection body lacks error field: %s", tc.method, tc.path, body)
			}
		})
	}
}

// TestRoutes pins the HTTP surface: every endpoint in the package
// comment answers, and nothing else is routed. The async job API
// (/v1/jobs) and the peer artifact listing (/v1/artifacts) are gone.
func TestRoutes(t *testing.T) {
	_, ts, _, release := newNegativeServer(t)
	defer close(release)

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/run", `{"program": "sort", "n": 8}`, http.StatusOK},
		{http.MethodPost, "/v1/tune", `{"program": "slow"}`, http.StatusBadRequest},
		{http.MethodGet, "/v1/configs", "", http.StatusOK},
		{http.MethodGet, "/v1/stats", "", http.StatusOK},
		{http.MethodGet, "/v1/programs", "", http.StatusOK},
		{http.MethodGet, "/healthz", "", http.StatusOK},

		{http.MethodPost, "/v1/jobs", `{"program": "sort", "n": 8}`, http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/job-1-00000000", "", http.StatusNotFound},
		{http.MethodGet, "/v1/artifacts", "", http.StatusNotFound},
		{http.MethodGet, "/v1/artifacts?digest=1", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: got %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestRunRejectedAfterClose checks the shutdown gate: once Close has
// run, execution endpoints shed with 503 instead of touching the pool.
func TestRunRejectedAfterClose(t *testing.T) {
	srv, ts, _, release := newNegativeServer(t)
	close(release)
	srv.Close()
	for _, path := range []string{"/v1/run", "/v1/tune"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"program": "sort", "n": 8}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s after Close: got %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestRunCancellationWhileQueued cancels a request that is waiting for
// the single execution slot: the server must notice the dead client,
// count the request as shed, leave the queue clean, and keep serving.
func TestRunCancellationWhileQueued(t *testing.T) {
	srv, ts, started, release := newNegativeServer(t)

	// Occupy the only slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"program": "slow", "n": 1}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Queue a second request, then cancel it client-side mid-wait.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"program": "slow", "n": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request reported success")
	}
	for srv.waiting.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled request still counted as waiting")
		}
		time.Sleep(time.Millisecond)
	}
	// The handler counts the shed request after its queue slot is gone,
	// so wait for the count rather than read it once.
	for srv.shed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled request was not counted as shed")
		}
		time.Sleep(time.Millisecond)
	}

	// Unblock the first request and confirm the server still serves.
	close(release)
	wg.Wait()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"program": "slow", "n": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-started
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after cancellation recovery: got %d, want 200", resp.StatusCode)
	}
}
