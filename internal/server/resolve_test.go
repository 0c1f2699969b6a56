package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/configstore"
	"petabricks/internal/runtime"
)

// storeHits reads /v1/stats' store hit count.
func storeHits(t *testing.T, url string) int64 {
	t.Helper()
	_, st := getJSON(t, url+"/v1/stats")
	return int64(st["store"].(map[string]any)["hits"].(float64))
}

// TestResolvedConfigBookkeeping: a config resolved once per store epoch
// still counts every request as the lookup it stands for — /v1/stats
// hits rise by exactly one per served request, each entry's hits too,
// and the LRU victim after a fill is the least recently served entry,
// not the first put or the first resolved.
func TestResolvedConfigBookkeeping(t *testing.T) {
	store, err := configstore.Open("", 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, "", func(o *Options) { o.Store = store })
	workers := srv.pool.NumWorkers()
	sizes := map[string]int{"sort": 64, "matmul": 16, "eigen": 16, "RollingSum": 64}
	put := func(program string) {
		b, _ := srv.reg.Get(program)
		store.Put(configstore.KeyFor(program, int64(sizes[program]), workers), b.Baseline(), 1, time.Unix(0, 0))
	}
	put("sort")
	put("matmul")
	put("eigen")

	hits := storeHits(t, ts.URL)
	// First resolutions in the order matmul, sort, eigen; then matmul
	// and sort again from their kept resolutions, leaving eigen the
	// least recently served.
	for _, p := range []string{"matmul", "sort", "eigen", "matmul", "sort"} {
		code, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": p, "n": sizes[p]})
		if code != 200 || body["config_source"] != "store" {
			t.Fatalf("%s: %d %v", p, code, body)
		}
		if now := storeHits(t, ts.URL); now != hits+1 {
			t.Fatalf("%s: store hits %d -> %d, want one more", p, hits, now)
		}
		hits++
	}
	want := map[string]int64{"matmul": 2, "sort": 2, "eigen": 1}
	for _, e := range store.Snapshot() {
		if e.Hits != want[e.Key.Program] {
			t.Errorf("%s: %d hits, want %d", e.Key, e.Hits, want[e.Key.Program])
		}
	}
	put("RollingSum") // a fourth entry evicts one
	for _, e := range store.Snapshot() {
		if e.Key.Program == "eigen" {
			t.Errorf("eigen, the least recently served entry, survived the fill: %v", store.Snapshot())
		}
	}
	if len(store.Snapshot()) != 3 {
		t.Fatalf("%d entries after the fill, want 3", len(store.Snapshot()))
	}
	// The eviction moved the epoch: the next request resolves afresh and
	// still counts once.
	postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "sort", "n": 64})
	if now := storeHits(t, ts.URL); now != hits+1 {
		t.Fatalf("after the fill: store hits %d -> %d, want one more", hits, now)
	}
}

// probeBenchmark reports its config's "probe.v" as the checksum, so a
// reply shows which config served it; its baseline has probe.v = 0.
func probeBenchmark() *bench.Benchmark {
	return &bench.Benchmark{
		Name: "probe",
		Run: func(_ *runtime.Pool, cfg *choice.Config, _ int, _ int64, _ bench.RunOpts) (bench.Result, error) {
			return bench.Result{Checksum: float64(cfg.Int("probe.v", -1))}, nil
		},
		Baseline: func() *choice.Config {
			cfg := choice.NewConfig()
			cfg.SetInt("probe.v", 0)
			return cfg
		},
	}
}

func probeConfig(v int64) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetInt("probe.v", v)
	return cfg
}

// TestResolvedConfigFollowsStore: a kept resolution serves until the
// store changes — the baseline until a config is put, then each put
// config from the next request on — also while other clients are
// being served from it at the same time.
func TestResolvedConfigFollowsStore(t *testing.T) {
	srv, ts := newTestServer(t, "", func(o *Options) {
		if err := o.Registry.Add(probeBenchmark()); err != nil {
			t.Fatal(err)
		}
	})
	key := configstore.KeyFor("probe", 100, srv.pool.NumWorkers())
	run := func() (float64, string, error) {
		code, body, err := tryPostJSON(ts.URL+"/v1/run", map[string]any{"program": "probe", "n": 100})
		if err == nil && code != 200 {
			err = fmt.Errorf("status %d: %v", code, body)
		}
		if err != nil {
			return 0, "", err
		}
		return body["checksum"].(float64), body["config_source"].(string), nil
	}
	for i := 0; i < 2; i++ {
		if v, src, err := run(); err != nil || v != 0 || src != "baseline" {
			t.Fatalf("before any put: v=%v source=%q err=%v, want the baseline", v, src, err)
		}
	}

	const rounds = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, _, err := run(); err != nil || v < 0 || v > rounds {
					t.Errorf("concurrent run: v=%v err=%v", v, err)
					return
				}
			}
		}()
	}
	for v := int64(1); v <= rounds; v++ {
		srv.store.Put(key, probeConfig(v), 1, time.Now())
		for i := 0; i < 2; i++ {
			if got, src, err := run(); err != nil || got != float64(v) || src != "store" {
				t.Errorf("after putting v=%d: v=%v source=%q err=%v", v, got, src, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
