// Package server implements pbserve: a long-running PetaBricks
// execution service. It exposes the benchmark kernels and interpreted
// .pbcc transforms over HTTP (stdlib net/http only), executes every
// request under the best known tuned configuration from a persistent
// config store, caps concurrent work against one shared work-stealing
// pool through an admission layer, and tunes (program, size bucket)
// keys on request, promoting a configuration only when it re-measures
// faster than the incumbent. Every /v1/run request executes on its
// own handler goroutine.
//
// API:
//
//	POST /v1/run       {"program","n","seed","acc"}      execute once
//	POST /v1/tune      {"program","n","max","wait"}      (re)tune
//	GET  /v1/configs   [?program=&n=&workers=]           stored configs
//	GET  /v1/stats                                       counters
//	GET  /v1/programs                                    registered programs
//	GET  /healthz                                        liveness
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/configstore"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/runtime"
)

// Options configures a Server. Pool, Store, and Registry are required.
type Options struct {
	Pool     *runtime.Pool
	Store    *configstore.Store
	Registry *Registry

	// MaxInflight caps requests executing simultaneously on the shared
	// pool; further requests queue. Default: 2 × pool workers.
	MaxInflight int
	// MaxQueue caps requests waiting for an execution slot before the
	// server sheds load with 503. Default 64.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot.
	// Default 10s.
	QueueTimeout time.Duration
	// MaxN rejects absurd input sizes outright. Default 1<<21.
	MaxN int
	// TuneMax is the default largest training size for /v1/tune requests
	// that omit "max". Default 4096.
	TuneMax int64
	// Logf, when set, receives operational log lines (tuning outcomes,
	// save failures). Nil is silent.
	Logf func(format string, args ...any)
	// Metrics, when set, enables observability: GET /metrics serves the
	// registry in Prometheus text format and the server, pool, and store
	// register their metrics on it. Nil disables collection entirely.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in).
	EnablePprof bool

	// Deprecated: ignored; coalescing was removed. Delete it with the next benchmark/ commit.
	CoalesceWindow time.Duration
}

const (
	// promoteMargin is the fractional speedup a freshly tuned config
	// must show over the incumbent to be promoted.
	promoteMargin = 0.02
	// tuneSeed is the base seed for tuning measurements.
	tuneSeed = 1
)

func (o Options) withDefaults() (Options, error) {
	if o.Pool == nil || o.Store == nil || o.Registry == nil {
		return o, errors.New("server: Pool, Store, and Registry are required")
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2 * o.Pool.NumWorkers()
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 10 * time.Second
	}
	if o.MaxN <= 0 {
		o.MaxN = 1 << 21
	}
	if o.TuneMax <= 0 {
		o.TuneMax = 4096
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// Server is the pbserve HTTP service. Construct with New, serve
// Handler(), and Close before shutting the pool down.
type Server struct {
	opts  Options
	pool  *runtime.Pool
	store *configstore.Store
	reg   *Registry
	tuner *tuner
	mux   *http.ServeMux

	// resolved keeps the configuration each (program, size bucket,
	// workers) key was last served, for as long as the store's epoch
	// stands.
	resolvedMu sync.Mutex
	resolved   map[configstore.Key]*resolution

	sem     chan struct{} // admission slots
	waiting atomic.Int64  // requests queued for a slot
	closed  atomic.Bool

	start     time.Time
	requests  atomic.Int64 // /v1/run requests admitted for execution
	completed atomic.Int64 // /v1/run requests finished successfully
	failures  atomic.Int64 // /v1/run executions that returned an error
	shed      atomic.Int64 // requests rejected by the admission layer

	// Request latency histograms; nil (a no-op to observe) unless
	// Options.Metrics was set.
	latRun  *obs.Histogram
	latTune *obs.Histogram
}

// New builds a Server and starts its background tuner goroutine.
func New(opts Options) (*Server, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		pool:  opts.Pool,
		store: opts.Store,
		reg:   opts.Registry,
		sem:   make(chan struct{}, opts.MaxInflight),
		start: time.Now(),

		resolved: map[configstore.Key]*resolution{},
	}
	s.tuner = newTuner(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/tune", s.handleTune)
	s.mux.HandleFunc("/v1/configs", s.handleConfigs)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/programs", s.handlePrograms)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.instrument()
	s.tuner.startLoop()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting work and drains: the background tuner shuts
// down (queued tune jobs are failed so waiting clients unblock rather
// than hang the HTTP drain) and the config store is flushed once. It
// does not close the pool — the owner does that after the HTTP listener
// has drained.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.tuner.stop()
	if err := s.store.Save(); err != nil {
		s.opts.Logf("pbserve: final store save failed: %v", err)
	}
}

// --- admission ----------------------------------------------------------

var (
	errBusy     = errors.New("server at capacity")
	errShutdown = errors.New("server shutting down")
)

// isBusy classifies an execution error as admission shedding (503
// territory) rather than an execution failure.
func isBusy(err error) bool {
	return errors.Is(err, errBusy) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// acquire claims an execution slot, queuing up to MaxQueue waiters for
// at most QueueTimeout. This is the admission layer: every benchmark
// execution shares one pool, so total concurrency is bounded no matter
// how many HTTP connections arrive.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.waiting.Add(1) > int64(s.opts.MaxQueue) {
		s.waiting.Add(-1)
		return errBusy
	}
	defer s.waiting.Add(-1)
	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-t.C:
		return errBusy
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// inflight returns the number of requests currently executing.
func (s *Server) inflight() int { return len(s.sem) }

// --- handlers -----------------------------------------------------------

type runRequest struct {
	Program string `json:"program"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
	Acc     *int   `json:"acc"` // poisson accuracy index; nil = highest
}

type runResponse struct {
	Program      string  `json:"program"`
	N            int     `json:"n"`
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	Checksum     float64 `json:"checksum"`
	Detail       string  `json:"detail,omitempty"`
	Config       string  `json:"config"`
	ConfigSource string  `json:"config_source"` // "store" or "baseline"
	// Bucket is the size bucket of the stored entry that served the
	// config (-1 when running on the untrained baseline); comparing it
	// with the request's own bucket shows how far the nearest-bucket
	// lookup stretched.
	Bucket int `json:"bucket"`
}

// validateRun applies the /v1/run request checks, normalizing defaults
// in place. It returns the benchmark and the accuracy index, or an HTTP
// error to send.
func (s *Server) validateRun(req *runRequest) (b *bench.Benchmark, acc int, code int, errMsg string) {
	b, ok := s.reg.Get(req.Program)
	if !ok {
		return nil, 0, http.StatusNotFound, fmt.Sprintf("unknown program %q", req.Program)
	}
	if req.N <= 0 {
		return nil, 0, http.StatusBadRequest, "n must be positive"
	}
	if req.N > s.opts.MaxN {
		return nil, 0, http.StatusBadRequest, fmt.Sprintf("n exceeds the server limit %d", s.opts.MaxN)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	acc = -1
	if req.Acc != nil {
		acc = *req.Acc
	}
	return b, acc, 0, ""
}

// resolution is the configuration served to one (program, size
// bucket, workers) key: the store's tuned entry (nearest bucket) or the
// benchmark's untrained baseline, as the store answered at epoch.
// Requests share it and only read it.
type resolution struct {
	cfg    *choice.Config
	key    configstore.Key // the stored entry that answered; zero on baseline
	tuned  bool
	keyStr string // key.String(), or "baseline"
	source string // "store" or "baseline"
	bucket int    // key.Bucket, -1 on baseline
	epoch  uint64
}

// resolveConfig finds the best known configuration for the request.
// The store is searched, and its config cloned, once per key and store
// epoch; a repeat within the epoch only counts its lookup, so /v1/stats
// hits and the LRU order are those of a full lookup per request.
func (s *Server) resolveConfig(b *bench.Benchmark, req runRequest) (*resolution, string) {
	k := configstore.KeyFor(req.Program, int64(req.N), s.pool.NumWorkers())
	s.resolvedMu.Lock()
	rs := s.resolved[k]
	s.resolvedMu.Unlock()
	if rs != nil && s.store.Rehit(rs.key, rs.tuned, rs.epoch) {
		return rs, ""
	}
	cfg, key, tuned, epoch := s.store.Resolve(req.Program, int64(req.N), k.Workers)
	switch {
	case tuned:
		rs = &resolution{cfg: cfg, key: key, tuned: true, keyStr: key.String(), source: "store", bucket: key.Bucket, epoch: epoch}
	case b.Baseline != nil:
		rs = &resolution{cfg: b.Baseline(), keyStr: "baseline", source: "baseline", bucket: -1, epoch: epoch}
	default:
		return nil, fmt.Sprintf("program %q has no tuned configuration and no baseline; tune it first", req.Program)
	}
	s.resolvedMu.Lock()
	s.resolved[k] = rs
	s.resolvedMu.Unlock()
	return rs, ""
}

// execute runs one /v1/run request under the admission layer and
// maintains the request counters. A result whose seconds or checksum
// JSON cannot carry is a failed execution.
func (s *Server) execute(ctx context.Context, b *bench.Benchmark, cfg *choice.Config, req runRequest, acc int) (bench.Result, error) {
	if s.closed.Load() {
		return bench.Result{}, errShutdown
	}
	if err := s.acquire(ctx); err != nil {
		return bench.Result{}, err
	}
	s.requests.Add(1)
	started := time.Now()
	res, err := b.Run(s.pool, cfg, req.N, req.Seed, bench.RunOpts{AccIndex: acc})
	s.latRun.ObserveSince(started)
	s.release()
	if err == nil {
		err = finite(res)
	}
	if err != nil {
		s.failures.Add(1)
		return res, err
	}
	s.completed.Add(1)
	return res, nil
}

// finite rejects a result a JSON reply cannot carry.
func finite(res bench.Result) error {
	switch {
	case math.IsInf(res.Seconds, 0) || math.IsNaN(res.Seconds):
		return fmt.Errorf("cannot encode reply: seconds is %v", res.Seconds)
	case math.IsInf(res.Checksum, 0) || math.IsNaN(res.Checksum):
		return fmt.Errorf("cannot encode reply: checksum is %v", res.Checksum)
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	var req runRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	b, acc, code, msg := s.validateRun(&req)
	if code != 0 {
		writeErr(w, code, msg)
		return
	}

	rs, errMsg := s.resolveConfig(b, req)
	if errMsg != "" {
		writeErr(w, http.StatusConflict, errMsg)
		return
	}
	res, err := s.execute(r.Context(), b, rs.cfg, req, acc)
	s.writeRunOutcome(w, runResponse{
		Program:      req.Program,
		N:            req.N,
		Workers:      s.pool.NumWorkers(),
		Seconds:      res.Seconds,
		Checksum:     res.Checksum,
		Detail:       res.Detail,
		Config:       rs.keyStr,
		ConfigSource: rs.source,
		Bucket:       rs.bucket,
	}, err)
}

// writeRunOutcome renders one /v1/run outcome, mapping admission
// shedding and shutdown to 503 and execution failures to 500.
func (s *Server) writeRunOutcome(w http.ResponseWriter, resp runResponse, err error) {
	switch {
	case err == nil:
		writeRun(w, &resp)
	case isBusy(err):
		s.shed.Add(1)
		s.writeBusy(w, "server at capacity; retry later")
	case errors.Is(err, errShutdown):
		writeErr(w, http.StatusServiceUnavailable, errShutdown.Error())
	default:
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}

type tuneRequest struct {
	Program string `json:"program"`
	N       int64  `json:"n"`    // serving size the tuned key targets; default max
	Max     int64  `json:"max"`  // largest training size; default Options.TuneMax
	Wait    bool   `json:"wait"` // block until the tune finishes
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	var req tuneRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	b, ok := s.reg.Get(req.Program)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown program %q", req.Program))
		return
	}
	if !b.Tunable() {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("program %q is not tunable through this endpoint", req.Program))
		return
	}
	if req.Max <= 0 {
		req.Max = s.opts.TuneMax
	}
	if req.N <= 0 {
		req.N = req.Max
	}
	if req.N > int64(s.opts.MaxN) || req.Max > int64(s.opts.MaxN) {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("size exceeds the server limit %d", s.opts.MaxN))
		return
	}
	job := tuneJob{program: req.Program, size: req.N, max: req.Max}
	if req.Wait {
		job.reply = make(chan tuneOutcome, 1)
	}
	if !s.tuner.enqueue(job) {
		s.writeBusy(w, "tuning queue full; retry later")
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"status":  "queued",
			"program": req.Program,
			"n":       req.N,
			"max":     req.Max,
		})
		return
	}
	started := time.Now()
	select {
	case out := <-job.reply:
		s.latTune.ObserveSince(started)
		if out.Err != nil {
			writeErr(w, http.StatusInternalServerError, out.Err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "done",
			"config":   out.Key,
			"promoted": out.Promoted,
			"new_cost": out.NewCost,
			"old_cost": out.OldCost,
		})
	case <-r.Context().Done():
		writeErr(w, http.StatusRequestTimeout, "client went away while tuning")
	}
}

// configEntry is one tuned configuration in a GET /v1/configs reply.
// Config holds the textual choice.Config payload line by line (the
// pbtune file format), so entries stay human-readable.
type configEntry struct {
	Key     string    `json:"key"`
	Program string    `json:"program"`
	Bucket  int       `json:"bucket"`
	Workers int       `json:"workers"`
	Cost    float64   `json:"cost"`
	TunedAt time.Time `json:"tuned_at"`
	Hits    int64     `json:"hits"`
	Config  []string  `json:"config"`
}

// configLookup reports one lookup performed by GET
// /v1/configs?program=&n=: which entry a run of that shape would be
// served, and how far the nearest-bucket match stretched.
type configLookup struct {
	Program       string `json:"program"`
	N             int64  `json:"n"`
	Workers       int    `json:"workers"`
	WantBucket    int    `json:"want_bucket"`
	Found         bool   `json:"found"`
	MatchedKey    string `json:"matched_key,omitempty"`
	MatchedBucket int    `json:"matched_bucket,omitempty"`
	Exact         bool   `json:"exact"`
}

// configsResponse is the GET /v1/configs payload.
type configsResponse struct {
	Entries []configEntry `json:"entries"`
	Lookup  *configLookup `json:"lookup,omitempty"`
}

// configLines flattens a configuration into the pbtune file format,
// line by line. It defers to choice.Config.Write so the payload can
// never drift from what choice.Read accepts.
func configLines(cfg *choice.Config) []string {
	var buf strings.Builder
	if err := cfg.Write(&buf); err != nil {
		return nil
	}
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return lines
}

// handleConfigs serves the stored configurations. Two forms:
//
//	GET /v1/configs                            full entry list
//	GET /v1/configs?program=X&n=N[&workers=W]  + which entry a run would get
//
// The lookup form answers "which bucket would actually serve this
// size" without executing anything.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := s.store.Snapshot()
	resp := configsResponse{Entries: make([]configEntry, 0, len(snap))}
	for _, e := range snap {
		resp.Entries = append(resp.Entries, configEntry{
			Key:     e.Key.String(),
			Program: e.Key.Program,
			Bucket:  e.Key.Bucket,
			Workers: e.Key.Workers,
			Cost:    e.Cost,
			TunedAt: e.TunedAt,
			Hits:    e.Hits,
			Config:  configLines(e.Cfg),
		})
	}
	q := r.URL.Query()
	if prog := q.Get("program"); prog != "" {
		n, err := strconv.ParseInt(q.Get("n"), 10, 64)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "lookup needs a positive integer n")
			return
		}
		workers := s.pool.NumWorkers()
		if wq := q.Get("workers"); wq != "" {
			if workers, err = strconv.Atoi(wq); err != nil || workers <= 0 {
				writeErr(w, http.StatusBadRequest, "workers must be a positive integer")
				return
			}
		}
		lw := &configLookup{
			Program:    prog,
			N:          n,
			Workers:    workers,
			WantBucket: configstore.Bucket(n),
		}
		if _, key, ok := s.store.Lookup(prog, n, workers); ok {
			lw.Found = true
			lw.MatchedKey = key.String()
			lw.MatchedBucket = key.Bucket
			lw.Exact = key.Bucket == lw.WantBucket && key.Workers == workers
		}
		resp.Lookup = lw
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"requests": map[string]any{
			"admitted":  s.requests.Load(),
			"completed": s.completed.Load(),
			"failed":    s.failures.Load(),
			"shed":      s.shed.Load(),
			"inflight":  s.inflight(),
			"queued":    s.waiting.Load(),
		},
		"pool": map[string]any{
			"workers":  s.pool.NumWorkers(),
			"steals":   s.pool.Steals(),
			"executed": s.pool.Executed(),
		},
		"store":   s.store.Stats(),
		"tuner":   s.tuner.statsSnapshot(),
		"engines": interp.EngineStatsSnapshot(),
	})
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	type prog struct {
		Name    string `json:"name"`
		Tunable bool   `json:"tunable"`
	}
	var out []prog
	for _, name := range s.reg.Names() {
		b, _ := s.reg.Get(name)
		out = append(out, prog{Name: name, Tunable: b.Tunable()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"programs": out})
}

// --- helpers ------------------------------------------------------------

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
