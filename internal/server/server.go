// Package server implements pbserve: a long-running PetaBricks
// execution service. It exposes the benchmark kernels and interpreted
// .pbcc transforms over HTTP (stdlib net/http only), executes every
// request under the best known tuned configuration from a persistent
// config store, caps concurrent work against one shared work-stealing
// pool through an admission layer, and tunes (program, size bucket)
// keys on request, promoting a configuration only when it re-measures
// faster than the incumbent.
//
// In cluster mode (Options.Cluster) the server additionally routes
// each request to the consistent-hash owner of its (program,
// size-bucket) key, coalesces concurrent identical small runs into one
// execution, and pulls peers' tuned configurations into the local
// store. See README "Cluster mode".
//
// API:
//
//	POST /v1/run       {"program","n","seed","acc"}      execute once
//	POST /v1/tune      {"program","n","max","wait"}      (re)tune
//	GET  /v1/configs   [?digest=1 | ?program=&n=]        stored configs
//	GET  /v1/stats                                       counters
//	GET  /v1/programs                                    registered programs
//	GET  /healthz                                        liveness
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/cluster"
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

	// Cluster enables multi-node mode: requests whose (program,
	// size-bucket) shard key is owned by a peer are forwarded there, and
	// the replicator pulls peers' tuned configs into the local store.
	// Nil (or a single-member cluster) preserves single-node behavior.
	Cluster *cluster.Cluster
	// ReplicateInterval is how often tuned configurations are pulled
	// from peers. Default 5s; negative disables replication. Ignored
	// without a Cluster.
	ReplicateInterval time.Duration
	// CoalesceWindow is the micro-batch window a coalescing leader
	// lingers so identical requests arriving just behind it pile onto
	// one execution. A positive window enables coalescing anywhere; 0
	// (default) collapses concurrent duplicates with no added latency
	// but only in cluster mode — single-node behavior stays untouched
	// unless explicitly opted in. Negative disables coalescing.
	CoalesceWindow time.Duration
}

const (
	// promoteMargin is the fractional speedup a freshly tuned config
	// must show over the incumbent to be promoted.
	promoteMargin = 0.02
	// tuneSeed is the base seed for tuning measurements.
	tuneSeed = 1
	// coalesceMaxN caps the input size eligible for coalescing — large
	// runs are long enough that collapsing them saves little.
	coalesceMaxN = 1 << 16
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
	if o.ReplicateInterval == 0 {
		o.ReplicateInterval = 5 * time.Second
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

	// Cluster-mode components. cluster may be nil (single node); the
	// others always exist and degrade to local behavior on their own.
	cluster   *cluster.Cluster
	replic    *cluster.Replicator
	coalescer *cluster.Coalescer // nil: coalescing disabled

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
		opts:    opts,
		pool:    opts.Pool,
		store:   opts.Store,
		reg:     opts.Registry,
		cluster: opts.Cluster,
		sem:     make(chan struct{}, opts.MaxInflight),
		start:   time.Now(),
	}
	// Coalescing is on by default only in cluster mode: collapsing
	// identical concurrent requests changes observable single-node
	// semantics (a queued duplicate becomes a follower of the in-flight
	// execution), so single-node servers must opt in with a positive
	// window.
	if opts.CoalesceWindow > 0 || (opts.CoalesceWindow == 0 && opts.Cluster.Enabled()) {
		s.coalescer = cluster.NewCoalescer(opts.CoalesceWindow)
	}
	s.replic = cluster.NewReplicator(s.cluster, s.store, opts.ReplicateInterval, promoteMargin, opts.Logf)
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
	s.replic.Start()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting work and drains: the background tuner shuts
// down (queued tune jobs are failed so waiting clients unblock rather
// than hang the HTTP drain), the replicator stops, and the config store
// is flushed once. It does not close the pool — the owner does that
// after the HTTP listener has drained.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.tuner.stop()
	s.replic.Stop()
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
	// ServedBy names the node that executed the run (cluster mode).
	ServedBy string `json:"served_by,omitempty"`
	// Coalesced marks a response that shared another request's
	// execution rather than running itself.
	Coalesced bool `json:"coalesced,omitempty"`
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

// resolveConfig finds the best known configuration for the request:
// tuned entry from the store (nearest size bucket), falling back to
// the benchmark's untrained baseline. bucket is the matched entry's
// size bucket, -1 on baseline.
func (s *Server) resolveConfig(b *bench.Benchmark, req runRequest) (cfg *choice.Config, keyStr, source string, bucket int, errMsg string) {
	cfg, key, tuned := s.store.Lookup(req.Program, int64(req.N), s.pool.NumWorkers())
	if tuned {
		keyStr, source, bucket = key.String(), "store", key.Bucket
	} else if b.Baseline != nil {
		cfg, keyStr, source, bucket = b.Baseline(), "baseline", "baseline", -1
	} else {
		return nil, "", "", -1,
			fmt.Sprintf("program %q has no tuned configuration and no baseline; tune it first", req.Program)
	}
	return cfg, keyStr, source, bucket, ""
}

// execute runs one benchmark request under the admission layer and
// maintains the request counters. Both execution paths — a plain
// /v1/run and a coalescing leader — funnel through here.
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
	if err != nil {
		s.failures.Add(1)
		return res, err
	}
	s.completed.Add(1)
	return res, nil
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

	// Cluster routing hook: if a peer owns this (program, size-bucket)
	// key and this request has not already hopped, relay it there. A
	// failed forward falls back to local execution — the cluster layer
	// is an optimization, never a point of failure.
	if s.cluster.Enabled() && r.Header.Get(cluster.ForwardHeader) == "" {
		shard := cluster.ShardKey(req.Program, configstore.Bucket(int64(req.N)))
		if owner, local := s.cluster.Owner(shard); !local {
			if s.forwardRun(w, r, owner, req) {
				return
			}
		}
	}

	cfg, keyStr, source, bucket, errMsg := s.resolveConfig(b, req)
	if errMsg != "" {
		writeErr(w, http.StatusConflict, errMsg)
		return
	}

	makeResponse := func(res bench.Result) runResponse {
		return runResponse{
			Program:      req.Program,
			N:            req.N,
			Workers:      s.pool.NumWorkers(),
			Seconds:      res.Seconds,
			Checksum:     res.Checksum,
			Detail:       res.Detail,
			Config:       keyStr,
			ConfigSource: source,
			Bucket:       bucket,
			ServedBy:     s.cluster.Self(),
		}
	}

	// Small deterministic runs coalesce: concurrent identical requests
	// collapse into one execution whose result everyone shares. The key
	// includes the resolved config so a promotion mid-flight starts a
	// fresh execution instead of mixing configurations. Coalesced
	// executions detach from the leader's request context (their result
	// serves other clients too); the admission QueueTimeout still
	// bounds the wait.
	if s.coalescer != nil && req.N <= coalesceMaxN {
		ckey := fmt.Sprintf("%s/%d/%d/%d/%s", req.Program, req.N, req.Seed, acc, keyStr)
		v, err, follower := s.coalescer.Do(ckey, func() (any, error) {
			res, err := s.execute(context.Background(), b, cfg, req, acc)
			if err != nil {
				return runResponse{}, err
			}
			return makeResponse(res), nil
		})
		s.writeRunOutcome(w, v, err, follower)
		return
	}

	res, err := s.execute(r.Context(), b, cfg, req, acc)
	s.writeRunOutcome(w, makeResponse(res), err, false)
}

// writeRunOutcome renders one /v1/run outcome, mapping admission
// shedding and shutdown to 503 and execution failures to 500.
func (s *Server) writeRunOutcome(w http.ResponseWriter, v any, err error, follower bool) {
	switch {
	case err == nil:
		resp, ok := v.(runResponse)
		if !ok {
			writeErr(w, http.StatusInternalServerError, "internal: bad coalesced value")
			return
		}
		resp.Coalesced = follower
		writeJSON(w, http.StatusOK, resp)
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

// handleConfigs serves the stored configurations. Three forms:
//
//	GET /v1/configs                    digest + full entry list
//	GET /v1/configs?digest=1           digest only (replication probe)
//	GET /v1/configs?program=X&n=N      + which entry a run would get
//
// The digest lets replication peers skip unchanged snapshots; the
// lookup form answers "which bucket would actually serve this size"
// without executing anything.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	resp := cluster.ConfigsResponse{Digest: cluster.DigestString(s.store.Digest())}
	if q.Get("digest") != "" {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Entries = cluster.EncodeConfigs(s.store.Snapshot())
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
		lw := &cluster.LookupWire{
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
		"store":       s.store.Stats(),
		"tuner":       s.tuner.statsSnapshot(),
		"cluster":     s.cluster.Stats(),
		"replication": s.replic.Stats(),
		"coalesce": map[string]any{
			"leaders":   s.coalescer.Leaders(),
			"followers": s.coalescer.Followers(),
		},
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
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
