package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"petabricks/internal/obs"
)

// instrument wires the server's observability endpoints and metrics.
// With Options.Metrics set, GET /metrics serves the registry in
// Prometheus text format and the server registers request counters,
// admission gauges, latency histograms, the shared pool's per-worker
// scheduler metrics, config-store / background-tuner state, and the
// coalescer's counters when coalescing is on. With
// Options.EnablePprof set, the net/http/pprof handlers are mounted
// under /debug/pprof/ (opt-in: profiling endpoints expose internals and
// cost CPU while sampling).
func (s *Server) instrument() {
	if s.opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	reg := s.opts.Metrics
	if reg == nil {
		return // latency histograms stay nil; observing them is a no-op
	}
	s.mux.Handle("/metrics", obs.Handler(reg))

	reg.CounterFunc("pb_server_requests_total", "Run requests by outcome.", s.requests.Load, obs.L("result", "admitted"))
	reg.CounterFunc("pb_server_requests_total", "Run requests by outcome.", s.completed.Load, obs.L("result", "completed"))
	reg.CounterFunc("pb_server_requests_total", "Run requests by outcome.", s.failures.Load, obs.L("result", "failed"))
	reg.CounterFunc("pb_server_requests_total", "Run requests by outcome.", s.shed.Load, obs.L("result", "shed"))
	reg.GaugeFunc("pb_server_inflight", "Requests currently executing.", func() float64 {
		return float64(s.inflight())
	})
	reg.GaugeFunc("pb_server_queue_waiting", "Requests queued for an execution slot.", func() float64 {
		return float64(s.waiting.Load())
	})
	s.latRun = reg.Histogram("pb_server_request_seconds", "Request handling latency.",
		obs.LatencyBuckets, obs.L("endpoint", "run"))
	s.latTune = reg.Histogram("pb_server_request_seconds", "Request handling latency.",
		obs.LatencyBuckets, obs.L("endpoint", "tune"))

	s.pool.Instrument(reg)

	reg.GaugeFunc("pb_store_configs", "Tuned configurations held by the store.", func() float64 {
		return float64(s.store.Len())
	})
	t := s.tuner
	reg.CounterFunc("pb_server_tune_jobs_total", "Background tune jobs by outcome.", t.promoted.Load, obs.L("outcome", "promoted"))
	reg.CounterFunc("pb_server_tune_jobs_total", "Background tune jobs by outcome.", t.rejected.Load, obs.L("outcome", "rejected"))
	reg.CounterFunc("pb_server_tune_jobs_total", "Background tune jobs by outcome.", t.failed.Load, obs.L("outcome", "failed"))

	s.coalescer.Instrument(reg)
}

// retryAfterSeconds is the hint sent with load-shedding responses: the
// queue timeout is how long a queued request would have waited, so it
// is also a reasonable time for the client to back off.
func (s *Server) retryAfterSeconds() int {
	secs := int(s.opts.QueueTimeout / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeBusy is the admission layer's rejection: 503 with a Retry-After
// header and a structured JSON body, so well-behaved clients back off
// instead of hammering a saturated server.
func (s *Server) writeBusy(w http.ResponseWriter, msg string) {
	secs := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":               msg,
		"retry_after_seconds": secs,
	})
}
