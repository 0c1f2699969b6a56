// Command pbserve runs the PetaBricks execution service: a long-lived
// daemon exposing the benchmark kernels and interpreted .pbcc
// transforms over HTTP. Every request executes under the best known
// tuned configuration from a persistent config store; POST /v1/tune
// tunes a (program, size-bucket) key on the shared pool and promotes
// the result only when it re-measures faster than the incumbent.
//
// Usage:
//
//	pbserve [-addr :8600] [-store pbserve.store.json] [flags]
//
//	-addr addr        listen address (default :8600)
//	-store file       config-store snapshot file (default pbserve.store.json)
//	-store-max n      LRU bound on stored configs (default 256)
//	-workers n        shared pool worker threads (default all CPUs)
//	-dsl glob         .pbcc files to serve (e.g. 'testdata/*.pbcc')
//	-max-inflight n   concurrent executions (default 2x workers)
//	-max-queue n      waiting requests before shedding (default 64)
//	-queue-timeout d  max queue wait (default 10s)
//	-max-n n          largest accepted input size (default 2097152)
//	-tune-max n       default largest training size (default 4096)
//	-pprof            mount net/http/pprof under /debug/pprof/
//
// API: POST /v1/run, POST /v1/tune, GET /v1/configs, GET /v1/stats,
// GET /v1/programs, GET /metrics (Prometheus text format), GET /healthz.
// See README "Running as a service" and "Observability".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"petabricks/internal/autotuner"
	"petabricks/internal/configstore"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/runtime"
	"petabricks/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8600", "listen address")
		storePath = flag.String("store", "pbserve.store.json", "config-store snapshot file")
		storeMax  = flag.Int("store-max", configstore.DefaultMax, "LRU bound on stored configs")
		workers   = flag.Int("workers", 0, "worker threads (default all CPUs)")
		dslGlob   = flag.String("dsl", "", "glob of .pbcc files to serve")
		inflight  = flag.Int("max-inflight", 0, "concurrent executions (default 2x workers)")
		maxQueue  = flag.Int("max-queue", 64, "waiting requests before shedding")
		queueTO   = flag.Duration("queue-timeout", 10*time.Second, "max queue wait")
		maxN      = flag.Int("max-n", 1<<21, "largest accepted input size")
		tuneMax   = flag.Int64("tune-max", 4096, "default largest training size")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	reg := server.NewRegistry()
	if err := reg.AddKernels(); err != nil {
		fatal(err)
	}
	if *dslGlob != "" {
		paths, err := filepath.Glob(*dslGlob)
		if err != nil {
			fatal(err)
		}
		if len(paths) == 0 {
			fatal(fmt.Errorf("no files match -dsl %q", *dslGlob))
		}
		for _, p := range paths {
			if err := reg.LoadDSLFile(p); err != nil {
				fatal(err)
			}
		}
	}

	store, err := configstore.Open(*storePath, *storeMax)
	if err != nil {
		fatal(err)
	}

	pool := runtime.NewPool(*workers)

	// A long-running daemon always collects metrics: the /metrics scrape
	// is how operators see the pool, the interpreter, and the tuner work.
	metrics := obs.NewRegistry()
	interp.Instrument(metrics)
	autotuner.Instrument(metrics)

	srv, err := server.New(server.Options{
		Pool:         pool,
		Store:        store,
		Registry:     reg,
		MaxInflight:  *inflight,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTO,
		MaxN:         *maxN,
		TuneMax:      *tuneMax,
		Logf:         log.Printf,
		Metrics:      metrics,
		EnablePprof:  *pprofOn,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("pbserve: listening on %s (%d workers, %d programs, store %s, %d tuned configs)",
		*addr, pool.NumWorkers(), len(reg.Names()), *storePath, store.Len())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("pbserve: %v; draining", s)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		return
	}

	// Orderly shutdown: stop accepting connections and drain in-flight
	// requests, stop the tuner, persist the store, then drain the worker
	// pool so no goroutine leaks past exit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("pbserve: http shutdown: %v", err)
	}
	srv.Close()
	pool.Shutdown()
	log.Printf("pbserve: stopped cleanly")
}

const (
	// readHeaderTimeout: a client that never finishes its headers does
	// not hold a connection forever.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout exceeds the 90s a Go HTTP client keeps an idle
	// connection, so the client side closes first.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer builds the daemon's server. WriteTimeout stays 0:
// /v1/tune with wait:true and long runs reply minutes after the request
// was read, and a write deadline would cut those replies off.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbserve:", err)
	os.Exit(1)
}
