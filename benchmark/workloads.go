package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"petabricks/internal/artifact"
	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/configstore"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
	"petabricks/internal/server"
)

// This file sets up the five workloads. Every one is a closed loop: a
// caller here waits for its reply before it sends the next op. An op is
// one sweep over the workload's fixed program table, so the latency
// distribution has one mode.

// Warm-up is a fixed count of ops, so setup_s measures work done and
// not time waited.
const (
	execWarmup  = 48
	bootWarmup  = 16
	serveWarmup = 64
)

// workload is one entry of workloadSpecs made runnable.
type workload struct {
	name    string
	table   []entry
	workers int // pool width; 0 means nproc
	// setup loads, compiles, runs once and warms up; it is what setup_s
	// times. refs are the reference outputs, computed before and outside
	// it.
	setup func(e env, w workload, refs outputs, t *tracer) (*instance, error)
}

// width is the pool width the workload runs on.
func (w workload) width(e env) int {
	if w.workers > 0 {
		return w.workers
	}
	return e.nproc
}

// outputs holds the matrices of one sweep, one map per table entry.
type outputs []map[string]*matrix.Matrix

// workloads lists the five in the order of workloadSpecs. The two
// data-parallel sweeps run on one worker: README.md "Noise rules", 3.
func workloads() []workload {
	return []workload{
		{name: "exec_cell", table: cellTable, workers: 1, setup: setupExec},
		{name: "exec_task", table: taskTable, workers: 1, setup: setupExec},
		{name: "exec_macro", table: macroTable, setup: setupExec},
		{name: "boot_cold", table: bootTable, setup: setupBoot},
		{name: "serve_small", table: serveTable, setup: setupServe},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolCounters reads the executor's cumulative counters: tasks and
// steals from the pool, parks and wakes through the registry the pool
// was instrumented on (zero when untraced).
func poolCounters(pool *runtime.Pool, t *tracer) func() map[string]float64 {
	return func() map[string]float64 {
		m := map[string]float64{
			"tasks":  float64(pool.Executed()),
			"steals": float64(pool.Steals()),
		}
		if t != nil {
			m["parks"] = t.counter("pb_pool_worker_parks_total")
			m["wakes"] = t.counter("pb_pool_worker_wakes_total")
			m["plan_hits"] = t.counter("pb_interp_plan_cache_hits_total")
			m["compile_hits"] = t.counter("pb_interp_cache_hits_total")
		}
		return m
	}
}

// newPool starts a pool, instrumented when traced.
func newPool(workers int, t *tracer) *runtime.Pool {
	pool := runtime.NewPool(workers)
	if t != nil {
		pool.Instrument(t.reg)
	}
	return pool
}

// --- exec_cell, exec_task, exec_macro ----------------------------------

// setupExec prepares steady-state Engine.Run over a table: plans and
// bytecode are cached by the first sweep and only read afterwards.
func setupExec(e env, w workload, refs outputs, t *tracer) (*instance, error) {
	pool := newPool(w.width(e), t)
	rs, err := e.load(w.table, pool, nil)
	if err != nil {
		pool.Shutdown()
		return nil, err
	}
	for i := 0; i < 1+execWarmup; i++ {
		if err := sweep(rs); err != nil {
			pool.Shutdown()
			return nil, err
		}
	}
	c := &client{rec: t.recorder(false), scratch: make(outputs, len(rs))}
	return &instance{
		clients: []*client{c},
		op: func(c *client) error {
			outs := c.scratch.(outputs)
			for i, r := range rs {
				sp := c.rec.begin("interp", "Engine.Run "+r.key)
				out, err := r.run()
				c.rec.end(sp)
				if err != nil {
					return err
				}
				outs[i] = out
			}
			return nil
		},
		// Every 8th sweep is compared, bit for bit, with the reference.
		verify: func(c *client) bool {
			if c.n%8 != 0 {
				return true
			}
			for i, out := range c.scratch.(outputs) {
				if !sameOutputs(out, refs[i]) {
					return false
				}
			}
			return true
		},
		counters: poolCounters(pool, t),
		close:    pool.Shutdown,
	}, nil
}

// --- boot_cold ----------------------------------------------------------

// bootState is what every boot_cold op reuses: the sources, and per
// table entry its configuration and inputs (the runners' engines are
// used for nothing else). None of it is a cache of the program under
// test.
type bootState struct {
	srcs []string
	rs   []*runner
}

func loadBootState(e env, table []entry) (*bootState, error) {
	rs, err := e.load(table, nil, nil)
	if err != nil {
		return nil, err
	}
	st := &bootState{rs: rs}
	for _, r := range rs {
		src, err := e.source(r.file)
		if err != nil {
			return nil, err
		}
		st.srcs = append(st.srcs, src)
	}
	return st, nil
}

// bootOnce is one cold start of program i against store: parse,
// analyse, then the first run, which builds the plan, lowers the rules
// and persists both.
func (st *bootState) bootOnce(rec *recorder, i int, store *artifact.Store, pool *runtime.Pool) (map[string]*matrix.Matrix, error) {
	sp := rec.begin("parser", "parser.Parse")
	prog, err := parser.Parse(st.srcs[i])
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("analysis", "interp.New")
	eng, err := interp.New(prog)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	eng.UseArtifacts(store)
	r := st.rs[i]
	view := eng.WithConfig(r.view.Cfg)
	view.Pool = pool
	plan0, comp0 := interp.PlanStats().BuildSeconds, interp.CompileSeconds()
	sp = rec.begin("interp", "Engine.Run first")
	out, err := view.Run(r.name, r.inputs)
	rec.end(sp)
	rec.derived(sp, "interp", "plan build", interp.PlanStats().BuildSeconds-plan0)
	rec.derived(sp, "jit", "rule compile", interp.CompileSeconds()-comp0)
	return out, err
}

// bootSweep boots every program of the table against one store.
func (st *bootState) bootSweep(rec *recorder, store *artifact.Store, pool *runtime.Pool, outs outputs) error {
	for i, r := range st.rs {
		out, err := st.bootOnce(rec, i, store, pool)
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		outs[i] = out
	}
	return nil
}

func setupBoot(e env, w workload, refs outputs, t *tracer) (*instance, error) {
	base, err := e.scratch("boot-")
	if err != nil {
		return nil, err
	}
	st, err := loadBootState(e, w.table)
	if err != nil {
		return nil, err
	}
	pool := newPool(w.width(e), t)
	c := &client{rec: t.recorder(false), scratch: make(outputs, len(w.table))}
	op := func(c *client) error {
		dir := filepath.Join(base, strconv.FormatInt(c.n, 10))
		sp := c.rec.begin("artifact", "artifact.Open")
		store, err := artifact.Open(dir, artifact.Options{})
		c.rec.end(sp)
		if err != nil {
			return err
		}
		return st.bootSweep(c.rec, store, pool, c.scratch.(outputs))
	}
	verify := func(c *client) bool {
		ok := os.RemoveAll(filepath.Join(base, strconv.FormatInt(c.n, 10))) == nil
		for i, out := range c.scratch.(outputs) {
			ok = ok && sameOutputs(out, refs[i])
		}
		return ok
	}
	for ; c.n < bootWarmup; c.n++ {
		if err := op(c); err != nil || !verify(c) {
			pool.Shutdown()
			return nil, fmt.Errorf("boot_cold warm-up: op failed: %v", err)
		}
	}
	return &instance{
		clients:  []*client{c},
		op:       op,
		verify:   verify,
		counters: poolCounters(pool, t),
		close: func() {
			pool.Shutdown()
			os.RemoveAll(base)
		},
	}, nil
}

// --- serve_small --------------------------------------------------------

// serveRequest is one of the five requests of a serve_small op.
type serveRequest struct {
	key     string
	program string
	n       int
}

func serveRequests() []serveRequest {
	var out []serveRequest
	for _, en := range serveTable {
		out = append(out, serveRequest{en.key, en.name, int(en.n)})
	}
	return append(out, serveRequest{"sort", "sort", serveSortN})
}

// serveReply is the part of pbserve's /v1/run response the benchmark
// reads.
type serveReply struct {
	Checksum     float64 `json:"checksum"`
	ConfigSource string  `json:"config_source"`
}

// serveNode is an in-process pbserve: one node, coalescing off, idle
// re-tuning off, the config store filled from configs/serve.cfg so
// every lookup takes the store path.
type serveNode struct {
	pool    *runtime.Pool
	reg     *server.Registry
	store   *configstore.Store
	srv     *server.Server
	handler http.Handler
	cfg     *choice.Config
}

func newServeNode(e env, t *tracer) (*serveNode, error) {
	var st *serveTrace
	if t != nil {
		st = &serveTrace{rec: t.recorder(true)}
	}
	n := &serveNode{pool: newPool(e.nproc, t), reg: server.NewRegistry()}
	fail := func(err error) (*serveNode, error) {
		n.pool.Shutdown()
		return nil, err
	}
	for _, en := range serveTable { // one program file per entry
		if err := n.reg.LoadDSLFile(filepath.Join(e.dir, "programs", en.file)); err != nil {
			return fail(err)
		}
	}
	if err := n.reg.Add(bench.SortBenchmark()); err != nil {
		return fail(err)
	}
	var err error
	if n.cfg, err = e.config("serve.cfg"); err != nil {
		return fail(err)
	}
	if n.store, err = configstore.Open("", 0); err != nil {
		return fail(err)
	}
	for _, r := range serveRequests() {
		n.store.Put(configstore.KeyFor(r.program, int64(r.n), e.nproc), n.cfg, 1, time.Unix(0, 0))
		if st != nil {
			st.wrapRun(n.reg, r.program)
		}
	}
	opts := server.Options{Pool: n.pool, Store: n.store, Registry: n.reg, CoalesceWindow: -1}
	if t != nil {
		opts.Metrics = t.reg
	}
	if n.srv, err = server.New(opts); err != nil {
		return fail(err)
	}
	n.handler = n.srv.Handler()
	if st != nil {
		n.handler = st.handler(n.handler)
	}
	return n, nil
}

func (n *serveNode) close() {
	n.srv.Close()
	n.pool.Shutdown()
}

// spanHeader carries "<client span ID> <program> <seed>" to the handler
// side, so the spans of one request share a tree. Seeds are unique per
// request, which makes (program, seed) name it.
const spanHeader = "X-Benchmark-Span"

// serveTrace records the server-side spans of a traced serve_small
// pass: one recorder shared by the handler goroutines, and the handler
// span each in-flight request is under.
type serveTrace struct {
	rec  *recorder
	open sync.Map // "<program> <seed>" -> handler span ID
}

// handler records a span around the whole of h.
func (st *serveTrace) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, request, _ := strings.Cut(r.Header.Get(spanHeader), " ")
		id, _ := strconv.ParseInt(parent, 10, 64)
		sp := st.rec.beginUnder(id, "server", "Handler.ServeHTTP")
		st.open.Store(request, sp)
		h.ServeHTTP(w, r)
		st.open.Delete(request)
		st.rec.endUnder(sp)
	})
}

// wrapRun records a span around one registered benchmark's Run, and
// under it the seconds the benchmark says its kernel took.
func (st *serveTrace) wrapRun(reg *server.Registry, program string) {
	b, _ := reg.Get(program)
	run := b.Run
	b.Run = func(pool *runtime.Pool, cfg *choice.Config, n int, seed int64, opt bench.RunOpts) (bench.Result, error) {
		parent, _ := st.open.Load(program + " " + strconv.FormatInt(seed, 10))
		id, _ := parent.(int64)
		sp := st.rec.beginUnder(id, "bench", "Benchmark.Run "+program)
		res, err := run(pool, cfg, n, seed, opt)
		st.rec.endUnder(sp)
		st.rec.derived(sp, "exec", "kernel "+program, res.Seconds)
		return res, err
	}
}

// post sends one /v1/run request and decodes the reply. It returns the
// JSON bytes of the request and the reply together.
func post(hc *http.Client, url string, rec *recorder, r serveRequest, seed int64) (serveReply, int, error) {
	body := fmt.Sprintf(`{"program":%q,"n":%d,"seed":%d}`, r.program, r.n, seed)
	sp := rec.begin("http", "POST /v1/run "+r.key)
	defer rec.end(sp)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader([]byte(body)))
	if err != nil {
		return serveReply{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d %s %d", sp, r.program, seed))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return serveReply{}, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return serveReply{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return serveReply{}, 0, fmt.Errorf("%s n=%d: status %d: %s", r.program, r.n, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var rep serveReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return serveReply{}, 0, err
	}
	if rep.ConfigSource != "store" {
		return rep, 0, fmt.Errorf("%s: config came from %q, want the store", r.program, rep.ConfigSource)
	}
	return rep, len(body) + len(raw), nil
}

// serveOracle recomputes the checksum pbserve should report for one
// request: DSL programs on the AST interpreter without a pool, native
// sort with the standard library.
type serveOracle struct {
	refs []*runner // AST, nil pool, same order as serveTable
}

func newServeOracle(e env) (*serveOracle, error) {
	rs, err := e.load(serveTable, nil, pinTier(interp.EngineInterp))
	return &serveOracle{rs}, err
}

func (o *serveOracle) checksum(i int, r serveRequest, seed int64) (float64, error) {
	if i == len(o.refs) {
		data := sortk.Generate(rand.New(rand.NewSource(seed)), r.n).Data
		sort.Slice(data, func(a, b int) bool { return data[a] < data[b] })
		sum := 0.0
		for j, v := range data {
			sum += float64(v) * float64(j+1)
		}
		return sum, nil
	}
	ref := o.refs[i]
	in, err := ref.view.GenerateInputs(ref.name, ref.n, seed)
	if err != nil {
		return 0, err
	}
	out, err := ref.view.Run(ref.name, in)
	if err != nil {
		return 0, err
	}
	if err := oracle(ref.name, in, out); err != nil {
		return 0, err
	}
	return checksum(out), nil
}

func setupServe(e env, _ workload, _ outputs, t *tracer) (*instance, error) {
	node, err := newServeNode(e, t)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(node.handler)
	orc, err := newServeOracle(e)
	if err != nil {
		ts.Close()
		node.close()
		return nil, err
	}
	reqs := serveRequests()
	inst := &instance{counters: poolCounters(node.pool, t)}
	var transports []*http.Transport
	for i := 0; i < e.nproc; i++ {
		// One keep-alive connection per client.
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		transports = append(transports, tr)
		inst.clients = append(inst.clients, &client{
			id: i, rec: t.recorder(false),
			scratch: &serveCaller{hc: &http.Client{Transport: tr}, sums: make([]float64, len(reqs))},
		})
	}
	// Seeds are unique per request: no two requests of a run share
	// inputs, so nothing can be answered from a previous reply.
	inst.op = func(c *client) error {
		sc := c.scratch.(*serveCaller)
		sc.seed = 1 + e.seed*1_000_003 + int64(c.id)*500_000_000 + c.n
		for i, r := range reqs {
			rep, _, err := post(sc.hc, ts.URL, c.rec, r, sc.seed)
			if err != nil {
				return err
			}
			sc.sums[i] = rep.Checksum
		}
		return nil
	}
	// The first 32 ops of a client and every 64th after are checked.
	inst.verify = func(c *client) bool {
		if c.n >= 32 && c.n%64 != 0 {
			return true
		}
		sc := c.scratch.(*serveCaller)
		for i, r := range reqs {
			want, err := orc.checksum(i, r, sc.seed)
			if err != nil || want != sc.sums[i] {
				return false
			}
		}
		return true
	}
	inst.close = func() {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
		ts.Close()
		node.close()
	}
	for _, c := range inst.clients {
		for ; c.n < serveWarmup; c.n++ {
			if err := inst.op(c); err != nil || !inst.verify(c) {
				inst.close()
				return nil, fmt.Errorf("serve_small warm-up: op failed: %v", err)
			}
		}
	}
	return inst, nil
}

// serveCaller is one client's connection and what its last op left for
// verify: the seed it sent and the checksums it got back.
type serveCaller struct {
	hc   *http.Client
	seed int64
	sums []float64
}
