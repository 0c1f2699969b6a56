package cluster

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/configstore"
	"petabricks/internal/obs"
)

// Replicator pulls peers' tuned configurations into the local store so
// a configuration tuned on one node warms every node. Each round it
// asks every healthy remote peer for its /v1/configs digest, skips
// peers whose digest matches the last pull, and merges new entries via
// the store's promote-if-faster rule (configstore.Store.Merge). Pull
// keeps the protocol trivially safe: a node only ever writes its own
// store, replication lag is one interval, and a slow or dead peer
// costs one timed-out GET per round, never correctness.
type Replicator struct {
	cluster  *Cluster
	store    *configstore.Store
	interval time.Duration
	margin   float64
	logf     func(string, ...any)

	mu       sync.Mutex
	lastSeen map[string]string // peer -> digest at last successful pull

	quit chan struct{}
	done chan struct{}

	rounds  atomic.Int64
	merged  atomic.Int64
	skipped atomic.Int64 // digest-unchanged peer pulls avoided
	errors  atomic.Int64
}

// NewReplicator builds a replicator pulling into store every interval
// with the given promote margin. Start it with Start; it is inert (and
// Start a no-op) when the cluster is disabled or interval <= 0.
func NewReplicator(c *Cluster, store *configstore.Store, interval time.Duration, margin float64, logf func(string, ...any)) *Replicator {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Replicator{
		cluster:  c,
		store:    store,
		interval: interval,
		margin:   margin,
		logf:     logf,
		lastSeen: map[string]string{},
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the pull loop. No-op on a disabled cluster.
func (r *Replicator) Start() {
	if r == nil || !r.cluster.Enabled() || r.interval <= 0 {
		if r != nil {
			close(r.done)
		}
		return
	}
	go r.loop()
}

// Stop terminates the pull loop and waits for it to exit. Safe to call
// even when Start never ran.
func (r *Replicator) Stop() {
	if r == nil {
		return
	}
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
	<-r.done
}

func (r *Replicator) loop() {
	defer close(r.done)
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			r.PullOnce(context.Background())
		case <-r.quit:
			return
		}
	}
}

// PullOnce runs one replication round against every healthy remote
// peer and returns how many entries were merged. Exposed so tests and
// operators (via the smoke script) can force a round without waiting
// for the ticker.
func (r *Replicator) PullOnce(ctx context.Context) int {
	r.rounds.Add(1)
	total := 0
	for _, peer := range r.cluster.RemotePeers() {
		if r.cluster.Suspect(peer) {
			continue
		}
		n, err := r.pullPeer(ctx, peer)
		if err != nil {
			r.errors.Add(1)
			r.logf("cluster: replication pull from %s failed: %v", peer, err)
			continue
		}
		total += n
	}
	if total > 0 {
		if err := r.store.Save(); err != nil {
			r.logf("cluster: store save after replication failed: %v", err)
		}
	}
	return total
}

// pullPeer fetches one peer's configs and merges anything new. The
// digest travels first (GET /v1/configs?digest=1 is a few bytes); the
// full snapshot is fetched only when it differs from the last pull, so
// steady-state replication costs one tiny GET per peer per round.
func (r *Replicator) pullPeer(ctx context.Context, peer string) (int, error) {
	raw, err := r.cluster.get(ctx, peer, "/v1/configs?digest=1")
	if err != nil {
		return 0, err
	}
	var head ConfigsResponse
	if err := json.Unmarshal(raw, &head); err != nil {
		return 0, err
	}
	r.mu.Lock()
	unchanged := head.Digest != "" && r.lastSeen[peer] == head.Digest
	r.mu.Unlock()
	if unchanged {
		r.skipped.Add(1)
		return 0, nil
	}
	raw, err = r.cluster.get(ctx, peer, "/v1/configs")
	if err != nil {
		return 0, err
	}
	var resp ConfigsResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.lastSeen[peer] = resp.Digest
	r.mu.Unlock()
	merged := 0
	for _, e := range resp.Entries {
		cfg, err := ParseConfigLines(e.Config)
		if err != nil {
			r.logf("cluster: replication: bad config %s from %s: %v", e.Key, peer, err)
			continue
		}
		k := configstore.Key{Program: e.Program, Bucket: e.Bucket, Workers: e.Workers}
		if r.store.Merge(k, cfg, e.Cost, e.TunedAt, r.margin) {
			merged++
		}
	}
	if merged > 0 {
		r.merged.Add(int64(merged))
		r.logf("cluster: merged %d tuned configs from %s", merged, peer)
	}
	return merged, nil
}

// Stats summarizes replication for /v1/stats.
func (r *Replicator) Stats() map[string]any {
	if r == nil {
		return map[string]any{"enabled": false}
	}
	return map[string]any{
		"enabled":          r.cluster.Enabled() && r.interval > 0,
		"interval_seconds": r.interval.Seconds(),
		"rounds":           r.rounds.Load(),
		"merged":           r.merged.Load(),
		"skipped_pulls":    r.skipped.Load(),
		"errors":           r.errors.Load(),
	}
}

// Instrument registers replication counters.
func (r *Replicator) Instrument(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.CounterFunc("pb_cluster_replication_rounds_total", "Replication pull rounds.", r.rounds.Load)
	reg.CounterFunc("pb_cluster_replication_merged_total", "Tuned configs merged from peers.", r.merged.Load)
	reg.CounterFunc("pb_cluster_replication_skipped_total", "Peer pulls skipped on unchanged digest.", r.skipped.Load)
	reg.CounterFunc("pb_cluster_replication_errors_total", "Failed replication pulls.", r.errors.Load)
}
