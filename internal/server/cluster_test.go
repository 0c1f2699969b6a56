package server

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"petabricks/internal/choice"
	"petabricks/internal/cluster"
	"petabricks/internal/configstore"
	"petabricks/internal/runtime"
)

// newClusterNodes starts n pbserve nodes on loopback listeners that all
// know each other as peers. Listeners are bound before any Server is
// constructed so every node's membership list holds real addresses.
func newClusterNodes(t *testing.T, n int, tweak func(i int, o *Options)) (addrs []string, stores []*configstore.Store) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs = make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}
	stores = make([]*configstore.Store, n)
	for i := range lns {
		reg := NewRegistry()
		if err := reg.AddKernels(); err != nil {
			t.Fatal(err)
		}
		store, err := configstore.Open("", 32)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = store
		pool := runtime.NewPool(2)
		cl, err := cluster.New(cluster.Options{
			Self:           addrs[i],
			Peers:          addrs,
			ForwardTimeout: 2 * time.Second,
			SuspectFor:     300 * time.Millisecond,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Pool:              pool,
			Store:             store,
			Registry:          reg,
			TuneMax:           512,
			Logf:              t.Logf,
			Cluster:           cl,
			ReplicateInterval: -1, // tests drive replication explicitly
		}
		if tweak != nil {
			tweak(i, &opts)
		}
		srv, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
			pool.Shutdown()
		})
	}
	return addrs, stores
}

// ownerIndex rebuilds the nodes' ring (same peers, same vnode count)
// and returns which node owns the shard for (program, n).
func ownerIndex(t *testing.T, addrs []string, program string, n int) int {
	t.Helper()
	ring := cluster.NewRing(addrs, cluster.DefaultVNodes)
	owner := ring.Owner(cluster.ShardKey(program, configstore.Bucket(int64(n))))
	for i, a := range addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in membership %v", owner, addrs)
	return -1
}

// TestClusterForwarding: a run sent to a non-owner lands on the owner
// (served_by says so), the answer is still correct, and the forwarded
// request does not bounce again (single-hop guard).
func TestClusterForwarding(t *testing.T) {
	addrs, _ := newClusterNodes(t, 3, nil)

	// Find an input size owned by a node other than addrs[0] so sending
	// it to node 0 must forward.
	const program = "sort"
	n, owner := 0, 0
	for size := 64; size <= 4096; size *= 2 {
		if idx := ownerIndex(t, addrs, program, size); idx != 0 {
			n, owner = size, idx
			break
		}
	}
	if n == 0 {
		t.Skip("every probed size hashed to node 0; ring layout makes this vanishingly rare")
	}

	status, body := postJSON(t, addrs[0]+"/v1/run", map[string]any{
		"program": program, "n": n, "seed": 7,
	})
	if status != http.StatusOK {
		t.Fatalf("forwarded run failed: %d %v", status, body)
	}
	if got := body["served_by"]; got != addrs[owner] {
		t.Fatalf("served_by = %v, want owner %s", got, addrs[owner])
	}
	if sum, want := body["checksum"].(float64), expectedSortChecksum(n, 7); sum != want {
		t.Fatalf("forwarded run checksum %g, want %g", sum, want)
	}

	// Node 0's stats must show the forward; the owner's must not (the
	// guard header forces local execution on the receiving side).
	_, stats := getJSON(t, addrs[0]+"/v1/stats")
	cl := stats["cluster"].(map[string]any)
	if cl["forwarded"].(float64) < 1 {
		t.Fatalf("node 0 forwarded = %v, want >= 1", cl["forwarded"])
	}
	_, ownerStats := getJSON(t, addrs[owner]+"/v1/stats")
	if f := ownerStats["cluster"].(map[string]any)["forwarded"].(float64); f != 0 {
		t.Fatalf("owner re-forwarded %v requests; guard header broken", f)
	}
}

// TestClusterFallbackWhenPeerDown: with the owning peer unreachable the
// non-owner serves the request locally instead of failing it.
func TestClusterFallbackWhenPeerDown(t *testing.T) {
	// One live node plus one dead membership entry.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	live := "http://" + ln.Addr().String()
	// The dead entry must own some probed size, and ring ownership
	// depends on the ephemeral ports: draw addresses until one does (a
	// single draw left the test skipping one run in five).
	var dead string
	n := 0
	for try := 0; try < 50 && n == 0; try++ {
		deadLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead = "http://" + deadLn.Addr().String()
		deadLn.Close() // nothing will ever answer there
		ring := cluster.NewRing([]string{live, dead}, cluster.DefaultVNodes)
		for size := 64; size <= 1<<15 && n == 0; size *= 2 {
			if ring.Owner(cluster.ShardKey("sort", configstore.Bucket(int64(size)))) == dead {
				n = size
			}
		}
	}
	if n == 0 {
		t.Skip("no probed size owned by a dead node")
	}

	reg := NewRegistry()
	if err := reg.AddKernels(); err != nil {
		t.Fatal(err)
	}
	store, _ := configstore.Open("", 32)
	pool := runtime.NewPool(2)
	cl, err := cluster.New(cluster.Options{
		Self:           live,
		Peers:          []string{live, dead},
		ForwardTimeout: 300 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{
		Pool: pool, Store: store, Registry: reg, TuneMax: 512,
		Logf: t.Logf, Cluster: cl, ReplicateInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close(); srv.Close(); pool.Shutdown() })

	status, body := postJSON(t, live+"/v1/run", map[string]any{
		"program": "sort", "n": n, "seed": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("fallback run failed: %d %v", status, body)
	}
	if sum, want := body["checksum"].(float64), expectedSortChecksum(n, 3); sum != want {
		t.Fatalf("fallback checksum %g, want %g", sum, want)
	}
	if got := body["served_by"]; got != live {
		t.Fatalf("served_by = %v, want local node %s", got, live)
	}
	_, stats := getJSON(t, live+"/v1/stats")
	cl2 := stats["cluster"].(map[string]any)
	if cl2["fallbacks"].(float64) < 1 {
		t.Fatalf("fallbacks = %v, want >= 1", cl2["fallbacks"])
	}
}

// TestClusterReplication: a config tuned on node A reaches node B's
// store through the pull replicator and B then serves lookups from it.
func TestClusterReplication(t *testing.T) {
	addrs, stores := newClusterNodes(t, 2, func(i int, o *Options) {
		o.ReplicateInterval = 50 * time.Millisecond
	})

	// Install a tuned config on node 0 only.
	k := configstore.KeyFor("sort", 512, 2)
	cfg := choice.NewConfig()
	cfg.SetInt("sort.seqcutoff", 128)
	stores[0].Put(k, cfg, 0.001, time.Now())

	deadline := time.Now().Add(10 * time.Second)
	for stores[1].Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node 1 never replicated node 0's config")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if _, gotKey, ok := stores[1].Lookup("sort", 512, 2); !ok || gotKey != k {
		t.Fatalf("replicated lookup: key=%v ok=%v, want %v", gotKey, ok, k)
	}
	// Lookup responses expose the replicated entry too.
	_, body := getJSON(t, fmt.Sprintf("%s/v1/configs?program=sort&n=512&workers=2", addrs[1]))
	lookup, ok := body["lookup"].(map[string]any)
	if !ok || lookup["found"] != true {
		t.Fatalf("configs lookup on replica: %v", body)
	}
	if lookup["matched_bucket"].(float64) != float64(k.Bucket) {
		t.Fatalf("matched_bucket = %v, want %d", lookup["matched_bucket"], k.Bucket)
	}
}
