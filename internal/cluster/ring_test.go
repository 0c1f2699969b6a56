package cluster

import (
	"fmt"
	"testing"
)

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return out
}

func ringKeys(n int) []string {
	progs := []string{"sort", "matmul", "eigen", "poisson", "RollingSum"}
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, ShardKey(progs[i%len(progs)], i%22))
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	nodes := ringNodes(5)
	a := NewRing(nodes)
	// Same membership in a different order must give the same owners.
	shuffled := []string{nodes[3], nodes[0], nodes[4], nodes[2], nodes[1]}
	b := NewRing(shuffled)
	for _, k := range ringKeys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q depends on input order: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil).Owner("sort/b4"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	r := NewRing([]string{"http://a"})
	for _, k := range ringKeys(50) {
		if got := r.Owner(k); got != "http://a" {
			t.Fatalf("single-node ring owner = %q", got)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	nodes := ringNodes(4)
	r := NewRing(nodes)
	keys := ringKeys(110) // the realistic shard-key space is small
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no keys: %v", n, counts)
		}
	}
	// No node should own the overwhelming majority. With 64 vnodes the
	// spread is typically within ~2x of uniform; assert a loose 60% cap
	// so the test stays robust to hash specifics.
	for n, c := range counts {
		if c > len(keys)*6/10 {
			t.Fatalf("node %s owns %d/%d keys — distribution collapsed: %v", n, c, len(keys), counts)
		}
	}
}

// TestRingSpreadsAdjacentBuckets pins the hash finaliser: the 64 size
// buckets of one program differ only in their last bytes, and must
// still spread over a 3-node ring with each node owning within 0.15 of
// a third of them (bare FNV-1a put all 64 on one node).
func TestRingSpreadsAdjacentBuckets(t *testing.T) {
	nodes := ringNodes(3)
	r := NewRing(nodes)
	const buckets, tol = 64, 0.15
	for _, p := range []string{"sort", "matmul", "RollingSum", "Heat1D", "eigen", "poisson"} {
		counts := map[string]int{}
		for b := 0; b < buckets; b++ {
			counts[r.Owner(ShardKey(p, b))]++
		}
		for _, n := range nodes {
			if share := float64(counts[n]) / buckets; share < 1.0/3-tol || share > 1.0/3+tol {
				t.Errorf("%s: node %s owns %d/%d buckets (share %.2f, want 1/3 ± %.2f): %v",
					p, n, counts[n], buckets, share, tol, counts)
			}
		}
	}
}

// TestRingStability is the consistent-hashing property that matters
// for tuned-config ownership: removing one node moves only the keys it
// owned, and adding a node moves only the keys it takes over — never a
// full reshuffle.
func TestRingStability(t *testing.T) {
	nodes := ringNodes(5)
	keys := ringKeys(1000)
	base := NewRing(nodes)
	owners := map[string]string{}
	for _, k := range keys {
		owners[k] = base.Owner(k)
	}

	t.Run("remove", func(t *testing.T) {
		removed := nodes[2]
		smaller := NewRing(append(append([]string{}, nodes[:2]...), nodes[3:]...))
		moved := 0
		for _, k := range keys {
			got := smaller.Owner(k)
			if owners[k] == removed {
				if got == removed {
					t.Fatalf("key %q still owned by removed node", k)
				}
				continue // had to move
			}
			if got != owners[k] {
				moved++
			}
		}
		if moved != 0 {
			t.Fatalf("%d keys not owned by the removed node moved anyway", moved)
		}
	})

	t.Run("add", func(t *testing.T) {
		added := "http://127.0.0.1:9100"
		bigger := NewRing(append(append([]string{}, nodes...), added))
		movedElsewhere, movedToNew := 0, 0
		for _, k := range keys {
			got := bigger.Owner(k)
			if got == owners[k] {
				continue
			}
			if got == added {
				movedToNew++
			} else {
				movedElsewhere++
			}
		}
		if movedElsewhere != 0 {
			t.Fatalf("%d keys moved between pre-existing nodes on add", movedElsewhere)
		}
		// The new node should take roughly 1/6 of the keyspace; assert a
		// loose upper bound (bounded movement) and that it took anything.
		if movedToNew == 0 {
			t.Fatal("added node took no keys")
		}
		if movedToNew > len(keys)/3 {
			t.Fatalf("added node took %d/%d keys — movement not bounded", movedToNew, len(keys))
		}
	})
}

func TestShardKeyExcludesWorkers(t *testing.T) {
	// The shard key must identify (program, bucket) only, so nodes with
	// different pool widths agree on ownership.
	if ShardKey("sort", 10) != "sort/b10" {
		t.Fatalf("unexpected shard key %q", ShardKey("sort", 10))
	}
}

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:8600":         "http://127.0.0.1:8600",
		"http://127.0.0.1:8600/": "http://127.0.0.1:8600",
		" https://node-a:1 ":     "https://node-a:1",
		"":                       "",
	}
	for in, want := range cases {
		if got := NormalizeAddr(in); got != want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}
