// Package cluster turns pbserve into a multi-node service. It is an
// optimization layer, never a new point of failure: with no peers
// configured every component degrades to single-node behavior, and
// peer failures fall back to local execution.
//
// The pieces, each usable on its own:
//
//   - Ring: a consistent-hash ring with virtual nodes mapping
//     (program, size-bucket) shard keys to owner nodes, so each shard
//     has one node that executes it.
//   - Peers: the HTTP peer client — request forwarding with a
//     single-hop guard header, timeouts, retry-once, and suspect
//     marking so a dead peer costs one timeout, not one per request.
//   - Coalescer: singleflight-style request collapsing with a
//     micro-batch window, so concurrent identical small runs execute
//     once and share the result.
//   - Replicator: pull-based configstore replication — fetch peers'
//     config digests, merge new entries via promote-if-faster.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per physical node. 64 keeps the
// per-node share within a few percent of uniform for small clusters
// while the ring stays tiny (64 × nodes entries).
const vnodes = 64

// Ring is an immutable consistent-hash ring over node addresses. Each
// node is hashed at vnodes points; a key is owned by the first vnode
// clockwise from the key's hash. Build with NewRing; rebuilding on a
// membership change moves only the keys owned by the nodes that
// changed (≈ changed/total of the keyspace), which is the property
// that keeps tuned-config ownership stable as the cluster grows.
type Ring struct {
	hashes []uint64 // sorted vnode positions
	owner  []string // owner[i] owns hashes[i]
	nodes  []string // distinct node addresses, sorted
}

// NewRing builds a ring over the given node addresses with vnodes
// virtual nodes each. Duplicate addresses are collapsed. An empty node
// list yields a ring whose Owner returns "".
func NewRing(nodes []string) *Ring {
	seen := map[string]bool{}
	var distinct []string
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		distinct = append(distinct, n)
	}
	sort.Strings(distinct)
	r := &Ring{nodes: distinct}
	for _, n := range distinct {
		for v := 0; v < vnodes; v++ {
			r.hashes = append(r.hashes, hash64(fmt.Sprintf("%s#%d", n, v)))
			r.owner = append(r.owner, n)
		}
	}
	// Sort positions and their owners together.
	idx := make([]int, len(r.hashes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if r.hashes[idx[a]] != r.hashes[idx[b]] {
			return r.hashes[idx[a]] < r.hashes[idx[b]]
		}
		// Hash collisions between vnodes resolve by address so the ring
		// is deterministic regardless of input order.
		return r.owner[idx[a]] < r.owner[idx[b]]
	})
	hs := make([]uint64, len(idx))
	ow := make([]string, len(idx))
	for i, j := range idx {
		hs[i], ow[i] = r.hashes[j], r.owner[j]
	}
	r.hashes, r.owner = hs, ow
	return r
}

// Owner returns the node owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap: first vnode clockwise
	}
	return r.owner[i]
}

// Nodes returns the distinct node addresses on the ring, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the number of distinct nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// ShardKey renders the sharding key for (program, size-bucket). Worker
// count is deliberately excluded: ownership of a program/size pair must
// not depend on per-node pool width.
func ShardKey(program string, bucket int) string {
	return fmt.Sprintf("%s/b%d", program, bucket)
}

// hash64 is FNV-1a finished with the splitmix64 avalanche. Bare FNV-1a
// keeps keys that differ only in their last bytes ("sort/b10" …
// "sort/b15") within a narrow arc of the ring, so adjacent size buckets
// of one program landed on one node; the finaliser spreads every input
// bit over the whole word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
