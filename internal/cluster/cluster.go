package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/obs"
)

// ForwardHeader is the single-hop guard: a node forwarding a request
// to the key's owner sets it to its own address, and a node receiving
// a request carrying it always executes locally, never forwarding
// again. One hop is all ownership routing ever needs; the guard makes
// routing disagreements during membership changes degrade to an extra
// local execution instead of a forwarding loop.
const ForwardHeader = "X-Petabricks-Forwarded"

// Options configures a Cluster.
type Options struct {
	// Self is this node's advertised address; it must be one of Peers.
	Self string
	// Peers lists every cluster member including Self. Addresses may be
	// bare host:port (http:// is assumed) or full http(s) URLs.
	Peers []string
	// ForwardTimeout bounds one forwarded request, connection included.
	// Default 15s (a forwarded run still executes a benchmark).
	ForwardTimeout time.Duration
	// SuspectFor is how long a peer that failed twice in a row is
	// skipped before forwarding is attempted again. Default 5s.
	SuspectFor time.Duration
	// Logf receives operational log lines. Nil is silent.
	Logf func(format string, args ...any)
	// Metrics, when set, registers per-peer forwarding counters.
	Metrics *obs.Registry
}

// peerState tracks one remote peer's health.
type peerState struct {
	failures     int       // consecutive forward failures
	suspectUntil time.Time // zero: healthy
}

// Cluster is the per-node view of the pbserve cluster: the consistent-
// hash ring plus the HTTP client used to reach peers. All methods are
// safe for concurrent use. A nil *Cluster behaves as a disabled,
// single-node cluster, so callers need no branching configuration.
type Cluster struct {
	self   string
	ring   *Ring
	client *http.Client
	opts   Options

	mu    sync.Mutex
	peers map[string]*peerState // remote peers only

	// Counters kept as plain atomics so /v1/stats works with metrics
	// disabled; Options.Metrics exposes them as scrape-time callbacks.
	forwardOK       atomic.Int64
	forwardErr      atomic.Int64
	forwardFallback atomic.Int64
	suspectMarks    atomic.Int64
}

// New validates opts and builds the cluster view. An empty peer list
// (or a single-member list naming only Self) returns a cluster for
// which Enabled() is false.
func New(opts Options) (*Cluster, error) {
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 15 * time.Second
	}
	if opts.SuspectFor <= 0 {
		opts.SuspectFor = 5 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	self := NormalizeAddr(opts.Self)
	peers := make([]string, 0, len(opts.Peers))
	for _, p := range opts.Peers {
		peers = append(peers, NormalizeAddr(p))
	}
	if len(peers) > 0 {
		if self == "" {
			return nil, errors.New("cluster: -peers set but self address is empty")
		}
		found := false
		for _, p := range peers {
			if p == self {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, peers)
		}
	}
	c := &Cluster{
		self:   self,
		ring:   NewRing(peers),
		client: &http.Client{Timeout: opts.ForwardTimeout},
		opts:   opts,
		peers:  map[string]*peerState{},
	}
	for _, p := range c.ring.Nodes() {
		if p != self {
			c.peers[p] = &peerState{}
		}
	}
	c.instrument()
	return c, nil
}

// NormalizeAddr canonicalizes a peer address: trims whitespace and a
// trailing slash, and assumes http:// when no scheme is given, so
// "127.0.0.1:8600" and "http://127.0.0.1:8600/" name the same node.
func NormalizeAddr(addr string) string {
	a := strings.TrimSpace(addr)
	a = strings.TrimSuffix(a, "/")
	if a == "" {
		return ""
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return a
}

// Enabled reports whether multi-node mode is on: at least two distinct
// members. Nil-safe.
func (c *Cluster) Enabled() bool { return c != nil && c.ring.Len() > 1 }

// Self returns this node's advertised address ("" when disabled).
func (c *Cluster) Self() string {
	if c == nil {
		return ""
	}
	return c.self
}

// Owner maps a shard key to its owner address and whether that is this
// node. On a disabled cluster every key is local.
func (c *Cluster) Owner(key string) (addr string, local bool) {
	if !c.Enabled() {
		return c.Self(), true
	}
	addr = c.ring.Owner(key)
	return addr, addr == c.self
}

// RemotePeers returns the other members' addresses, sorted. Nil-safe.
func (c *Cluster) RemotePeers() []string {
	if c == nil {
		return nil
	}
	var out []string
	for _, n := range c.ring.Nodes() {
		if n != c.self {
			out = append(out, n)
		}
	}
	return out
}

// Suspect reports whether addr is currently marked suspect.
func (c *Cluster) Suspect(addr string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.peers[addr]
	return ok && time.Now().Before(st.suspectUntil)
}

// markResult updates addr's health after one forward attempt. Two
// consecutive failures mark the peer suspect for SuspectFor.
func (c *Cluster) markResult(addr string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.peers[addr]
	if st == nil {
		return
	}
	if ok {
		st.failures = 0
		st.suspectUntil = time.Time{}
		return
	}
	st.failures++
	if st.failures >= 2 {
		st.suspectUntil = time.Now().Add(c.opts.SuspectFor)
		c.suspectMarks.Add(1)
		c.opts.Logf("cluster: peer %s marked suspect for %s after %d failures",
			addr, c.opts.SuspectFor, st.failures)
	}
}

// ErrPeerUnavailable is returned by Forward when the owner could not
// serve the request (down, suspect, or timing out); the caller falls
// back to local execution.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// Forward relays a JSON request to addr, retrying once on transport
// errors, and returns the peer's status code and body. The request
// carries ForwardHeader so the peer executes locally (single-hop). A
// suspect peer fails fast with ErrPeerUnavailable; transport failures
// mark the peer and map to ErrPeerUnavailable so the caller's fallback
// is one errors.Is check. Peer HTTP error statuses (4xx/5xx) are NOT
// errors here: the owner answered, so its verdict — including 503
// shedding — is relayed to the client.
func (c *Cluster) Forward(ctx context.Context, addr, method, path string, body []byte) (int, []byte, error) {
	if c.Suspect(addr) {
		c.forwardFallback.Add(1)
		return 0, nil, fmt.Errorf("%w: %s is suspect", ErrPeerUnavailable, addr)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, addr+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardHeader, c.self)
		resp, err := c.client.Do(req)
		if err != nil {
			lastErr = err
			c.markResult(addr, false)
			if ctx.Err() != nil {
				break // client went away; retrying is pointless
			}
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			c.markResult(addr, false)
			continue
		}
		c.markResult(addr, true)
		c.forwardOK.Add(1)
		return resp.StatusCode, respBody, nil
	}
	c.forwardErr.Add(1)
	c.forwardFallback.Add(1)
	return 0, nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, addr, lastErr)
}

// get fetches a JSON resource from a peer (used by the replicator).
func (c *Cluster) get(ctx context.Context, addr, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: GET %s%s: status %d", addr, path, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<24))
}

// instrument registers the cluster's forwarding metrics.
func (c *Cluster) instrument() {
	reg := c.opts.Metrics
	if reg == nil {
		return
	}
	reg.CounterFunc("pb_cluster_forwards_total", "Requests forwarded to their owner.", c.forwardOK.Load, obs.L("result", "ok"))
	reg.CounterFunc("pb_cluster_forwards_total", "Requests forwarded to their owner.", c.forwardErr.Load, obs.L("result", "error"))
	reg.CounterFunc("pb_cluster_forward_fallback_total", "Forwards that fell back to local execution.", c.forwardFallback.Load)
	reg.CounterFunc("pb_cluster_suspect_marks_total", "Times a peer was marked suspect.", c.suspectMarks.Load)
	reg.GaugeFunc("pb_cluster_peers", "Cluster members.", func() float64 { return float64(c.ring.Len()) })
	reg.GaugeFunc("pb_cluster_peers_suspect", "Remote peers currently suspect.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		now, n := time.Now(), 0
		for _, st := range c.peers {
			if now.Before(st.suspectUntil) {
				n++
			}
		}
		return float64(n)
	})
}

// Stats summarizes the cluster view for /v1/stats.
func (c *Cluster) Stats() map[string]any {
	if !c.Enabled() {
		return map[string]any{"enabled": false}
	}
	c.mu.Lock()
	suspect := []string{}
	now := time.Now()
	for p, st := range c.peers {
		if now.Before(st.suspectUntil) {
			suspect = append(suspect, p)
		}
	}
	c.mu.Unlock()
	return map[string]any{
		"enabled":   true,
		"self":      c.self,
		"peers":     c.ring.Nodes(),
		"suspect":   suspect,
		"forwarded": c.forwardOK.Load(),
		"fallbacks": c.forwardFallback.Load(),
	}
}
