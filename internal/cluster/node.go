package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/obs"
)

// Config describes one node's view of the cluster.
type Config struct {
	// Self is the address peers reach this node at; it participates in
	// routing like any other member but is never dialed.
	Self string
	// Peers are the other members' addresses (validated: no duplicates,
	// never Self).
	Peers []string
	// Breaker tunes the per-peer circuit breakers; zero fields get the
	// PeerSet defaults, the same the proxy's upstream breakers use.
	Breaker breaker.Config
	// DialTimeout bounds connecting to a peer; FetchTimeout bounds one
	// whole fetch RPC (write request + read response).
	DialTimeout  time.Duration
	FetchTimeout time.Duration
	// ProbeEvery is how often unhealthy peers are dial-probed for
	// recovery once the peer set is started (0 disables probing).
	ProbeEvery time.Duration
	// MaxArtifactBytes bounds an accepted fetch payload (<= 0 selects
	// DefaultMaxArtifactBytes).
	MaxArtifactBytes int64
	// Dial overrides the dial function (tests inject faulty links).
	Dial func(network, addr string) (net.Conn, error)
	// Logf, when set, receives membership and breaker events.
	Logf func(format string, args ...any)
}

// Node routes artifact keys across the member list and fetches from
// shard owners with per-peer breakers. All methods are safe for
// concurrent use.
type Node struct {
	cfg     Config
	self    string
	peers   *PeerSet
	members []string // self + peer addresses (routing universe)

	logMu sync.Mutex
	logFn func(format string, args ...any)

	obsMu  sync.Mutex
	obsReg *obs.Registry
	labels []obs.Label
}

// New builds a node over the validated member list. The peer list is
// re-validated here so a caller wiring addresses straight from flags
// cannot accidentally shard to itself or double-weight a member.
func New(cfg Config) (*Node, error) {
	peers, err := ValidateMembers(cfg.Self, cfg.Peers)
	if err != nil {
		return nil, err
	}
	if cfg.Self == "" {
		return nil, errors.New("cluster: self address required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 15 * time.Second
	}
	n := &Node{cfg: cfg, self: cfg.Self, logFn: cfg.Logf, members: append([]string{cfg.Self}, peers...)}
	n.peers = NewPeerSet(peers, PeerSetConfig{
		Breaker: cfg.Breaker, Dial: cfg.Dial, DialTimeout: cfg.DialTimeout, ProbeEvery: cfg.ProbeEvery,
		OnStateChange: n.onBreakerChange, OnProbe: n.countProbe,
	})
	return n, nil
}

// ValidateMembers checks a peer/upstream address list against the
// node's own listen address: entries must parse as host:port, appear
// once, and never name the node itself (a node that dials itself
// probes — and fills from — its own cache, hiding real peer failures).
// Blank entries (stray commas) are dropped. The returned list keeps
// the surviving addresses in input order.
func ValidateMembers(self string, addrs []string) ([]string, error) {
	selfHost, selfPort, selfOK := splitAddr(self)
	seen := map[string]string{}
	var out []string
	for _, raw := range addrs {
		a := strings.TrimSpace(raw)
		if a == "" {
			continue
		}
		host, port, ok := splitAddr(a)
		if !ok {
			return nil, fmt.Errorf("cluster: address %q is not host:port", a)
		}
		norm := net.JoinHostPort(host, port)
		if prev, dup := seen[norm]; dup {
			return nil, fmt.Errorf("cluster: duplicate address %q (already listed as %q)", a, prev)
		}
		seen[norm] = a
		if selfOK && port == selfPort && hostsOverlap(selfHost, host) {
			return nil, fmt.Errorf("cluster: address %q is this node's own listen address %q", a, self)
		}
		out = append(out, a)
	}
	return out, nil
}

// splitAddr normalises an address for comparison: lowercased host
// ("localhost" folded to the loopback IP) plus port.
func splitAddr(a string) (host, port string, ok bool) {
	h, p, err := net.SplitHostPort(strings.TrimSpace(a))
	if err != nil || p == "" {
		return "", "", false
	}
	h = strings.ToLower(h)
	if h == "localhost" {
		h = "127.0.0.1"
	}
	return h, p, true
}

// hostsOverlap reports whether an address with host a can reach the
// same socket as one with host b on the same port: equal hosts, or a
// wildcard listen host on either side matched against a loopback or
// wildcard peer (the common "-addr :7400 -peers 127.0.0.1:7400"
// footgun).
func hostsOverlap(a, b string) bool {
	if a == b {
		return true
	}
	wild := func(h string) bool { return h == "" || h == "0.0.0.0" || h == "::" }
	loop := func(h string) bool { return h == "127.0.0.1" || h == "::1" }
	if wild(a) && (wild(b) || loop(b)) {
		return true
	}
	if wild(b) && (wild(a) || loop(a)) {
		return true
	}
	return false
}

// SelfAddr returns the node's own member address.
func (n *Node) SelfAddr() string { return n.self }

// Members returns the routing universe (self included).
func (n *Node) Members() []string { return append([]string(nil), n.members...) }

// Peers returns the breaker-guarded set of remote members; the serving
// node starts its recovery prober and stops it on drain.
func (n *Node) Peers() *PeerSet { return n.peers }

// SetLogf replaces the node's logger.
func (n *Node) SetLogf(f func(string, ...any)) {
	n.logMu.Lock()
	n.logFn = f
	n.logMu.Unlock()
}

func (n *Node) logf(format string, args ...any) {
	n.logMu.Lock()
	f := n.logFn
	n.logMu.Unlock()
	if f != nil {
		f(format, args...)
	}
}

// SetObserver installs a telemetry registry for the cluster_* metric
// families; extra labels (typically the role) are attached to every
// series.
func (n *Node) SetObserver(r *obs.Registry, labels ...obs.Label) {
	n.obsMu.Lock()
	n.obsReg = r
	n.labels = labels
	n.obsMu.Unlock()
	for _, a := range n.peers.Addrs() {
		n.peerStateGauge(a).Set(float64(n.peers.State(a)))
	}
}

// registry returns the current registry and labels (nil-safe).
func (n *Node) registry() (*obs.Registry, []obs.Label) {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	return n.obsReg, n.labels
}

func (n *Node) peerStateGauge(addr string) *obs.Gauge {
	r, labels := n.registry()
	if r == nil {
		return nil
	}
	return r.Gauge("cluster_peer_state",
		"Per-peer breaker state (0 closed, 1 half-open, 2 open).",
		append(append([]obs.Label{}, labels...), obs.L("peer", addr))...)
}

// RecordRoute counts one shard-routing decision: "local_owner" (this
// node owns the key and computes), "peer_fill" (filled from the
// owner), "fallback_compute" (owner unusable or served bad bytes, so
// this node computed locally).
func (n *Node) RecordRoute(decision string) {
	r, labels := n.registry()
	if r == nil {
		return
	}
	r.Counter("cluster_route_total",
		"Shard-routing decisions by outcome.",
		append(append([]obs.Label{}, labels...), obs.L("decision", decision))...).Inc()
}

func (n *Node) countFill() {
	r, labels := n.registry()
	if r == nil {
		return
	}
	r.Counter("cluster_peer_fills_total",
		"Artifacts filled from their shard owner instead of recomputed.", labels...).Inc()
}

func (n *Node) countFillFailure(reason string) {
	r, labels := n.registry()
	if r == nil {
		return
	}
	r.Counter("cluster_fill_failures_total",
		"Peer fills that failed, by reason (the requester computed locally).",
		append(append([]obs.Label{}, labels...), obs.L("reason", reason))...).Inc()
}

func (n *Node) countProbe() {
	r, labels := n.registry()
	if r == nil {
		return
	}
	r.Counter("cluster_probes_total",
		"Recovery probes sent to unhealthy peers.", labels...).Inc()
}

func (n *Node) onBreakerChange(addr string, from, to breaker.State) {
	n.logf("cluster: peer %s breaker %s -> %s", addr, from, to)
	if g := n.peerStateGauge(addr); g != nil {
		g.Set(float64(to))
	}
}

// Owner resolves the shard owner for (kind, digest), skipping peers
// whose breakers are open: when the true owner is down, the
// next-ranked healthy member acts as owner (it computes once and
// serves the shard until the owner returns — rendezvous ranking makes
// every node pick the same stand-in). self reports whether this node
// is the (acting) owner.
func (n *Node) Owner(kind, digest string) (addr string, self bool) {
	key := RouteKey(kind, digest)
	for _, m := range RankedOwners(n.members, key) {
		if m == n.self {
			return m, true
		}
		if n.peers.State(m) != breaker.Open {
			return m, false
		}
	}
	return n.self, true
}

// Fetch retrieves one artifact's encoded bytes from the peer at addr,
// guarded by that peer's breaker and the configured deadlines. The
// peer set settles the breaker: a clean remote miss (ErrNotFound) is
// the peer answering correctly, while checksum mismatches, framing
// errors and timeouts count against it. Every error tells the caller to
// fall back to local compute; wrong bytes are never returned.
func (n *Node) Fetch(ctx context.Context, addr string, req FetchRequest) (payload []byte, err error) {
	sp := obs.StartSpan(ctx, "cluster.peer_fill")
	defer sp.End()
	sp.SetAttr("kind", req.Kind)
	sp.SetAttr("peer", addr)
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
			n.countFillFailure(fillFailureReason(err))
		} else {
			sp.SetAttrInt("bytes", int64(len(payload)))
			n.countFill()
		}
	}()
	done, err := n.peers.Allow(addr)
	if err != nil {
		return nil, err
	}
	payload, err = n.fetchOnce(ctx, addr, req)
	done(err)
	return payload, err
}

func (n *Node) fetchOnce(ctx context.Context, addr string, req FetchRequest) ([]byte, error) {
	conn, err := n.peers.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrPeerUnavailable, addr, err)
	}
	defer conn.Close()
	deadline := time.Now().Add(n.cfg.FetchTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	if err := WriteFetchRequest(conn, req); err != nil {
		return nil, fmt.Errorf("%w: send to %s: %v", ErrPeerUnavailable, addr, err)
	}
	return ReadFetchResponse(conn, n.cfg.MaxArtifactBytes)
}

// fillFailureReason buckets a fetch error for the failure counter.
func fillFailureReason(err error) string {
	switch {
	case errors.Is(err, ErrChecksum):
		return "checksum"
	case errors.Is(err, ErrNotFound):
		return "not_found"
	case errors.Is(err, ErrPeerUnavailable):
		return "unavailable"
	case errors.Is(err, ErrFraming):
		return "framing"
	default:
		return "other"
	}
}
