package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anncache"
	"repro/internal/annotation"
	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scene"
)

// nodeCore is the serving substrate the Server and Proxy share: one
// process that accepts connections, dispatches each by its 4-byte
// magic (client sessions vs peer artifact fetches), owns the artifact
// cache/store tier, and drains cleanly. Embedding it lets a single
// streamd node simultaneously serve clients, fetch artifacts from
// cluster peers, and answer peer fetches over the same listener.
type nodeCore struct {
	// role labels logs and metrics ("server" or "proxy").
	role string

	logMu sync.Mutex
	logFn func(format string, args ...any)

	obsReg *obs.Registry
	sm     serverMetrics

	// ctx is cancelled by Close; sessions check it between frames so a
	// shutdown (or a client stalled past its write deadline) releases
	// the goroutine promptly.
	ctx    context.Context
	cancel context.CancelFunc

	// drainCh closes when a graceful shutdown begins: queued admissions
	// shed immediately while in-flight sessions keep streaming.
	drainCh   chan struct{}
	drainOnce sync.Once
	draining  atomic.Bool

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup

	// cache holds every artifact the offline pipeline produces, keyed
	// by content digest, with single-flight dedup across sessions.
	cache *anncache.Cache
	// store, when set, is the persistent tier under the cache.
	store *annstore.Store
	// annWorkers is the annotation pipeline's worker-pool size.
	annWorkers int
	// enc is the codec configuration variants are encoded with.
	enc EncodeConfig

	// cnode, when set, shards artifact ownership across the member
	// list: local misses fill from the shard owner before computing,
	// and incoming AFR1 frames are answered through resolveFetch.
	cnode *cluster.Node
	// upstreams, when set, is the proxy's upstream origin set: readiness
	// fails while every one of its breakers is open.
	upstreams *cluster.PeerSet
	// clips is where the role finds a clip: the server's catalog or the
	// proxy's upstream fetch. It is all the request path asks of a role.
	clips clipSource
	// handler runs each accepted connection through handle (the server
	// admits it through its session queue first).
	handler func(net.Conn) error
	// sessionSpan names each client session's span ("<role>.session").
	sessionSpan string
}

// Per-connection deadlines, re-armed on every read and write: a peer
// that stops sending or stops draining its socket fails the session
// instead of pinning its goroutine. The proxy's upstream fetches use
// the same pair.
const (
	nodeReadTimeout  = 10 * time.Second
	nodeWriteTimeout = 30 * time.Second
)

// clipSource is the one thing the Server and Proxy roles do differently
// (Figure 1: "either the proxy or the server node suffices"): where a
// clip comes from. open finds the clip a client session asked for;
// byDigest finds the clip whose content a peer's AFR1 fetch names.
type clipSource interface {
	open(ctx context.Context, req Request) (nodeClip, error)
	byDigest(ctx context.Context, req cluster.FetchRequest) (nodeClip, error)
}

// nodeClip is a clip a role found: its name, decoded source and content
// digest, plus the getter for its annotation track, which only the
// paths that need a track call.
type nodeClip struct {
	name   string
	src    core.Source
	digest string
	track  func() (*annotation.Track, error)
	// stale marks a proxy copy served because every upstream was down.
	stale bool
}

// initCore readies the embedded substrate (called from the role
// constructors).
func (n *nodeCore) initCore(role string, clips clipSource, handler func(net.Conn) error) {
	n.role = role
	n.clips = clips
	n.handler = handler
	n.sessionSpan = role + ".session"
	n.logFn = log.Printf
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.drainCh = make(chan struct{})
	n.conns = map[net.Conn]struct{}{}
	n.cache = anncache.New(DefaultCacheCapacity)
	n.annWorkers = runtime.GOMAXPROCS(0)
}

// SetLogf replaces the node's logger (tests silence it). Safe to call
// while the node is accepting connections.
func (n *nodeCore) SetLogf(f func(string, ...any)) {
	n.logMu.Lock()
	n.logFn = f
	n.logMu.Unlock()
	if n.cnode != nil {
		n.cnode.SetLogf(f)
	}
}

// logf logs through the current logger; the mutex makes SetLogf safe
// against concurrent session goroutines.
func (n *nodeCore) logf(format string, args ...any) {
	n.logMu.Lock()
	f := n.logFn
	n.logMu.Unlock()
	if f != nil {
		f(format, args...)
	}
}

// SetObserver installs a telemetry registry. Call before Listen. (The
// proxy shadows this to add its upstream metric families.)
func (n *nodeCore) SetObserver(r *obs.Registry) {
	n.obsReg = r
	n.sm = newServerMetrics(r, n.role)
	n.cache.SetObserver(r, obs.L("role", n.role))
	if n.cnode != nil {
		n.cnode.SetObserver(r, obs.L("role", n.role))
	}
}

// SetAnnotateWorkers sets the annotation pipeline's worker-pool size
// (<= 1 selects the sequential path). Call before Listen.
func (n *nodeCore) SetAnnotateWorkers(workers int) { n.annWorkers = workers }

// SetCacheCapacity bounds the artifact cache to capacityBytes (<= 0 is
// unlimited), evicting immediately if already over.
func (n *nodeCore) SetCacheCapacity(capacityBytes int64) { n.cache.SetCapacity(capacityBytes) }

// SetStore installs a persistent artifact store as the second tier
// beneath the memory cache: lookups go memory → disk → (peer fill) →
// compute, and computed artifacts are written through. Call before
// Listen.
func (n *nodeCore) SetStore(st *annstore.Store) { n.store = st }

// SetCluster joins the node to a sharded serving cluster: artifact
// misses route through cn's rendezvous hash and fill from the shard
// owner, and the listener answers peer AFR1 fetches. The node starts
// cn's health prober and stops it on drain. Call before Listen.
func (n *nodeCore) SetCluster(cn *cluster.Node) {
	n.cnode = cn
	if cn == nil {
		return
	}
	n.logMu.Lock()
	f := n.logFn
	n.logMu.Unlock()
	cn.SetLogf(f)
	if n.obsReg != nil {
		cn.SetObserver(n.obsReg, obs.L("role", n.role))
	}
}

// Cluster returns the attached cluster node (nil when unclustered).
func (n *nodeCore) Cluster() *cluster.Node { return n.cnode }

// tierFor is the cluster-aware lookup for clip: memory → disk → shard
// owner → compute. The clip name rides each fetch as the hint that
// lets an owner map the one-way content digest back to its catalog.
func (n *nodeCore) tierFor(clip string) tier {
	return tier{cache: n.cache, store: n.store, node: n.cnode, clip: clip}
}

// peerSets returns every breaker-guarded peer set the node holds: the
// proxy's upstreams and the cluster's peers.
func (n *nodeCore) peerSets() []*cluster.PeerSet {
	var sets []*cluster.PeerSet
	if n.upstreams != nil {
		sets = append(sets, n.upstreams)
	}
	if n.cnode != nil {
		sets = append(sets, n.cnode.Peers())
	}
	return sets
}

// Listen starts accepting connections on addr and returns the bound
// address (useful with ":0").
func (n *nodeCore) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections from a caller-provided listener (chaos runs
// wrap a fault-injecting listener around a plain TCP one), running the
// role's handler for each inside the shared session wrapper (conn
// bookkeeping, panic isolation, error accounting), and starts the peer
// sets' recovery probers.
func (n *nodeCore) Serve(ln net.Listener) {
	n.mu.Lock()
	n.ln = ln
	if !n.closed {
		// Under mu, so a concurrent beginDrain either stops the probers
		// started here or has closed the node before any start.
		for _, ps := range n.peerSets() {
			ps.Start()
		}
	}
	n.mu.Unlock()
	go n.acceptLoop(ln)
}

func (n *nodeCore) acceptLoop(ln net.Listener) {
	acceptWithBackoff(ln, "stream "+n.role, n.logf, n.sm.acceptErrors, func(conn net.Conn) {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.handlers.Add(1)
		n.mu.Unlock()
		n.sm.connsTotal.Inc()
		n.sm.activeConns.Add(1)
		go n.session(conn)
	})
}

// session runs one accepted connection through the role handler with
// teardown and panic isolation: a panic anywhere in the session is
// recovered here — the session dies, the process (and every other
// session) survives.
func (n *nodeCore) session(conn net.Conn) {
	defer n.handlers.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		conn.Close()
		n.sm.activeConns.Add(-1)
	}()
	defer func() {
		if r := recover(); r != nil {
			n.sm.panics.Inc()
			n.logf("stream %s: session panic (recovered): %v\n%s", n.role, r, debug.Stack())
		}
	}()
	if err := n.handler(conn); err != nil && !errors.Is(err, io.EOF) {
		n.sm.sessErrors.Inc()
		n.logf("stream %s: %v", n.role, err)
	}
}

// handle serves one connection the same way in every role. The 4-byte
// magic routes a peer artifact fetch (AFR1) to serveFetch; anything
// else is a client request, which joins the caller's trace, opens its
// clip through the role and streams it raw or annotated. admitWait is
// how long the connection queued for a session slot.
func (n *nodeCore) handle(rawConn net.Conn, admitWait time.Duration) error {
	ctx := obs.WithRegistry(n.ctx, n.obsReg)
	conn := &deadlineConn{Conn: rawConn, readTimeout: nodeReadTimeout, writeTimeout: nodeWriteTimeout}
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		WriteError(conn, "bad request")
		return fmt.Errorf("%w: short request: %v", ErrProtocol, err)
	}
	if magic == cluster.FetchMagic {
		return n.serveFetch(ctx, conn)
	}
	req, err := readRequestBody(magic, conn)
	if err != nil {
		WriteError(conn, "bad request")
		return err
	}
	// A request carrying the caller's span context makes this session a
	// child in the caller's trace. Without one, the session roots a
	// trace of its own. Everything below hangs off the session span.
	if req.Trace.Valid() {
		ctx = obs.WithSpanContext(ctx, req.Trace)
	}
	ctx, sp := obs.StartSpanCtx(ctx, n.sessionSpan)
	defer sp.End()
	sp.SetAttr("clip", req.Clip)
	sp.SetAttr("device", req.Device)
	if admitWait > time.Millisecond {
		sp.SetAttr("admit_wait", admitWait.Round(time.Millisecond).String())
	}
	c, err := n.clips.open(ctx, req)
	switch {
	case err != nil:
		WriteError(conn, refusalText(err))
	case req.Mode == ModeRaw:
		sp.SetAttr("mode", "raw")
		err = n.streamRaw(ctx, conn, c)
	default:
		sp.SetAttr("mode", "annotated")
		err = n.serveAnnotated(ctx, conn, req, c)
	}
	if c.stale {
		sp.SetAttr("stale", "true")
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	return err
}

// beginDrain stops the listener and flips the node to draining:
// /readyz-style checks fail immediately, queued admissions shed,
// background probers stop, but in-flight sessions keep streaming.
func (n *nodeCore) beginDrain() {
	n.draining.Store(true)
	n.sm.draining.Set(1)
	n.drainOnce.Do(func() { close(n.drainCh) })
	n.mu.Lock()
	n.closed = true
	if n.ln != nil {
		n.ln.Close()
	}
	n.mu.Unlock()
	// Peer-health probing must not outlive the node's useful life: a
	// draining node neither routes, fills nor fetches upstream. Stop
	// waits, so no probe dials once the drain has begun.
	for _, ps := range n.peerSets() {
		ps.Stop()
	}
}

// Shutdown gracefully stops the node: it stops accepting, sheds any
// admission queue, and lets in-flight sessions finish. If ctx expires
// first, remaining sessions are cancelled and their connections
// closed; the context error is returned. A nil return means every
// session drained cleanly.
func (n *nodeCore) Shutdown(ctx context.Context) error {
	n.beginDrain()
	done := make(chan struct{})
	go func() {
		n.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		n.cancel()
		return nil
	case <-ctx.Done():
		n.cancel()
		n.mu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the listener, cancels in-flight sessions and closes
// active connections (an immediate, non-draining shutdown).
func (n *nodeCore) Close() {
	n.beginDrain()
	n.cancel()
	n.mu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.handlers.Wait()
}

// Ready implements the readiness contract for /readyz: nil while the
// node is accepting, not draining, and — on a proxy — at least one
// upstream breaker is not open.
func (n *nodeCore) Ready() error {
	if n.draining.Load() {
		return errors.New("draining")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return errors.New("not serving")
	}
	if n.closed {
		return errors.New("closed")
	}
	if n.upstreams != nil && n.upstreams.AllOpen() {
		return errors.New("all upstream breakers open")
	}
	return nil
}

// serveFetch answers one peer AFR1 fetch on a connection whose magic
// has already been consumed: resolve the artifact through the role's
// resolver and write it back CRC-trailed, or a clean typed failure.
// Resolver errors are normal cluster weather (unknown digest, encoder
// mismatch, upstream down) — the requester falls back to computing
// locally — so they answer the peer rather than erroring the session.
func (n *nodeCore) serveFetch(ctx context.Context, conn net.Conn) error {
	req, err := cluster.ReadFetchRequestBody(conn)
	if err != nil {
		return err
	}
	ctx, sp := obs.StartSpanCtx(ctx, "cluster.fetch_serve")
	defer sp.End()
	sp.SetAttr("kind", req.Kind)
	if r := n.obsReg; r != nil {
		r.Counter("cluster_fetch_served_total",
			"Peer fetch-artifact requests answered (success or clean refusal).",
			obs.L("role", n.role), obs.L("kind", req.Kind)).Inc()
	}
	if n.cnode == nil {
		sp.SetAttr("error", "not clustered")
		return cluster.WriteFetchError(conn, cluster.CodeUnavailable, "node is not clustered")
	}
	payload, err := n.resolveFetchRequest(ctx, req)
	if err != nil {
		sp.SetAttr("error", err.Error())
		code := uint8(cluster.CodeUnavailable)
		if errors.Is(err, cluster.ErrNotFound) {
			code = cluster.CodeNotFound
		}
		return cluster.WriteFetchError(conn, code, err.Error())
	}
	sp.SetAttrInt("bytes", int64(len(payload)))
	return cluster.WriteFetchResponse(conn, payload)
}

// resolveFetchRequest answers a peer's AFR1 artifact fetch: the role
// finds the clip whose content digest the peer asked for, and the node
// resolves the requested artifact through its own tier.
func (n *nodeCore) resolveFetchRequest(ctx context.Context, req cluster.FetchRequest) ([]byte, error) {
	c, err := n.clips.byDigest(ctx, req)
	if err != nil {
		return nil, err
	}
	return n.resolveArtifact(ctx, req, c)
}

// resolveArtifact is the role-independent half of answering an AFR1
// fetch: once the role has found the clip whose content digest the
// peer asked for, it resolves the requested artifact through the node's
// own tier and encodes it. The clip's track is only fetched for the
// kinds that need one. Variants are only served when the encoder
// signature matches this node's configuration: a mismatch is a clean
// not-found, telling the requester to compute under its own settings
// rather than receive bits encoded under different parameters.
func (n *nodeCore) resolveArtifact(ctx context.Context, req cluster.FetchRequest, c nodeClip) ([]byte, error) {
	t := n.tierFor(c.name)
	cfg := n.enc.withDefaults(c.src.FPS())
	if (req.Kind == "variant" || req.Kind == "raw") && req.Suffix != encSig(cfg) {
		return nil, fmt.Errorf("%w: encoder config %s here, %s requested", cluster.ErrNotFound, encSig(cfg), req.Suffix)
	}
	if req.Kind == "raw" {
		v, err := rawVariantFor(ctx, t, req.Digest, c.src, cfg)
		if err != nil {
			return nil, err
		}
		return encodeVariantArtifact(v)
	}
	if req.Kind != "track" && req.Kind != "levels" && req.Kind != "variant" {
		return nil, fmt.Errorf("%w: unknown artifact kind %q", cluster.ErrNotFound, req.Kind)
	}
	tr, err := c.track()
	if err != nil {
		return nil, err
	}
	switch req.Kind {
	case "track":
		return trackCodec.encode(tr)
	case "levels":
		b := deviceLevelsChunk(ctx, t, req.Digest, req.Device, tr)
		if b == nil {
			return nil, fmt.Errorf("%w: unknown device %q", cluster.ErrNotFound, req.Device)
		}
		return b, nil
	}
	v, err := variantFor(ctx, t, req.Digest, c.src, tr, req.Quality, cfg)
	if err != nil {
		return nil, err
	}
	return encodeVariantArtifact(v)
}

// track returns the clip's annotation track, computing and caching it on
// first use (the offline analysis step). Concurrent sessions requesting
// an uncached clip share one pipeline run via single-flight, and in a
// cluster the track's shard owner is asked before the pipeline runs.
func (n *nodeCore) track(ctx context.Context, clip, digest string, src core.Source) (*annotation.Track, error) {
	v, err := n.tierFor(clip).getOrCompute(ctx,
		anncache.Key{Kind: "track", Digest: digest, Quality: -1}, "", trackCodec,
		func(ctx context.Context) (any, int64, error) {
			t, _, err := core.AnnotatePipeline(ctx, src, scene.DefaultConfig(src.FPS()), nil,
				core.AnnotateOptions{Workers: n.annWorkers})
			if err != nil {
				return nil, 0, err
			}
			return t, int64(t.Size()), nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*annotation.Track), nil
}
