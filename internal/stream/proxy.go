package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
	"unsafe"

	"repro/internal/anncache"
	"repro/internal/annotation"
	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/pixel"
)

// Proxy is the optional intermediary of Figure 1: "a high-end machine with
// the ability to process the video stream in real-time, on-the-fly". It
// pulls the raw stream from an upstream server, performs the annotation
// analysis and compensation itself, and serves clients exactly what the
// annotating server would have — demonstrating that "either the proxy or
// the server node suffices" (§3).
//
// The proxy assumes the upstream tier is unreliable: it can be given
// several upstream origins in failover order, held in the same
// cluster.PeerSet a cluster node keeps its peers in: each origin is
// guarded by a circuit breaker, so a dead or flapping origin is skipped
// until its half-open probe succeeds. Fetches carry dial and per-read
// deadlines and are retried with backoff, and when every upstream is
// down a previously-fetched copy of the clip is served stale rather
// than failing the client. The request path and the accept/drain/cache
// plumbing live in the embedded nodeCore, shared with the Server.
type Proxy struct {
	nodeCore

	// upCfg builds the upstream peer set (nodeCore.upstreams); the
	// setters below rebuild the set after changing it.
	upCfg cluster.PeerSetConfig

	upstreamLat     *obs.Histogram
	upstreamRetries *obs.Counter
	staleServes     *obs.Counter
	failovers       *obs.Counter
	probesTotal     *obs.Counter

	// retry bounds and paces upstream fetch attempts.
	retry RetryPolicy
}

// proxyEntry is one cached upstream clip.
type proxyEntry struct {
	src    core.Source
	track  *annotation.Track
	digest string
	// fp is the SHA-256 of the upstream's raw response, from the
	// response magic through the last frame packet. A refetch with the
	// same fp reuses the entry without decoding it again.
	fp [sha256.Size]byte
}

// cost approximates the entry's resident bytes: the decoded frames
// dominate, plus the fingerprint and the encoded track.
func (e *proxyEntry) cost() int64 {
	w, h := e.src.Size()
	pix := int64(e.src.TotalFrames()) * int64(w) * int64(h) * int64(unsafe.Sizeof(pixel.RGB{}))
	return pix + int64(len(e.fp)) + int64(e.track.Size())
}

// NewProxy builds a proxy over one or more upstream server addresses in
// failover order: fetches go to the first upstream whose breaker admits
// them, falling over to the next on failure.
func NewProxy(upstreams ...string) *Proxy {
	p := &Proxy{retry: RetryPolicy{MaxAttempts: 3}}
	p.upCfg = cluster.PeerSetConfig{
		DialTimeout:   5 * time.Second,
		ProbeEvery:    500 * time.Millisecond,
		OnStateChange: p.onBreakerChange,
		OnProbe:       func() { p.probesTotal.Inc() },
	}
	p.initCore("proxy", p, func(conn net.Conn) error { return p.handle(conn, 0) })
	p.upstreams = cluster.NewPeerSet(upstreams, p.upCfg)
	return p
}

// rebuildUpstreams re-creates the upstream set, with fresh breakers,
// after a setter changed its config.
func (p *Proxy) rebuildUpstreams() { p.upstreams = cluster.NewPeerSet(p.upstreams.Addrs(), p.upCfg) }

// onBreakerChange logs and exports every breaker transition.
func (p *Proxy) onBreakerChange(addr string, from, to breaker.State) {
	p.logf("stream proxy: upstream %s breaker %s -> %s", addr, from, to)
	if r := p.obsReg; r != nil {
		l := obs.L("role", "proxy")
		r.Gauge("proxy_breaker_state",
			"Per-upstream breaker state (0 closed, 1 half-open, 2 open).",
			l, obs.L("upstream", addr)).Set(float64(to))
		if to == breaker.Open {
			r.Counter("proxy_breaker_opens_total",
				"Upstream breakers tripped open.", l, obs.L("upstream", addr)).Inc()
		}
	}
}

// setBreakerConfig overrides the per-upstream circuit-breaker tuning
// (rolling failure window, open cool-down, probe budget; zero fields get
// the cluster.PeerSet defaults). Call before Listen.
func (p *Proxy) setBreakerConfig(cfg breaker.Config) {
	p.upCfg.Breaker = cfg
	p.rebuildUpstreams()
}

// setProbeInterval sets how often unhealthy upstreams are probed for
// recovery (dial-level reachability; 0 disables probing). Call before
// Listen.
func (p *Proxy) setProbeInterval(d time.Duration) {
	p.upCfg.ProbeEvery = d
	p.rebuildUpstreams()
}

// UpstreamAddrs returns the configured upstream addresses in failover
// order.
func (p *Proxy) UpstreamAddrs() []string { return p.upstreams.Addrs() }

// SetObserver installs a telemetry registry. Call before Listen.
func (p *Proxy) SetObserver(r *obs.Registry) {
	p.nodeCore.SetObserver(r)
	p.upstreamLat = r.Histogram("proxy_upstream_latency_seconds",
		"Time to fetch and revalidate a whole raw clip from the upstream server; decode only when content changed.",
		obs.DefLatencyBuckets, obs.L("role", "proxy"))
	p.upstreamRetries = r.Counter("proxy_upstream_retries_total",
		"Upstream fetch attempts retried after a failure.", obs.L("role", "proxy"))
	p.staleServes = r.Counter("proxy_stale_serves_total",
		"Sessions served from the stale clip cache because the upstream was down.",
		obs.L("role", "proxy"))
	p.failovers = r.Counter("proxy_failovers_total",
		"Fetches served by a non-primary upstream after failover.", obs.L("role", "proxy"))
	p.probesTotal = r.Counter("proxy_upstream_probes_total",
		"Recovery probes sent to unhealthy upstreams.", obs.L("role", "proxy"))
	for _, a := range p.upstreams.Addrs() {
		r.Gauge("proxy_breaker_state",
			"Per-upstream breaker state (0 closed, 1 half-open, 2 open).",
			obs.L("role", "proxy"), obs.L("upstream", a)).Set(float64(p.upstreams.State(a)))
	}
}

// SetDial overrides the upstream dial function for fetches and recovery
// probes (tests inject faulty or tracked links). Call before Listen.
func (p *Proxy) SetDial(dial func(network, addr string) (net.Conn, error)) {
	p.upCfg.Dial = dial
	p.rebuildUpstreams()
}

// open fetches and revalidates a client's clip upstream, or serves the
// stale copy when every upstream is down.
func (p *Proxy) open(ctx context.Context, req Request) (nodeClip, error) {
	entry, stale, err := p.fetchSource(ctx, req.Clip, req.Device)
	if err != nil {
		return nodeClip{}, err
	}
	if stale {
		p.staleServes.Inc()
		p.logf("stream proxy: upstream down, serving %q stale", req.Clip)
	}
	return entry.clip(req.Clip, stale), nil
}

// byDigest answers a peer's AFR1 fetch the same way, by the clip-name
// hint, and verifies the digest matches what the requester wants. An
// unreachable upstream with no stale copy is a clean unavailable — the
// requester falls back to its own compute path.
func (p *Proxy) byDigest(ctx context.Context, req cluster.FetchRequest) (nodeClip, error) {
	if req.Clip == "" {
		return nodeClip{}, fmt.Errorf("%w: proxy resolution needs a clip hint", cluster.ErrNotFound)
	}
	c, err := p.open(ctx, Request{Clip: req.Clip, Device: req.Device})
	if err != nil {
		return nodeClip{}, fmt.Errorf("%w: upstream fetch of %q: %v", cluster.ErrPeerUnavailable, req.Clip, err)
	}
	if c.digest != req.Digest {
		return nodeClip{}, fmt.Errorf("%w: clip %q content digest mismatch", cluster.ErrNotFound, req.Clip)
	}
	return c, nil
}

// clip presents the cached entry as the clip name; its track is already
// resolved, so serving it does no per-request track lookup.
func (e *proxyEntry) clip(name string, stale bool) nodeClip {
	return nodeClip{name: name, src: e.src, digest: e.digest, stale: stale,
		track: func() (*annotation.Track, error) { return e.track, nil }}
}

// fetchSource returns the clip's decoded source and annotation track.
// Every request revalidates against the upstream (cache.Do: concurrent
// sessions share one in-flight fetch, but a cached copy never suppresses
// the fetch); a refetch whose bytes match the cached copy's fingerprint
// reuses that copy. Only when every retry fails does it degrade to the
// stale cached copy.
func (p *Proxy) fetchSource(ctx context.Context, clip, device string) (*proxyEntry, bool, error) {
	key := anncache.Key{Kind: "clip", Digest: clip, Quality: -1}
	var prev *proxyEntry
	if v, ok := p.cache.Peek(key); ok {
		prev = v.(*proxyEntry)
	}
	v, err := p.cache.Do(key, func() (any, int64, error) {
		e, err := p.fetchAndAnnotate(ctx, clip, device, prev)
		if err != nil {
			return nil, 0, err
		}
		return e, e.cost(), nil
	})
	if err != nil {
		if p.ctx.Err() != nil {
			return nil, false, p.ctx.Err()
		}
		// Upstream is down: degrade to the last good copy if we have one.
		if sv, ok := p.cache.Peek(key); ok {
			return sv.(*proxyEntry), true, nil
		}
		return nil, false, err
	}
	return v.(*proxyEntry), false, nil
}

// fetchAndAnnotate pulls the clip from the upstream with bounded retries
// (a refusal is not retried) and annotates it (the proxy's transcoder
// role). Unchanged bytes return prev as is. Changed bytes are digested,
// and the track is cached by content digest, so content seen before
// skips re-annotation — and in a cluster, the track's shard owner is
// asked before the local pipeline runs.
func (p *Proxy) fetchAndAnnotate(ctx context.Context, clip, device string, prev *proxyEntry) (*proxyEntry, error) {
	retry := p.retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			p.upstreamRetries.Inc()
			select {
			case <-time.After(retry.delay(attempt, newBackoffRNG())):
			case <-p.ctx.Done():
				return nil, p.ctx.Err()
			}
		}
		if p.ctx.Err() != nil {
			return nil, p.ctx.Err()
		}
		start := time.Now()
		e, err := p.fetchOnce(ctx, clip, device, prev)
		if refused(err) {
			return nil, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		p.upstreamLat.Observe(time.Since(start).Seconds())
		if e == prev {
			return e, nil
		}
		e.digest = core.SourceDigest(e.src)
		if e.track, err = p.track(ctx, clip, e.digest, e.src); err != nil {
			return nil, fmt.Errorf("annotation failed: %w", err)
		}
		return e, nil
	}
	return nil, fmt.Errorf("upstream unreachable after %d attempts: %v", retry.MaxAttempts, lastErr)
}

// fetchOnce tries each upstream in failover order, skipping any whose
// breaker rejects the call; each attempt settles its upstream's breaker
// with the outcome. A refusal (an error frame other than over-capacity,
// such as an unknown clip) is a healthy upstream's definitive answer:
// it settles the breaker as a success and is returned without failing
// over. A success from a non-primary upstream counts as a failover.
func (p *Proxy) fetchOnce(ctx context.Context, clip, device string, prev *proxyEntry) (*proxyEntry, error) {
	addrs := p.upstreams.Addrs()
	if len(addrs) == 0 {
		return nil, errors.New("no upstreams configured")
	}
	var lastErr error
	tried := 0
	for i, addr := range addrs {
		done, err := p.upstreams.Allow(addr)
		if err != nil {
			continue
		}
		tried++
		e, err := p.fetchRaw(ctx, addr, clip, device, prev)
		if refused(err) {
			done(nil)
			return nil, err
		}
		done(err)
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 && p.failovers != nil {
			p.failovers.Inc()
		}
		return e, nil
	}
	if tried == 0 {
		return nil, fmt.Errorf("all %d upstreams unavailable (breakers open)", len(addrs))
	}
	return nil, lastErr
}

// fetchRaw pulls the unannotated stream from one upstream and
// fingerprints it as it streams in. Only a complete stream is compared
// with prev: a match returns prev without decoding, anything else is
// decoded into a new entry whose digest and track the caller fills in.
// A decode error fails the attempt like a transport error, so it
// settles this upstream's breaker. The upstream connection is closed on
// every path, and each read carries a deadline so a hung upstream fails
// the attempt instead of wedging the session.
func (p *Proxy) fetchRaw(ctx context.Context, addr, clip, device string, prev *proxyEntry) (_ *proxyEntry, err error) {
	fctx, sp := obs.StartSpanCtx(ctx, "proxy.fetch_raw")
	defer sp.End()
	sp.SetAttr("upstream", addr)
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}()
	rawConn, err := p.upstreams.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("upstream unreachable: %w", err)
	}
	// The single close point for every return path below — the audit
	// for upstream connection leaks hangs off this defer.
	defer rawConn.Close()
	conn := &deadlineConn{Conn: rawConn, readTimeout: nodeReadTimeout, writeTimeout: nodeWriteTimeout}
	// Propagate the trace across the hop: the request carries this fetch
	// span's context (when there is one) so the upstream server.session
	// parents under it.
	req := Request{Clip: clip, Device: device, Mode: ModeRaw, Trace: obs.SpanContextFrom(fctx)}
	if err := WriteRequest(conn, req); err != nil {
		return nil, err
	}
	magic, remoteErr, err := ReadResponseMagic(conn)
	if err != nil {
		return nil, err
	}
	if remoteErr != nil {
		return nil, remoteErr
	}
	// The container reader consumes exactly the stream's bytes, so the
	// hash covers the magic through the last frame packet.
	h := sha256.New()
	reader, err := container.NewReader(io.TeeReader(io.MultiReader(bytes.NewReader(magic[:]), conn), h))
	if err != nil {
		return nil, err
	}
	hdr := reader.Header()
	var packets []*codec.EncodedFrame
	for {
		ef, err := reader.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		packets = append(packets, ef)
	}
	if len(packets) == 0 {
		return nil, fmt.Errorf("upstream sent empty stream")
	}
	if hdr.FrameCount > 0 && len(packets) < hdr.FrameCount {
		return nil, fmt.Errorf("%w: upstream sent %d of %d frames",
			ErrTruncatedStream, len(packets), hdr.FrameCount)
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	if prev != nil && prev.fp == fp {
		sp.SetAttr("revalidate", "unchanged")
		return prev, nil
	}
	sp.SetAttr("revalidate", "changed")
	dec, err := codec.NewDecoder(hdr.W, hdr.H)
	if err != nil {
		return nil, err
	}
	mem := &memSource{w: hdr.W, h: hdr.H, fps: hdr.FPS, frames: make([]*frame.Frame, len(packets))}
	for i, ef := range packets {
		if mem.frames[i], err = dec.Decode(ef); err != nil {
			return nil, err
		}
	}
	return &proxyEntry{src: mem, fp: fp}, nil
}
