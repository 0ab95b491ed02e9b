package stream

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/anncache"
	"repro/internal/annotation"
	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/obs"
)

// This file is the boundary between the in-memory artifact cache and
// the persistent store: serialisation for each artifact kind, and the
// two-level lookup (memory miss → disk → compute) the server and proxy
// share. The memory tier keeps its existing keys and semantics; the
// disk tier sees the same keys, except that encoded variants carry the
// encoder parameters in their digest — a restart with a different
// -gop/-qscale must recompute rather than serve stale bits.

// artifactCodec maps one artifact kind across the disk boundary.
// decode returns the in-memory value and its cache cost.
type artifactCodec struct {
	encode func(v any) ([]byte, error)
	decode func(b []byte) (any, int64, error)
}

var trackCodec = artifactCodec{
	encode: func(v any) ([]byte, error) { return v.(*annotation.Track).Encode(), nil },
	decode: func(b []byte) (any, int64, error) {
		t, err := annotation.Decode(b)
		if err != nil {
			return nil, 0, err
		}
		return t, int64(len(b)), nil
	},
}

var levelsCodec = artifactCodec{
	encode: func(v any) ([]byte, error) { return v.([]byte), nil },
	decode: func(b []byte) (any, int64, error) { return b, int64(len(b)), nil },
}

var variantCodec = artifactCodec{
	encode: func(v any) ([]byte, error) { return encodeVariantArtifact(v.(*variant)) },
	decode: func(b []byte) (any, int64, error) {
		v, err := decodeVariantArtifact(b)
		if err != nil {
			return nil, 0, err
		}
		return v, v.cost(), nil
	},
}

// variantArtifactVersion versions the variant serialisation; bumping it
// orphans old store entries into recomputation rather than misparsing.
const variantArtifactVersion = 1

// variantWirePrefix is the artifact preamble before the frame-packet
// region: the version byte and the u32 frame count.
const variantWirePrefix = 1 + 4

// encodeVariantArtifact flattens a prepared variant — every encoded
// frame plus the decode-cycle and scene-byte side channels — into one
// self-contained byte string for the store. The frame region reuses
// the container's frame-packet framing, so a sealed variant's wire
// form is embedded verbatim: what the store holds on disk between the
// preamble and the trailing chunks is, byte for byte, what a session
// streams to the socket, so a store hit decodes to a wire that aliases
// the CRC-verified bytes Get returned.
func encodeVariantArtifact(v *variant) ([]byte, error) {
	size := variantWirePrefix + len(v.wire) + 4 + len(v.cyclesChunk) + 4 + len(v.scenesChunk)
	b := make([]byte, 0, size)
	b = append(b, variantArtifactVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(len(v.frames)))
	b = append(b, v.wire...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(v.cyclesChunk)))
	b = append(b, v.cyclesChunk...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(v.scenesChunk)))
	b = append(b, v.scenesChunk...)
	return b, nil
}

func decodeVariantArtifact(b []byte) (*variant, error) {
	orig := b
	bad := fmt.Errorf("stream: malformed variant artifact")
	take := func(n int) ([]byte, bool) {
		if n < 0 || len(b) < n {
			return nil, false
		}
		out := b[:n]
		b = b[n:]
		return out, true
	}
	hdr, ok := take(5)
	if !ok || hdr[0] != variantArtifactVersion {
		return nil, bad
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	// Each frame needs at least its 6-byte preamble; this bounds n
	// against a hostile count before allocating.
	if n < 0 || n > len(b)/6+1 {
		return nil, bad
	}
	// The frame region is the variant's wire form: record each packet's
	// offset while walking it and alias it wholesale afterwards, so the
	// decoded variant serves zero-copy from the store's byte string.
	v := &variant{
		frames: make([]*codec.EncodedFrame, 0, n),
		offs:   make([]uint32, 0, n+1),
	}
	wireStart := len(orig) - len(b)
	for i := 0; i < n; i++ {
		v.offs = append(v.offs, uint32(len(orig)-len(b)-wireStart))
		pre, ok := take(6)
		if !ok {
			return nil, bad
		}
		data, ok := take(int(binary.BigEndian.Uint32(pre[2:])))
		if !ok {
			return nil, bad
		}
		v.frames = append(v.frames, &codec.EncodedFrame{
			Type:   codec.FrameType(pre[0]),
			QScale: int(pre[1]),
			Data:   data,
		})
	}
	wireEnd := len(orig) - len(b)
	v.offs = append(v.offs, uint32(wireEnd-wireStart))
	v.wire = orig[wireStart:wireEnd:wireEnd]
	chunk := func() ([]byte, bool) {
		lb, ok := take(4)
		if !ok {
			return nil, false
		}
		return take(int(binary.BigEndian.Uint32(lb)))
	}
	if v.cyclesChunk, ok = chunk(); !ok {
		return nil, bad
	}
	if v.scenesChunk, ok = chunk(); !ok {
		return nil, bad
	}
	if len(b) != 0 {
		return nil, bad
	}
	return v, nil
}

// encSig identifies the encoder parameters a variant was produced with;
// it is folded into the variant's disk digest so a store shared across
// restarts never serves bits encoded under different codec settings.
func encSig(cfg encodeConfig) string {
	return fmt.Sprintf("+g%dq%d", cfg.GOP, cfg.QScale)
}

// tier is the two-level artifact lookup: the byte-budgeted memory LRU
// in front of an optional persistent store — and, when the process is
// clustered, the shard owner's copy between the store and computation.
type tier struct {
	cache *anncache.Cache
	store *annstore.Store
	// puts is the node's store writes in flight (nil: none are ever
	// deferred).
	puts *storePuts
	// node, when non-nil, routes misses through the cluster's rendezvous
	// hash: a non-owner fills from the shard owner before computing.
	node *cluster.Node
	// clip is the clip-name hint attached to peer fetches (digests are
	// one-way; the hint lets a cold owner map the digest back to its
	// catalog). Empty disables peer fill (peer-facing resolution must
	// not re-fetch).
	clip string
}

// getOrCompute resolves key through the memory tier; on a memory miss
// (still under the cache's single-flight, so concurrent sessions share
// one disk read or one computation) it tries the store, and only then
// computes. Fresh computations and peer fills are written through to
// the store (see put), so the artifact survives the process.
// digestSuffix, when non-empty, is appended to the key's digest for the
// disk tier only.
//
// The whole lookup runs under an anncache.lookup span (a child of ctx's
// active span, so a cold miss shows the cache → store → pipeline chain
// inside the request's trace). The outcome attribute distinguishes a
// memory hit from a store hit from a computation; single-flight waiters
// report "hit" — from their side the value was served, not computed.
func (t tier) getOrCompute(ctx context.Context, key anncache.Key, digestSuffix string, cod artifactCodec, compute func(context.Context) (any, int64, error)) (any, error) {
	lctx, sp := obs.StartSpanCtx(ctx, "anncache.lookup")
	defer sp.End()
	sp.SetAttr("kind", key.Kind)
	outcome := "hit"
	v, err := t.cache.GetOrCompute(key, func() (any, int64, error) {
		skey := key
		skey.Digest += digestSuffix
		if t.store != nil {
			// The memory tier may have evicted an artifact whose put is
			// still running: read it back once it lands rather than
			// compute it again.
			t.puts.wait(skey)
			ssp := obs.StartSpan(lctx, "annstore.get")
			ssp.SetAttr("kind", key.Kind)
			data, found := t.store.Get(skey)
			ssp.End()
			if found {
				if v, cost, err := cod.decode(data); err == nil {
					outcome = "store_hit"
					return v, cost, nil
				}
				// A decode failure here is format drift, not disk
				// damage (the store already CRC-verified the bytes);
				// fall through and overwrite with a fresh computation.
			}
		}
		if v, cost, ok := t.peerFill(lctx, key, skey, digestSuffix, cod); ok {
			outcome = "peer_fill"
			return v, cost, nil
		}
		outcome = "computed"
		v, cost, err := compute(lctx)
		if err != nil {
			return nil, 0, err
		}
		t.put(lctx, skey, func() ([]byte, error) { return cod.encode(v) })
		return v, cost, nil
	})
	sp.SetAttr("outcome", outcome)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	return v, err
}

// put writes an artifact through to the store, best effort: a full
// disk must not fail the session. Inside a client session (see
// deferPuts) the write runs concurrently, so the value reaches the
// memory tier and the client's first byte without waiting for the
// fsync; the session's handler waits for it before returning, so the
// artifact is durable once the session is done. Anywhere else — an
// AFR1 answer, a caller outside a session — the write completes before
// put returns.
func (t tier) put(ctx context.Context, key anncache.Key, data func() ([]byte, error)) {
	if t.store == nil {
		return
	}
	write := func(ctx context.Context) {
		b, err := data()
		if err != nil {
			return
		}
		sp := obs.StartSpan(ctx, "annstore.put")
		sp.SetAttr("kind", key.Kind)
		_ = t.store.Put(key, b)
		sp.End()
	}
	sess, _ := ctx.Value(sessionPutsKey{}).(*sessionPuts)
	if sess == nil || t.puts == nil {
		write(ctx)
		return
	}
	t.puts.begin(key)
	sess.wg.Add(1)
	go func() {
		defer sess.wg.Done()
		defer t.puts.end(key)
		write(sess.ctx)
	}()
}

// storePuts is a node's store writes in flight, by store key.
type storePuts struct {
	mu      sync.Mutex
	pending map[anncache.Key]*pendingPut
}

// pendingPut counts the writes of one key in flight; done closes when
// the last one ends.
type pendingPut struct {
	n    int
	done chan struct{}
}

func (p *storePuts) begin(key anncache.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending == nil {
		p.pending = map[anncache.Key]*pendingPut{}
	}
	pp := p.pending[key]
	if pp == nil {
		pp = &pendingPut{done: make(chan struct{})}
		p.pending[key] = pp
	}
	pp.n++
}

func (p *storePuts) end(key anncache.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := p.pending[key]
	if pp.n--; pp.n == 0 {
		delete(p.pending, key)
		close(pp.done)
	}
}

// wait blocks until no write of key is in flight.
func (p *storePuts) wait(key anncache.Key) {
	if p == nil {
		return
	}
	p.mu.Lock()
	pp := p.pending[key]
	p.mu.Unlock()
	if pp != nil {
		<-pp.done
	}
}

// sessionPuts is the store writes one client session started, and the
// session's context, which their annstore.put spans hang off.
type sessionPuts struct {
	ctx context.Context
	wg  sync.WaitGroup
}

type sessionPutsKey struct{}

// deferPuts marks ctx as a client session's: store writes its lookups
// start run concurrently with the session, and the returned wait
// blocks until every one of them has finished.
func deferPuts(ctx context.Context) (context.Context, func()) {
	sess := &sessionPuts{}
	ctx = context.WithValue(ctx, sessionPutsKey{}, sess)
	sess.ctx = ctx
	return ctx, sess.wg.Wait
}

// peerFill tries to fill a local miss from the artifact's shard owner.
// It runs inside the cache's single-flight, so however many sessions
// miss concurrently, the cluster sees one fetch. Routing is by (kind,
// content digest) — quality and device are deliberately excluded so
// every variant of a clip lands on one owner and the annotation runs
// exactly once fleet-wide. Any failure (owner down, breaker open,
// checksum mismatch, undecodable bytes) returns ok=false and the caller
// computes locally: the cluster accelerates, it never gates.
func (t tier) peerFill(ctx context.Context, key, skey anncache.Key, digestSuffix string, cod artifactCodec) (any, int64, bool) {
	if t.node == nil || t.clip == "" {
		return nil, 0, false
	}
	ctx, sp := obs.StartSpanCtx(ctx, "cluster.route")
	defer sp.End()
	sp.SetAttr("kind", key.Kind)
	owner, self := t.node.Owner(key.Kind, key.Digest)
	sp.SetAttr("owner", owner)
	decide := func(d string) {
		sp.SetAttr("decision", d)
		t.node.RecordRoute(d)
	}
	if self || owner == "" {
		decide("local_owner")
		return nil, 0, false
	}
	data, err := t.node.Fetch(ctx, owner, cluster.FetchRequest{
		Kind:    key.Kind,
		Digest:  key.Digest,
		Suffix:  digestSuffix,
		Quality: key.Quality,
		Device:  key.Device,
		Clip:    t.clip,
	})
	if err != nil {
		decide("fallback_compute")
		sp.SetAttr("error", err.Error())
		return nil, 0, false
	}
	v, cost, err := cod.decode(data)
	if err != nil {
		decide("fallback_compute")
		sp.SetAttr("error", err.Error())
		return nil, 0, false
	}
	decide("peer_fill")
	// Write through the exact CRC-verified bytes the owner sent: after a
	// membership change the new owner serves future fetches from its
	// disk instead of triggering a recompute herd, and this node
	// survives a restart with the artifact warm.
	t.put(ctx, skey, func() ([]byte, error) { return data, nil })
	return v, cost, true
}
