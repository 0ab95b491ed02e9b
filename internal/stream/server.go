package stream

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anncache"
	"repro/internal/annotation"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/compensate"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/dvs"
	"repro/internal/frame"
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/scene"
)

// DefaultCacheCapacity is the artifact-cache byte budget servers and
// proxies start with.
const DefaultCacheCapacity = 256 << 20

// encodeConfig controls the codec parameters the server streams with.
type encodeConfig struct {
	GOP    int // I-frame interval (defaults to one second of frames)
	QScale int // quantiser scale (defaults to 4)
}

func (c encodeConfig) withDefaults(fps int) encodeConfig {
	if c.GOP <= 0 {
		c.GOP = fps
	}
	if c.QScale <= 0 {
		c.QScale = 4
	}
	return c
}

// serverMetrics are the server's obs handles. Every field is nil until
// SetObserver installs a registry; nil metrics no-op, so the
// instrumentation below runs unconditionally at zero cost when
// telemetry is disabled.
type serverMetrics struct {
	activeConns  *obs.Gauge
	connsTotal   *obs.Counter
	framesSent   *obs.Counter
	bytesSent    *obs.Counter
	acceptErrors *obs.Counter
	sessErrors   *obs.Counter
	shed         *obs.Counter
	resumes      *obs.Counter
	queueDepth   *obs.Gauge
	panics       *obs.Counter
	draining     *obs.Gauge
}

func newServerMetrics(r *obs.Registry, role string) serverMetrics {
	l := obs.L("role", role)
	return serverMetrics{
		activeConns: r.Gauge("stream_active_conns",
			"Client connections currently being served.", l),
		connsTotal: r.Counter("stream_conns_total",
			"Client connections accepted since start.", l),
		framesSent: r.Counter("stream_frames_sent_total",
			"Encoded frames written to clients.", l),
		bytesSent: r.Counter("stream_bytes_sent_total",
			"Bytes written to clients (container payload).", l),
		acceptErrors: r.Counter("stream_accept_errors_total",
			"Listener accept errors (transient ones are retried with backoff).", l),
		sessErrors: r.Counter("stream_session_errors_total",
			"Sessions that ended with an error.", l),
		shed: r.Counter("stream_sessions_shed_total",
			"Connections shed by admission control (queue full or wait deadline expired).", l),
		resumes: r.Counter("stream_resumes_total",
			"Sessions resumed mid-clip via the start_frame extension.", l),
		queueDepth: r.Gauge("stream_admission_queue_depth",
			"Connections currently waiting in the admission queue.", l),
		panics: r.Counter("stream_session_panics_total",
			"Session goroutines that panicked and were recovered (session dropped, process alive).", l),
		draining: r.Gauge("stream_draining",
			"1 while the process is draining in-flight sessions for shutdown.", l),
	}
}

// Server stores clips and streams them, annotated and compensated, to
// clients. It plays the role of the multimedia server of Figure 1.
// The request path and the accept/drain/cache plumbing live in the
// embedded nodeCore, shared with the Proxy.
type Server struct {
	nodeCore

	catalog map[string]core.Source

	// slots caps concurrent sessions (nil = unlimited). Connections over
	// the cap wait in a bounded admission queue (queueDepth slots, up to
	// queueWait each) and are shed with a clean over-capacity refusal
	// only when the queue is full or the wait deadline expires — a short
	// burst rides the queue instead of being refused outright. A zero
	// queueDepth sheds at once; a zero queueWait means 1s.
	slots      chan struct{}
	queueDepth int
	queueWait  time.Duration
	waiters    atomic.Int64

	// digests memoises the content digest per catalog clip name (the
	// catalog is immutable once the server is serving).
	digestMu sync.Mutex
	digests  map[string]string
}

// variant is one pre-encoded quality level of a clip, held in wire
// form: wire is the concatenation of the clip's container frame
// packets (container.AppendFramePacket framing, which is byte for byte
// what Writer.WriteFrame emits) and offs[i] is the byte offset of
// frame i's packet, with offs[len(frames)] == len(wire). Any frame run
// [i, j) can therefore reach a socket as the single pre-encoded slice
// wire[offs[i]:offs[j]] — no per-frame framing work, no copies, no
// allocations on the warm path. frames keeps the per-frame metadata
// the serving layer still inspects (frame type for I-frame boundaries,
// payload sizes for the cycle model); each frames[i].Data aliases its
// packet's payload inside wire.
type variant struct {
	frames      []*codec.EncodedFrame
	wire        []byte
	offs        []uint32
	cyclesChunk []byte
	scenesChunk []byte
}

// seal builds the wire form from v.frames and re-points each frame's
// Data at its payload inside the wire, so the packet bytes exist
// exactly once in memory. Must be called whenever frames change.
func (v *variant) seal() error {
	size := 0
	for _, ef := range v.frames {
		size += container.FramePacketOverhead + len(ef.Data)
	}
	wire := make([]byte, 0, size)
	offs := make([]uint32, 0, len(v.frames)+1)
	for _, ef := range v.frames {
		if ef.QScale < 0 || ef.QScale > 255 {
			return fmt.Errorf("stream: variant qscale %d not serialisable", ef.QScale)
		}
		offs = append(offs, uint32(len(wire)))
		var err error
		if wire, err = container.AppendFramePacket(wire, ef); err != nil {
			return err
		}
	}
	offs = append(offs, uint32(len(wire)))
	v.wire, v.offs = wire, offs
	for i, ef := range v.frames {
		end := int(offs[i+1])
		ef.Data = wire[end-len(ef.Data) : end : end]
	}
	return nil
}

// cost is the variant's cache cost in bytes.
func (v *variant) cost() int64 {
	return int64(len(v.cyclesChunk)+len(v.scenesChunk)) + int64(len(v.wire))
}

// NewServer builds a server over the given catalog.
func NewServer(catalog map[string]core.Source) *Server {
	s := &Server{catalog: catalog, digests: map[string]string{}}
	s.initCore("server", s, s.clientSession)
	return s
}

// SetMaxSessions caps concurrent client sessions (0 = unlimited).
// Connections over the cap wait in a bounded admission queue, n deep,
// and are shed with a clean over-capacity refusal only once the queue is
// full or a 1s wait deadline expires. Call before Listen.
func (s *Server) SetMaxSessions(n int) {
	s.slots = nil
	if n > 0 {
		s.slots = make(chan struct{}, n)
	}
	s.queueDepth = n
}

// clientSession runs one accepted connection: admission, then the
// protocol handler (teardown and panic isolation live in the shared
// session wrapper). A shed connection is a clean refusal, not an
// error.
func (s *Server) clientSession(conn net.Conn) error {
	admitStart := time.Now()
	if err := s.admit(); err != nil {
		// Load shedding: refuse cleanly so resilient clients back off
		// and retry instead of timing out mid-handshake.
		s.sm.shed.Inc()
		conn.SetWriteDeadline(time.Now().Add(nodeWriteTimeout))
		WriteOverCapacity(conn)
		return nil
	}
	defer s.release()
	return s.handle(conn, time.Since(admitStart))
}

// admit acquires a session slot, waiting in the bounded admission queue
// when the server is at capacity. It returns ErrOverCapacity when the
// queue is full, the wait deadline expires, or a shutdown begins.
func (s *Server) admit() error {
	if s.slots == nil {
		return nil
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.queueDepth <= 0 {
		return ErrOverCapacity
	}
	if s.waiters.Add(1) > int64(s.queueDepth) {
		s.waiters.Add(-1)
		return ErrOverCapacity
	}
	s.sm.queueDepth.Set(float64(s.waiters.Load()))
	defer func() {
		s.waiters.Add(-1)
		s.sm.queueDepth.Set(float64(s.waiters.Load()))
	}()
	wait := s.queueWait
	if wait <= 0 {
		wait = time.Second
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-t.C:
		return ErrOverCapacity
	case <-s.drainCh:
		return ErrOverCapacity
	case <-s.ctx.Done():
		return ErrOverCapacity
	}
}

// release returns a session slot to the admission pool.
func (s *Server) release() {
	if s.slots != nil {
		<-s.slots
	}
}

// open finds a client's clip in the catalog.
func (s *Server) open(ctx context.Context, req Request) (nodeClip, error) {
	src, ok := s.catalog[req.Clip]
	if !ok {
		return nodeClip{}, fmt.Errorf("unknown clip %q", req.Clip)
	}
	digest, stats := s.digestStats(req.Clip, src)
	return s.clip(ctx, req.Clip, digest, src, stats), nil
}

// byDigest maps the content digest a peer's AFR1 fetch names back to a
// catalog clip. This node is the shard owner (or is acting as one while
// the owner is down), so the artifact is computed at most once
// fleet-wide. The requester's clip-name hint is tried first (one digest
// computation) but always verified; a stale or missing hint falls back
// to scanning the catalog, so a renamed clip still resolves as long as
// its content matches.
func (s *Server) byDigest(ctx context.Context, req cluster.FetchRequest) (nodeClip, error) {
	if src, ok := s.catalog[req.Clip]; ok && s.digestOf(req.Clip, src) == req.Digest {
		return s.clip(ctx, req.Clip, req.Digest, src, nil), nil
	}
	for name, src := range s.catalog {
		if s.digestOf(name, src) == req.Digest {
			return s.clip(ctx, name, req.Digest, src, nil), nil
		}
	}
	return nodeClip{}, fmt.Errorf("%w: no catalog clip with digest %.16s", cluster.ErrNotFound, req.Digest)
}

// clip wraps a catalog clip; its track is computed on first use, from
// stats when this request's digest pass computed them (see digestStats).
func (s *Server) clip(ctx context.Context, name, digest string, src core.Source, stats []scene.FrameStats) nodeClip {
	return nodeClip{name: name, src: src, digest: digest, track: func() (*annotation.Track, error) {
		t, err := s.trackFrom(ctx, name, digest, src, stats)
		stats = nil // held only until this request's track is resolved
		return t, err
	}}
}

// digestOf memoises the content digest of a catalog clip: catalog
// sources are immutable, so one full-decode fingerprint per name is
// enough to key every cached artifact by content.
func (s *Server) digestOf(name string, src core.Source) string {
	d, _ := s.memoDigest(name, func() (string, []scene.FrameStats) { return core.SourceDigest(src), nil })
	return d
}

// digestStats is digestOf for a client session. A cold clip's digest
// pass also computes every frame's scene statistics from the same
// render (core.DigestAndStats), which this session's track compute then
// takes on instead of rendering the clip again; a memoised digest comes
// with nil stats.
func (s *Server) digestStats(name string, src core.Source) (string, []scene.FrameStats) {
	return s.memoDigest(name, func() (string, []scene.FrameStats) { return core.DigestAndStats(src) })
}

// memoDigest returns name's memoised digest, or computes and memoises
// it. The compute renders the whole clip, so it runs outside digestMu:
// one cold clip must not stall lookups of clips already memoised. Two
// racing computes of one clip yield the same string, so either insert
// is correct.
func (s *Server) memoDigest(name string, compute func() (string, []scene.FrameStats)) (string, []scene.FrameStats) {
	s.digestMu.Lock()
	d, ok := s.digests[name]
	s.digestMu.Unlock()
	if ok {
		return d, nil
	}
	d, stats := compute()
	s.digestMu.Lock()
	s.digests[name] = d
	s.digestMu.Unlock()
	return d, stats
}

// serveAnnotated streams the annotated, compensated clip to a client,
// the same in the server and the proxy role (Figure 1): pick the
// variant for the request's quality, map a resume onto it, attach the
// device-levels side channel, stream fixed or adaptive, and fold the
// completed session into the power accounting. Variants are encoded
// once per (content digest, quality index) and cached; the
// device-levels side channel is cached per device.
func (n *nodeCore) serveAnnotated(ctx context.Context, conn *deadlineConn, req Request, c nodeClip) error {
	track, err := c.track()
	if err != nil {
		WriteError(conn, "annotation failed")
		return err
	}
	digest, src := c.digest, c.src
	t := n.tierFor(c.name)
	qi := track.QualityIndex(req.Quality)
	cfg := n.enc.withDefaults(src.FPS())
	v, err := variantFor(ctx, t, digest, src, track, qi, cfg)
	if err != nil {
		WriteError(conn, "encoding failed")
		return err
	}
	from, err := resumePoint(v.frames, req)
	if err != nil {
		WriteError(conn, err.Error())
		return err
	}
	if from > 0 {
		n.sm.resumes.Inc()
	}
	levels := deviceLevelsChunk(ctx, t, digest, req.Device, track)
	var lad *ladder
	if req.Adaptive {
		lad = &ladder{ctrl: conn.Conn, rung: qi, metrics: newLadderMetrics(n.obsReg, n.role),
			variant: func(ctx context.Context, q int) (*variant, error) {
				return variantFor(ctx, t, digest, src, track, q, cfg)
			}}
	}
	sent, err := send(ctx, conn, src, track, v, levels, from, lad, n.sm.framesSent, n.sm.bytesSent)
	if err == nil {
		// The session streamed to completion: fold its modeled power
		// accounting into the fleet-wide power_saved_* / session_*
		// families. The levels the client will apply are fully
		// determined by the track, device, quality index and rung
		// switches, so the node can account savings without hearing
		// back.
		accountSessionPower(n.obsReg, n.role, req, src, track, qi, from, sent, lad)
	}
	return err
}

// accountSessionPower reconstructs a served session's power ledger from
// what went over the wire — per-scene backlight levels for the client's
// device at the negotiated quality — and aggregates it into the
// power_saved_* / session_* families under the given role. For an
// adaptive session, lad holds the mid-stream rung changes, so each
// frame is accounted at the rung it was actually served at.
func accountSessionPower(reg *obs.Registry, role string, req Request, src core.Source, track *annotation.Track, qi, from int, wireBytes uint64, lad *ladder) {
	if reg == nil {
		return
	}
	dev := display.ByName(req.Device)
	if dev == nil {
		return
	}
	levels := track.LevelsFor(dev)
	led := power.NewLedger(dev)
	var switches []rungSwitch
	if lad != nil {
		led.SetRung(qi)
		switches = lad.switches
	}
	frameSeconds := 1 / float64(src.FPS())
	cur, next := qi, 0
	walk := track.Walk()
	for pos := 0; ; pos++ {
		rec, sceneStart := walk.Next()
		if rec == len(levels) {
			break
		}
		for next < len(switches) && switches[next].frame <= pos {
			cur = switches[next].rung
			led.QualitySwitch(cur)
			next++
		}
		if pos < from {
			continue
		}
		lvl := levels[rec][cur]
		if sceneStart || pos == from {
			led.StartScene(rec, lvl)
		}
		led.Frame(frameSeconds, lvl)
	}
	led.AddWireBytes(int64(wireBytes))
	led.Report().EmitMetrics(reg, role)
}

// deviceLevelsChunk resolves the device-specific backlight level table
// side channel, cached per (content digest, device profile); nil when
// the device is unknown (the chunk is optional).
func deviceLevelsChunk(ctx context.Context, t tier, digest, deviceName string, track *annotation.Track) []byte {
	dev := display.ByName(deviceName)
	if dev == nil {
		return nil
	}
	v, err := t.getOrCompute(ctx,
		anncache.Key{Kind: "levels", Digest: digest, Quality: -1, Device: deviceName}, "", levelsCodec,
		func(context.Context) (any, int64, error) {
			levels, err := annotation.EncodeLevels(track.LevelsFor(dev))
			if err != nil {
				return nil, 0, err
			}
			return levels, int64(len(levels)), nil
		})
	if err != nil {
		return nil
	}
	return v.([]byte)
}

// resumePoint maps a resume request onto the variant: the stream must
// restart at an I-frame, so the requested start frame is rounded down to
// the nearest intra boundary (frame 0 always is one).
func resumePoint(frames []*codec.EncodedFrame, req Request) (int, error) {
	if req.StartFrame == 0 {
		return 0, nil
	}
	if req.StartFrame >= uint32(len(frames)) {
		return 0, fmt.Errorf("start frame %d beyond clip (%d frames)", req.StartFrame, len(frames))
	}
	from := int(req.StartFrame)
	for from > 0 && frames[from].Type != codec.IFrame {
		from--
	}
	return from, nil
}

// prepareVariant encodes src at quality index qi into wire form. With a
// track, every frame is compensated to its scene's target first and the
// decode-cycle and scene-byte side channels are computed. The whole
// stream is encoded before anything is sent so that all annotations are
// available to the client before it decodes anything — the point of
// annotating ahead of time (§3). A nil track is the payload of a ModeRaw
// session: src encoded untouched, with no compensation and no side
// channels (qi is unused).
func prepareVariant(ctx context.Context, src core.Source, track *annotation.Track, qi int, cfg encodeConfig) (*variant, error) {
	return buildVariant(ctx, src, track, qi, cfg, runtime.GOMAXPROCS(0))
}

// buildVariant is prepareVariant with the encode spread over at most
// workers goroutines (see encodeGOPs). The variant does not depend on
// workers.
func buildVariant(ctx context.Context, src core.Source, track *annotation.Track, qi int, cfg encodeConfig, workers int) (*variant, error) {
	n := src.TotalFrames()
	spanName := "stream.raw_encode"
	var targets []float64
	if track != nil {
		spanName = "stream.compensate_encode"
		cursor := track.NewCursor(qi)
		targets = make([]float64, n)
		for i := range targets {
			targets[i], _ = cursor.Next()
		}
	}
	sp := obs.StartSpan(ctx, spanName)
	frames, err := encodeGOPs(ctx, src, targets, cfg, workers)
	sp.End()
	if err != nil {
		return nil, err
	}
	return newVariant(ctx, src, track, frames)
}

// newVariant seals the encoded frames of src into a variant. With a
// track it computes the decode-cycle and scene-byte side channels first.
func newVariant(ctx context.Context, src core.Source, track *annotation.Track, frames []*codec.EncodedFrame) (*variant, error) {
	v := &variant{frames: frames}
	if track != nil {
		width, height := src.Size()
		n := len(frames)
		// Decode-complexity annotations (ChunkDecodeCycles).
		sp := obs.StartSpan(ctx, "stream.annotate_sidechannels")
		model := dvs.DefaultCycleModel()
		estimates := make([]float64, n)
		for i, ef := range frames {
			estimates[i] = model.Estimate(ef, width, height)
		}
		v.cyclesChunk = dvs.EncodeCycles(dvs.Annotate(estimates, 0.10))

		// Per-scene byte counts (ChunkSceneBytes), aligned with the
		// annotation track's records.
		var nsScenes []netsched.Scene
		pos := 0
		for _, rec := range track.Records {
			bytes := 0
			for i := pos; i < pos+rec.Frames && i < n; i++ {
				bytes += len(frames[i].Data)
			}
			nsScenes = append(nsScenes, netsched.Scene{
				Bytes:   bytes,
				Seconds: float64(rec.Frames) / float64(src.FPS()),
			})
			pos += rec.Frames
		}
		v.scenesChunk = netsched.EncodeScenes(nsScenes)
		sp.End()
	}
	if err := v.seal(); err != nil {
		return nil, err
	}
	return v, nil
}

// encodeGOPs encodes every frame of src, compensated to targets[i] when
// targets is not nil, with GOPs in parallel on min(workers, GOPs)
// goroutines. Frame k·GOP starts a GOP and is an I-frame, which reads no
// reference, so a GOP's bytes do not depend on which worker encodes it
// or when. Each worker takes the next GOP in turn, with one encoder it
// restarts at each GOP and one frame it compensates into: src.Frame may
// return a frame its source shares, which is never compensated in place.
// The first failure stops the other workers, and every worker has
// returned before encodeGOPs does; a worker's panic is re-raised here,
// in the caller's goroutine.
func encodeGOPs(ctx context.Context, src core.Source, targets []float64, cfg encodeConfig, workers int) ([]*codec.EncodedFrame, error) {
	n := src.TotalFrames()
	frames := make([]*codec.EncodedFrame, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		failOnce sync.Once
		failErr  error
		panicked any
	)
	fail := func(err error, p any) {
		failOnce.Do(func() {
			failErr, panicked = err, p
			cancel()
		})
	}
	work := func() error {
		w, h := src.Size()
		enc, err := codec.NewEncoder(w, h, cfg.GOP, cfg.QScale)
		if err != nil {
			return err
		}
		var comp *frame.Frame
		if targets != nil {
			comp = frame.New(w, h)
		}
		for {
			start := int(next.Add(1)-1) * cfg.GOP
			if start >= n {
				return nil
			}
			enc.Restart()
			for i := start; i < min(start+cfg.GOP, n); i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				f := src.Frame(i)
				if targets != nil {
					core.CompensateFrameInto(comp, f, targets[i], compensate.ContrastEnhancement)
					f = comp
				}
				if frames[i], err = enc.Encode(f); err != nil {
					return err
				}
			}
		}
	}
	for range min(workers, (n+cfg.GOP-1)/cfg.GOP) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fail(nil, p)
				}
			}()
			if err := work(); err != nil {
				fail(err, nil)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return frames, failErr
}

// variantFor is the cached variant lookup: encode once per (content
// digest, rung, encoder config), serve forever. A nil track looks up
// the clip's raw encode (ModeRaw), keyed apart from every rung.
func variantFor(ctx context.Context, t tier, digest string, src core.Source, track *annotation.Track, qi int, cfg encodeConfig) (*variant, error) {
	key := anncache.Key{Kind: "variant", Digest: digest, Quality: qi}
	if track == nil {
		key = anncache.Key{Kind: "raw", Digest: digest, Quality: -1}
	}
	vAny, err := t.getOrCompute(ctx, key, encSig(cfg), variantCodec,
		func(ctx context.Context) (any, int64, error) {
			v, err := prepareVariant(ctx, src, track, qi, cfg)
			if err != nil {
				return nil, 0, err
			}
			return v, v.cost(), nil
		})
	if err != nil {
		return nil, err
	}
	return vAny.(*variant), nil
}

// countingWriter counts bytes written (the bytes-sent accounting).
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// wireChunkSize bounds a single write on the zero-copy path. Chunking
// keeps the old per-frame write semantics a stalled client depends on:
// each chunk re-arms the connection's write deadline and observes ctx
// cancellation, so one contiguous multi-megabyte wire write cannot pin
// a session past its timeout.
const wireChunkSize = 256 << 10

// sendWire streams frames [from, to) of a sealed variant — the
// zero-copy send path every session takes, warm or cold, store-hit or
// peer-filled. The bytes go out as chunked slices of v.wire, the one
// verified copy in memory, with no per-frame writes, copies or
// allocations.
func sendWire(ctx context.Context, cw *container.Writer, v *variant, from, to int, framesSent *obs.Counter) error {
	start, end := int64(v.offs[from]), int64(v.offs[to])
	for off := start; off < end; {
		if err := ctx.Err(); err != nil {
			return err
		}
		seg := off + wireChunkSize
		if seg > end {
			seg = end
		}
		if err := cw.WritePackets(v.wire[off:seg]); err != nil {
			return err
		}
		off = seg
	}
	framesSent.Add(uint64(to - from))
	return nil
}

// send streams a prepared variant, with the header newVariantWriter
// builds, from frame index from (an I-frame boundary; nonzero for a
// resumed session). A nil track is a ModeRaw session; a non-nil ladder
// is an adaptive one.
//
// The returned byte count is the bytes actually written to w, success
// or failure: the counting wrapper is read exactly once, after the
// body finishes, and the same figure feeds the bytesSent counter — a
// mid-stream failure can neither double-count nor under-report what
// reached the wire.
func send(ctx context.Context, w io.Writer, src core.Source, track *annotation.Track, v *variant, levelsChunk []byte, from int, lad *ladder, framesSent, bytesSent *obs.Counter) (uint64, error) {
	spanName := "stream.send"
	if lad != nil {
		spanName = "stream.send_adaptive"
	}
	sp := obs.StartSpan(ctx, spanName)
	defer sp.End()
	cw0 := &countingWriter{w: w}
	err := func() error {
		cw, err := newVariantWriter(cw0, src, track, v, levelsChunk, from)
		if err != nil {
			return err
		}
		if lad != nil {
			if err := lad.open(cw, len(track.Quality)-1); err != nil {
				return err
			}
		}
		for i, n := from, len(v.frames); i < n; {
			// A fixed session is one zero-copy run. An adaptive one
			// serves the current rung up to the next I-frame, the only
			// place a rung change may land: a P-frame from a different
			// variant would reference a reconstruction the client does
			// not have.
			j := n
			if lad != nil {
				j = i + 1
				for j < n && v.frames[j].Type != codec.IFrame {
					j++
				}
			}
			if err := sendWire(ctx, cw, v, i, j, framesSent); err != nil {
				return err
			}
			i = j
			if lad != nil && i < n {
				if v, err = lad.swap(ctx, cw, v, i); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	bytesSent.Add(cw0.n)
	sp.SetAttrInt("bytes", int64(cw0.n))
	if lad != nil {
		sp.SetAttrInt("start_rung", int64(lad.rung))
		if err == nil {
			sp.SetAttrInt("final_rung", int64(lad.cur))
		}
		sp.SetAttrInt("quality_switches", int64(len(lad.switches)))
	}
	return cw0.n, err
}

// newVariantWriter writes the container header of a session that
// serves variant v from frame index from and returns the writer for
// its frames. A ModeRaw session (nil track) gets the bare header. An
// annotated one adds the track, the variant's decode-cycle and
// scene-byte side channels, the resume offset when resuming and the
// device level table when one was negotiated. FrameCount counts real
// frames, so it holds across adaptive rung switches. The header is
// built here rather than returned so its chunk map stays off the heap.
func newVariantWriter(w io.Writer, src core.Source, track *annotation.Track, v *variant, levelsChunk []byte, from int) (*container.Writer, error) {
	width, height := src.Size()
	hdr := container.Header{W: width, H: height, FPS: src.FPS(), FrameCount: len(v.frames) - from}
	if track != nil {
		hdr.Annotations = track
		hdr.Extra = map[uint8][]byte{
			container.ChunkDecodeCycles: v.cyclesChunk,
			container.ChunkSceneBytes:   v.scenesChunk,
		}
		if from > 0 {
			hdr.Extra[container.ChunkResumeOffset] = container.EncodeResumeOffset(uint32(from))
		}
		if levelsChunk != nil {
			hdr.Extra[container.ChunkDeviceLevels] = levelsChunk
		}
	}
	return container.NewWriter(w, hdr)
}

// streamRaw sends the clip unannotated and uncompensated (ModeRaw, what
// a proxy fetches upstream), serving the encoded form from the artifact
// tier: the first fetch pays one encode and writes through to the
// store, every later fetch streams the cached wire bytes zero-copy
// instead of re-encoding the clip. A proxy encodes its decoded copy.
// The whole clip is always sent (the request's StartFrame is ignored),
// and a failed encode sends no error frame: the fetching proxy sees a
// broken stream and fails over.
func (n *nodeCore) streamRaw(ctx context.Context, w io.Writer, c nodeClip) error {
	v, err := variantFor(ctx, n.tierFor(c.name), c.digest, c.src, nil, -1, n.enc.withDefaults(c.src.FPS()))
	if err != nil {
		return err
	}
	_, err = send(ctx, w, c.src, nil, v, nil, 0, nil, n.sm.framesSent, n.sm.bytesSent)
	return err
}
