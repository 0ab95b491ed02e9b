package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/power"
)

// DefaultCacheCapacity is the artifact-cache byte budget servers and
// proxies start with.
const DefaultCacheCapacity = 256 << 20

// EncodeConfig controls the codec parameters the server streams with.
type EncodeConfig struct {
	GOP    int // I-frame interval (defaults to one second of frames)
	QScale int // quantiser scale (defaults to 4)
}

func (c EncodeConfig) withDefaults(fps int) EncodeConfig {
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
	// burst rides the queue instead of being refused outright.
	slots      chan struct{}
	queueDepth int
	queueWait  time.Duration
	queueSet   bool
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
	frames []*codec.EncodedFrame
	wire   []byte
	offs   []uint32
	// ref, when set, locates wire inside a CRC-verified artifact file
	// of the persistent store, so sessions can stream it with sendfile
	// instead of holding the clip's bytes in user space.
	ref         wireFileRef
	cyclesChunk []byte
	scenesChunk []byte
}

// wireFileRef points at a variant's wire region inside a store
// artifact file: the region is file [off, off+n).
type wireFileRef struct {
	path string
	off  int64
	n    int64
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

// packets returns the pre-encoded packet run for frames [i, j).
func (v *variant) packets(i, j int) []byte {
	return v.wire[v.offs[i]:v.offs[j]]
}

// cost is the variant's cache cost in bytes.
func (v *variant) cost() int64 {
	c := int64(len(v.cyclesChunk)+len(v.scenesChunk)) + int64(len(v.wire))
	if v.wire == nil {
		for _, ef := range v.frames {
			c += int64(ef.Size())
		}
	}
	return c
}

// NewServer builds a server over the given catalog.
func NewServer(catalog map[string]core.Source) *Server {
	s := &Server{catalog: catalog, digests: map[string]string{}}
	s.initCore("server", s, s.clientSession)
	return s
}

// SetMaxSessions caps concurrent client sessions (0 = unlimited).
// Connections over the cap wait in a bounded admission queue and are
// shed with a clean over-capacity refusal only once the queue is full or
// the wait deadline expires (see SetAdmissionQueue). Call before Listen.
func (s *Server) SetMaxSessions(n int) {
	s.slots = nil
	if n > 0 {
		s.slots = make(chan struct{}, n)
	}
	if !s.queueSet {
		s.queueDepth = n
	}
}

// SetAdmissionQueue tunes load shedding under a SetMaxSessions cap:
// depth is the number of connections allowed to wait for a session slot
// (0 = shed immediately when at capacity, the pre-queue behaviour), wait
// is the longest any of them waits before being shed. The defaults are
// depth = max sessions and a 1s wait. Call before Listen.
func (s *Server) SetAdmissionQueue(depth int, wait time.Duration) {
	s.queueDepth = depth
	s.queueWait = wait
	s.queueSet = true
}

// SetEncodeConfig overrides codec parameters.
func (s *Server) SetEncodeConfig(c EncodeConfig) { s.enc = c }

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
	return s.clip(ctx, req.Clip, s.digestOf(req.Clip, src), src), nil
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
		return s.clip(ctx, req.Clip, req.Digest, src), nil
	}
	for name, src := range s.catalog {
		if s.digestOf(name, src) == req.Digest {
			return s.clip(ctx, name, req.Digest, src), nil
		}
	}
	return nodeClip{}, fmt.Errorf("%w: no catalog clip with digest %.16s", cluster.ErrNotFound, req.Digest)
}

// clip wraps a catalog clip; its track is computed on first use.
func (s *Server) clip(ctx context.Context, name, digest string, src core.Source) nodeClip {
	return nodeClip{name: name, src: src, digest: digest, track: func() (*annotation.Track, error) {
		return s.track(ctx, name, digest, src)
	}}
}

// digestOf memoises the content digest of a catalog clip: catalog
// sources are immutable, so one full-decode fingerprint per name is
// enough to key every cached artifact by content. The digest renders
// the whole clip, so it is computed outside digestMu: one cold clip must
// not stall lookups of clips already memoised. Two racing computes of
// one clip yield the same string, so either insert is correct.
func (s *Server) digestOf(name string, src core.Source) string {
	s.digestMu.Lock()
	d, ok := s.digests[name]
	s.digestMu.Unlock()
	if ok {
		return d
	}
	d = core.SourceDigest(src)
	s.digestMu.Lock()
	s.digests[name] = d
	s.digestMu.Unlock()
	return d
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
	qi := rungFor(track, req.Quality)
	cfg := n.enc.withDefaults(src.FPS())
	getVariant := func(ctx context.Context, q int) (*variant, error) {
		return variantFor(ctx, t, digest, src, track, q, cfg)
	}
	v, err := getVariant(ctx, qi)
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
	var sent uint64
	var switches []rungSwitch
	if req.Adaptive {
		sent, switches, err = sendAdaptive(ctx, conn, src, track, v, getVariant, levels, from, qi,
			n.obsReg, n.role, n.sm.framesSent, n.sm.bytesSent)
	} else {
		sent, err = sendVariant(ctx, conn, src, track, v, levels, from, n.sm.framesSent, n.sm.bytesSent)
	}
	if err == nil {
		// The session streamed to completion: fold its modeled power
		// accounting into the fleet-wide power_saved_* / session_*
		// families. The levels the client will apply are fully
		// determined by the track, device, quality index and rung
		// switches, so the node can account savings without hearing
		// back.
		accountSessionPower(n.obsReg, n.role, req, src, track, qi, from, sent, switches)
	}
	return err
}

// accountSessionPower reconstructs a served session's power ledger from
// what went over the wire — per-scene backlight levels for the client's
// device at the negotiated quality — and aggregates it into the
// power_saved_* / session_* families under the given role. For an
// adaptive session, switches lists the mid-stream rung changes (in
// frame order), so each frame is accounted at the rung it was actually
// served at.
func accountSessionPower(reg *obs.Registry, role string, req Request, src core.Source, track *annotation.Track, qi, from int, wireBytes uint64, switches []rungSwitch) {
	if reg == nil {
		return
	}
	dev := display.ByName(req.Device)
	if dev == nil {
		return
	}
	levels := track.LevelsFor(dev)
	if len(levels) != len(track.Records) {
		return
	}
	led := power.NewLedger(dev)
	if req.Adaptive {
		led.SetRung(qi)
	}
	frameSeconds := 1 / float64(src.FPS())
	cur := qi
	next := 0
	pos := 0
	for si, rec := range track.Records {
		sceneStarted := false
		for i := 0; i < rec.Frames; i++ {
			for next < len(switches) && switches[next].frame <= pos {
				cur = switches[next].rung
				led.QualitySwitch(cur)
				next++
			}
			if pos >= from {
				lvl := levels[si][cur]
				if !sceneStarted {
					led.StartScene(si, lvl)
					sceneStarted = true
				}
				led.Frame(frameSeconds, lvl)
			}
			pos++
		}
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

// prepareVariant compensates and encodes src at quality index qi and
// computes the decode-cycle and scene-byte side channels. The whole
// stream is encoded before anything is sent so that all annotations are
// available to the client before it decodes anything — the point of
// annotating ahead of time (§3).
func prepareVariant(ctx context.Context, src core.Source, track *annotation.Track, qi int, cfg EncodeConfig) (*variant, error) {
	width, height := src.Size()
	enc, err := codec.NewEncoder(width, height, cfg.GOP, cfg.QScale)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "stream.compensate_encode")
	// A frame past the track's end keeps the last record's target (full
	// luminance when there are no records).
	walk := sceneWalk{records: track.Records}
	target := 1.0
	n := src.TotalFrames()
	frames := make([]*codec.EncodedFrame, 0, n)
	for i := 0; i < n; i++ {
		if rec, _ := walk.next(); rec < len(track.Records) {
			target = float64(track.Records[rec].Targets[qi]) / 255
		}
		f := core.CompensateFrame(src.Frame(i), target, compensate.ContrastEnhancement)
		ef, err := enc.Encode(f)
		if err != nil {
			return nil, err
		}
		frames = append(frames, ef)
	}
	sp.End()

	// Decode-complexity annotations (ChunkDecodeCycles).
	sp = obs.StartSpan(ctx, "stream.annotate_sidechannels")
	model := dvs.DefaultCycleModel()
	estimates := make([]float64, n)
	for i, ef := range frames {
		estimates[i] = model.Estimate(ef, width, height)
	}
	cycles := dvs.Annotate(estimates, 0.10)

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
	v := &variant{
		frames:      frames,
		cyclesChunk: dvs.EncodeCycles(cycles),
		scenesChunk: netsched.EncodeScenes(nsScenes),
	}
	sp.End()
	if err := v.seal(); err != nil {
		return nil, err
	}
	return v, nil
}

// prepareRawVariant encodes src untouched — no compensation, no side
// channels — into wire form: the payload of a ModeRaw session, cached
// through the artifact tier like any other variant so repeated raw
// fetches (a proxy re-filling after eviction, a second proxy cold
// start) stream cached bytes instead of re-encoding the clip.
func prepareRawVariant(ctx context.Context, src core.Source, cfg EncodeConfig) (*variant, error) {
	width, height := src.Size()
	enc, err := codec.NewEncoder(width, height, cfg.GOP, cfg.QScale)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "stream.raw_encode")
	defer sp.End()
	n := src.TotalFrames()
	frames := make([]*codec.EncodedFrame, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ef, err := enc.Encode(src.Frame(i))
		if err != nil {
			return nil, err
		}
		frames = append(frames, ef)
	}
	v := &variant{frames: frames}
	if err := v.seal(); err != nil {
		return nil, err
	}
	return v, nil
}

// rawVariantFor is variantFor's ModeRaw counterpart: encode once per
// (content digest, encoder config), serve forever.
func rawVariantFor(ctx context.Context, t tier, digest string, src core.Source, cfg EncodeConfig) (*variant, error) {
	vAny, err := t.getOrCompute(ctx,
		anncache.Key{Kind: "raw", Digest: digest, Quality: -1}, encSig(cfg), variantCodec,
		func(ctx context.Context) (any, int64, error) {
			v, err := prepareRawVariant(ctx, src, cfg)
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

// ReadFrom forwards to the underlying writer's ReadFrom when it has
// one (the sendfile chain down to a TCP connection) while keeping the
// byte count; otherwise it copies through a pooled buffer so the warm
// path never allocates a fresh io.Copy buffer.
func (c *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := c.w.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(r)
		c.n += uint64(n)
		return n, err
	}
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(onlyWriter{c}, r, *bp)
	copyBufPool.Put(bp)
	return n, err
}

// wireChunkSize bounds a single write on the zero-copy path. Chunking
// keeps the old per-frame write semantics a stalled client depends on:
// each chunk re-arms the connection's write deadline and observes ctx
// cancellation, so one contiguous multi-megabyte wire write cannot pin
// a session past its timeout.
const wireChunkSize = 256 << 10

// errWireFileGone reports that a variant's backing artifact file could
// not be opened (evicted or store closed) before any byte was written;
// the in-memory wire is still authoritative, so callers fall back.
var errWireFileGone = errors.New("stream: wire artifact file unavailable")

// sendWire streams frames [from, to) of a sealed variant — the
// zero-copy warm path. The bytes go out as chunked slices of v.wire
// with no per-frame writes, copies or allocations; when the variant
// was decoded straight from a store artifact, the chunks stream from
// the file itself so a TCP connection can move them with sendfile.
func sendWire(ctx context.Context, cw *container.Writer, v *variant, from, to int, framesSent *obs.Counter) error {
	if from >= to {
		return nil
	}
	start, end := int64(v.offs[from]), int64(v.offs[to])
	if v.ref.path != "" {
		err := sendWireFile(ctx, cw, v.ref, start, end)
		if err == nil {
			framesSent.Add(uint64(to - from))
			return nil
		}
		if err != errWireFileGone {
			return err
		}
		// File gone before any byte moved: serve from memory instead.
	}
	for off := start; off < end; {
		if err := ctx.Err(); err != nil {
			return err
		}
		seg := off + wireChunkSize
		if seg > end {
			seg = end
		}
		if err := cw.WritePackets(v.wire[off:seg], 0); err != nil {
			return err
		}
		off = seg
	}
	framesSent.Add(uint64(to - from))
	return nil
}

// sendWireFile streams the wire range [start, end) from the variant's
// backing artifact file. It returns errWireFileGone only for failures
// that happen before any byte is written (open/seek); once bytes may
// have reached the socket, errors are final — retrying from memory
// would duplicate data on the wire.
func sendWireFile(ctx context.Context, cw *container.Writer, ref wireFileRef, start, end int64) error {
	f, err := os.Open(ref.path)
	if err != nil {
		return errWireFileGone
	}
	defer f.Close()
	if _, err := f.Seek(ref.off+start, io.SeekStart); err != nil {
		return errWireFileGone
	}
	for off := start; off < end; {
		if err := ctx.Err(); err != nil {
			return err
		}
		seg := end - off
		if seg > wireChunkSize {
			seg = wireChunkSize
		}
		if err := cw.ReadPacketsFrom(f, seg, 0); err != nil {
			return err
		}
		off += seg
	}
	return nil
}

// sendVariant writes the annotated container for a prepared variant,
// starting at frame index from (an I-frame boundary; nonzero for a
// resumed session, in which case the resume-offset side channel tells
// the client where the stream picks up). A non-nil levelsChunk is the
// device-specific backlight level table shipped as a side channel
// (§4.3's negotiation option).
//
// The returned byte count is the bytes actually written to w, success
// or failure: the counting wrapper is read exactly once, after the
// body finishes, and the same figure feeds the bytesSent counter — a
// mid-stream failure can neither double-count nor under-report what
// reached the wire.
func sendVariant(ctx context.Context, w io.Writer, src core.Source, track *annotation.Track, v *variant, levelsChunk []byte, from int, framesSent, bytesSent *obs.Counter) (uint64, error) {
	sp := obs.StartSpan(ctx, "stream.send")
	defer sp.End()
	cw0 := &countingWriter{w: w}
	err := func() error {
		cw, err := newVariantWriter(cw0, src, track, v, levelsChunk, from)
		if err != nil {
			return err
		}
		return sendWire(ctx, cw, v, from, len(v.frames), framesSent)
	}()
	bytesSent.Add(cw0.n)
	sp.SetAttrInt("bytes", int64(cw0.n))
	return cw0.n, err
}

// newVariantWriter writes the container header of an annotated session
// that serves variant v from frame index from — the track, the
// variant's decode-cycle and scene-byte side channels, the resume
// offset when resuming and the device level table when one was
// negotiated — and returns the writer for its frames. FrameCount counts
// real frames, so it holds across adaptive rung switches. The header is
// built here rather than returned so its chunk map stays off the heap.
func newVariantWriter(w io.Writer, src core.Source, track *annotation.Track, v *variant, levelsChunk []byte, from int) (*container.Writer, error) {
	width, height := src.Size()
	extra := map[uint8][]byte{
		container.ChunkDecodeCycles: v.cyclesChunk,
		container.ChunkSceneBytes:   v.scenesChunk,
	}
	if from > 0 {
		extra[container.ChunkResumeOffset] = container.EncodeResumeOffset(uint32(from))
	}
	if levelsChunk != nil {
		extra[container.ChunkDeviceLevels] = levelsChunk
	}
	return container.NewWriter(w, container.Header{
		W: width, H: height, FPS: src.FPS(),
		FrameCount:  len(v.frames) - from,
		Annotations: track,
		Extra:       extra,
	})
}

// streamRaw sends the clip unannotated and uncompensated (ModeRaw, what
// a proxy fetches upstream), serving the encoded form from the artifact
// tier: the first fetch pays one encode and writes through to the
// store, every later fetch streams the cached wire bytes zero-copy
// instead of re-encoding the clip. A proxy encodes its decoded copy.
func (n *nodeCore) streamRaw(ctx context.Context, w io.Writer, c nodeClip) error {
	cw0 := &countingWriter{w: w}
	defer func() {
		n.sm.bytesSent.Add(cw0.n)
	}()
	src := c.src
	cfg := n.enc.withDefaults(src.FPS())
	v, err := rawVariantFor(ctx, n.tierFor(c.name), c.digest, src, cfg)
	if err != nil {
		return err
	}
	width, height := src.Size()
	cw, err := container.NewWriter(cw0, container.Header{
		W: width, H: height, FPS: src.FPS(), FrameCount: src.TotalFrames(),
	})
	if err != nil {
		return err
	}
	return sendWire(ctx, cw, v, 0, len(v.frames), n.sm.framesSent)
}
