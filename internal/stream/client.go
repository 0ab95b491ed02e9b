package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/annotation"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/display"
	"repro/internal/dvs"
	"repro/internal/frame"
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/power"
)

// PlayResult is what a client session produces: decoded playback plus the
// power accounting of the run.
type PlayResult struct {
	Frames      int
	Scenes      int
	Annotated   bool
	AvgLevel    float64
	Switches    int
	BytesStream int
	BytesAnn    int
	// BacklightSavings and TotalSavings are the analytic savings of the
	// session vs full backlight.
	BacklightSavings float64
	TotalSavings     float64
	// DecodedAvgLuma is the mean luminance of decoded frames, a sanity
	// signal that compensation brightened the stream.
	DecodedAvgLuma float64
	// DecodeCycles holds the stream's per-frame decode-complexity
	// annotations (nil when the server sent none); a DVS-capable client
	// hands them to its frequency governor.
	DecodeCycles []uint32
	// NetScenes holds the per-scene byte-count annotations (nil when
	// absent); a PSM-capable client hands them to its radio scheduler.
	NetScenes []netsched.Scene
	// ServerLevels reports whether the backlight levels came from the
	// server's negotiation-time table rather than the client's own LUT.
	ServerLevels bool
	// Retries counts reconnection attempts after a session failure.
	Retries int
	// Resumes counts reconnections that continued mid-clip via the
	// request's start frame instead of replaying from frame zero.
	Resumes int
	// QualitySwitches counts the mid-stream rung changes of an adaptive
	// session, as announced by the server's in-band markers.
	QualitySwitches int
	// FinalRung is the quality rung in force when an adaptive session
	// ended (the requested rung when nothing switched; 0 for fixed
	// sessions).
	FinalRung int
	// RungByFrame records, for an adaptive session, the rung each
	// delivered frame was served at. Nil for fixed-quality sessions.
	RungByFrame []uint8
	// MaxLagSeconds is the deepest playout deficit a real-time player
	// would have suffered during an adaptive session (0 when delivery
	// always kept ahead of the playout clock).
	MaxLagSeconds float64
	// Trace and Reference are the ledger's session and full-backlight
	// power traces (for a DAQ measurement or a CSV dump).
	Trace, Reference *power.Trace
	// Ledger is the session's power/QoS accounting: per-scene backlight
	// levels, modeled energy vs the full-backlight baseline, wire
	// bytes, rebuffer and degradation events. Its SavedPct agrees with
	// TotalSavings (both integrate the same traces under the same
	// model).
	Ledger *power.Report
	// Degraded lists the side channels the session dropped instead of
	// failing on (e.g. a corrupt annotation track: the backlight simply
	// stays at full). Empty for a healthy session.
	Degraded []string
}

// RetryPolicy shapes the client's reconnect behaviour: exponential
// backoff with jitter, bounded by MaxAttempts connection attempts.
type RetryPolicy struct {
	// MaxAttempts is the total number of connection attempts (first try
	// included). Default 5.
	MaxAttempts int
	// BaseDelay is the wait before the first retry; each further retry
	// doubles it. Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 2s.
	MaxDelay time.Duration
	// Jitter is the random fraction (0..1) added to each delay so a
	// fleet of clients does not reconnect in lockstep. Default 0.2.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.2
	}
	return p
}

// delay returns the backoff before retry number n (n >= 1).
func (p RetryPolicy) delay(n int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << uint(n-1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		d += time.Duration(p.Jitter * rng.Float64() * float64(d))
	}
	return d
}

// countingReader counts bytes received (the stream overhead accounting).
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// Client plays annotated streams on a device profile.
type Client struct {
	Device *display.Profile
	// OnFrame, when set, observes every decoded frame (examples use it).
	// Across a resume, every frame index is observed exactly once. The
	// client decodes every frame of a connection into the same f, so f
	// is valid only until OnFrame returns; a caller that keeps a frame
	// must Clone it. OnFrame may modify f in place (a player compensates
	// it there): the decoder predicts from its own reference pictures,
	// never from f.
	OnFrame func(i int, f *frame.Frame, backlight int)
	// Obs, when set, receives the client's online-path telemetry:
	// per-frame decode latency spans, frames/bytes received counters,
	// retry/resume/degradation counters, and the backlight level gauge.
	Obs *obs.Registry
	// Retry shapes reconnect behaviour; the zero value uses defaults
	// (5 attempts, 100ms base, 2s cap, 20% jitter).
	Retry RetryPolicy
	// ReadTimeout is the per-read deadline on the stream connection
	// (default 10s; a stalled link fails fast and triggers a retry).
	ReadTimeout time.Duration
	// Ladder, when set, negotiates an adaptive session: the client
	// runs the quality-ladder control loop, walking rungs down under
	// playout-buffer pressure or battery drain and back up after
	// recovery (StartRung is derived from the requested quality and may
	// be left zero).
	Ladder *adaptive.LadderConfig
	// Dial overrides the dial function (tests inject faulty links).
	Dial func(network, addr string) (net.Conn, error)

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Play connects to addr, negotiates the given clip and quality, and plays
// the stream to completion, returning the session accounting.
func (c *Client) Play(addr, clip string, quality float64) (*PlayResult, error) {
	return c.PlayContext(context.Background(), addr, clip, quality)
}

// PlayContext is Play under a context: cancelling ctx aborts the
// session, including any backoff wait. The session survives transient
// failures by reconnecting with exponential backoff and resuming from
// the last fully-decoded frame.
func (c *Client) PlayContext(ctx context.Context, addr, clip string, quality float64) (*PlayResult, error) {
	s, err := c.newSession(quality)
	if err != nil {
		return nil, err
	}
	retry := c.Retry.withDefaults()
	retriesTotal := c.Obs.Counter("stream_client_retries_total",
		"Reconnection attempts after a stream session failure.")
	resumesTotal := c.Obs.Counter("stream_client_resumes_total",
		"Sessions continued mid-clip via the request's start frame.")

	// The whole playback session is one trace, rooted here; every
	// connection attempt, and (via the request's trace context) the proxy
	// and server work on the other side of the wire, hang off this span.
	ctx = obs.WithRegistry(ctx, c.Obs)
	ctx, playSp := obs.StartTrace(ctx, "client.play")
	defer playSp.End()
	playSp.SetAttr("clip", clip)
	playSp.SetAttr("device", c.Device.Name)

	var lastErr error
	for attempt := 0; attempt < retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.res.Retries++
			retriesTotal.Inc()
			d := retry.delay(attempt, c.backoffRNG())
			s.ledger.Rebuffer(d.Seconds())
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		resumed, err := c.attempt(ctx, &s, addr, clip)
		if resumed {
			s.res.Resumes++
			resumesTotal.Inc()
		}
		if err == nil {
			return c.finish(&s)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("stream: giving up after %d attempts: %w", retry.MaxAttempts, lastErr)
}

// PlayContainer plays a local container through the playback loop of a
// fixed session: one attempt, no retry, no WNIC draw in the ledger. A
// client with a Ladder is refused: a file has no server to switch rungs.
func (c *Client) PlayContainer(ctx context.Context, r *container.Reader, quality float64) (*PlayResult, error) {
	if c.Ladder != nil {
		return nil, fmt.Errorf("stream: an adaptive client cannot play a file")
	}
	s, err := c.newSession(quality)
	if err != nil {
		return nil, err
	}
	s.ledger.SetNetworkActive(false)
	if err := c.play(ctx, &s, r, nil, Request{Quality: quality}); err != nil {
		return nil, err
	}
	return c.finish(&s)
}

// newSession returns the session by value, so a caller whose session
// does not escape keeps it on its stack.
func (c *Client) newSession(quality float64) (session, error) {
	if c.Device == nil {
		return session{}, fmt.Errorf("stream: client has no device profile")
	}
	return session{
		res:     &PlayResult{},
		level:   display.MaxLevel,
		quality: quality,
		ceilQi:  -1,
		ledger:  power.NewLedger(c.Device),
	}, nil
}

func (c *Client) backoffRNG() *rand.Rand {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c.rng
}

// retryable classifies a session failure: truncation (short reads,
// resets, timeouts), corruption (container/codec parse failures) and
// over-capacity refusals are worth a reconnect; protocol mismatches and
// definitive server errors (unknown clip) are not.
func retryable(err error) bool {
	switch {
	case errors.Is(err, ErrTruncatedStream),
		errors.Is(err, ErrOverCapacity),
		errors.Is(err, container.ErrFormat),
		errors.Is(err, codec.ErrBitstream):
		return true
	case errors.Is(err, ErrBadMagic):
		return false
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return true
	}
	// Dial failures (refused, unreachable, reset during connect) are
	// transient by nature: the server may be restarting.
	var operr *net.OpError
	return errors.As(err, &operr)
}

// session is the state that survives reconnects: the accumulated result
// plus the playback cursor position (which frame to resume at, current
// backlight level, power traces).
type session struct {
	res     *PlayResult
	quality float64
	// emitted is the number of frames delivered exactly once
	// (== res.Frames); a resume asks the server to start here.
	emitted uint32
	// expected is the clip's total frame count once a header reported
	// it (0 until known). EOF before expected frames is truncation.
	expected uint32
	level    int
	lumaSum  float64
	degraded map[string]bool
	// Quality-rung state. curQi is the rung the server is serving (the
	// negotiated one in a fixed session, marker driven in an adaptive
	// one). The rest is adaptive only: ceilQi is the originally requested
	// rung (-1 until the first header); reqRung the rung last asked of
	// the server; primed gates ladder decisions until the playout buffer
	// has once filled to the down-switch threshold, so a fresh stream
	// does not read its own startup as congestion. qualities is the
	// track's quality column, kept so a resume can re-request the rung in
	// force.
	curQi     int
	ceilQi    int
	reqRung   int
	primed    bool
	qualities []float64
	lad       *adaptive.Ladder
	buf       *netsched.Buffer
	// ledger is the session's power/QoS accounting, fed frame by frame
	// and sealed into PlayResult.Ledger and its savings figures.
	ledger *power.Ledger
}

// degrade records a dropped side channel once.
func (s *session) degrade(what string, total *obs.Counter) {
	if s.degraded == nil {
		s.degraded = map[string]bool{}
	}
	if !s.degraded[what] {
		s.degraded[what] = true
		s.res.Degraded = append(s.res.Degraded, what)
		s.ledger.Degraded(what)
		total.Inc()
	}
}

// attempt runs one connection: negotiate (resuming at s.emitted when the
// session already delivered frames), then decode and account frames.
// resumed reports whether this attempt continued mid-clip.
func (c *Client) attempt(ctx context.Context, s *session, addr, clip string) (resumed bool, err error) {
	ctx, sp := obs.StartSpanCtx(ctx, "client.attempt")
	defer sp.End()
	sp.SetAttr("addr", addr)
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}()
	dial := c.Dial
	if dial == nil {
		dial = net.Dial
	}
	rawConn, err := dial("tcp", addr)
	if err != nil {
		return false, err
	}
	defer rawConn.Close()
	// Cancel the connection (unblocking any pending read) when ctx dies.
	stop := context.AfterFunc(ctx, func() { rawConn.Close() })
	defer stop()

	readTimeout := c.ReadTimeout
	if readTimeout <= 0 {
		readTimeout = 10 * time.Second
	}
	conn := &deadlineConn{Conn: rawConn, readTimeout: readTimeout, writeTimeout: readTimeout}

	req := Request{
		Clip:       clip,
		Quality:    s.quality,
		Device:     c.Device.Name,
		Mode:       ModeAnnotated,
		StartFrame: s.emitted,
		Adaptive:   c.Ladder != nil,
		// Hand the attempt span's context across the wire so the
		// proxy/server session joins this trace.
		Trace: obs.SpanContextFrom(ctx),
	}
	if req.Adaptive && s.qualities != nil && s.curQi < len(s.qualities) {
		// Resuming mid-ladder: re-request the rung in force when the
		// connection died. The fresh session's ceiling is that rung —
		// recovery past it waits for the next full session.
		req.Quality = s.qualities[s.curQi]
	}
	if err := WriteRequest(conn, req); err != nil {
		return false, fmt.Errorf("%w: %v", ErrTruncatedStream, err)
	}
	return req.StartFrame > 0, c.consume(ctx, s, conn, req)
}

// consume is the network half of one connection: response magic, the
// container played through play, wire bytes and truncation.
func (c *Client) consume(ctx context.Context, s *session, rw io.ReadWriter, req Request) error {
	cr := &countingReader{r: rw}
	magic, remoteErr, err := ReadResponseMagic(cr)
	if err != nil {
		if errors.Is(err, ErrBadMagic) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrTruncatedStream, err)
	}
	if remoteErr != nil {
		return remoteErr
	}
	reader, err := container.NewReader(io.MultiReader(bytes.NewReader(magic[:]), cr))
	if err != nil {
		return classifyStreamErr(err)
	}
	if err := c.play(ctx, s, reader, rw, req); err != nil {
		return err
	}
	s.res.BytesStream += cr.n
	s.ledger.AddWireBytes(int64(cr.n))
	c.Obs.Counter("client_bytes_received_total",
		"Bytes received from the stream connection.").Add(uint64(cr.n))
	if s.expected > 0 && s.emitted < s.expected {
		return fmt.Errorf("%w: got %d of %d frames", ErrTruncatedStream, s.emitted, s.expected)
	}
	return nil
}

// play is the playback core over one container, from a connection or a
// file (up nil): decode each frame, set the backlight for its scene and
// account it, emitting each clip frame exactly once even when the server
// replays from an earlier I-frame boundary. A fixed session is this loop
// with the quality ladder off. An adaptive session (req.Adaptive) also
// runs the ladder control loop: a playout-buffer tracker fed by
// deliveries, a decision at every scene boundary sent up as a
// quality-switch message, and the server's in-band markers moving the
// rung (and with it the backlight level column) mid-stream. The server
// is authoritative: the client's rung follows markers, not its own
// requests.
func (c *Client) play(ctx context.Context, s *session, reader *container.Reader, up io.Writer, req Request) error {
	res := s.res
	hdr := reader.Header()
	dec, err := codec.NewDecoder(hdr.W, hdr.H)
	if err != nil {
		return err
	}
	f := frame.New(hdr.W, hdr.H)

	degradedTotal := c.Obs.Counter("stream_client_degraded_total",
		"Side channels dropped in favour of degraded playback.")

	// Where this connection's stream starts in clip coordinates: the
	// server rounds a resume down to an I-frame boundary and reports it.
	var resumeOffset uint32
	if data, ok := hdr.Extra[container.ChunkResumeOffset]; ok {
		off, err := container.DecodeResumeOffset(data)
		if err != nil {
			return classifyStreamErr(err)
		}
		if off > req.StartFrame {
			return fmt.Errorf("%w: resume offset %d beyond requested frame %d",
				ErrProtocol, off, req.StartFrame)
		}
		resumeOffset = off
	}
	if hdr.FrameCount > 0 {
		s.expected = resumeOffset + uint32(hdr.FrameCount)
	}

	s.curQi = 0
	if hdr.AnnotationsErr != nil {
		// Corrupt annotation track: play the stream at full backlight
		// rather than dying (§3: annotations must never break playback).
		s.degrade("annotations", degradedTotal)
	}
	if hdr.Annotations != nil {
		res.Annotated = true
		res.Scenes = len(hdr.Annotations.Records)
		res.BytesAnn = hdr.AnnotationsLen
		if up != nil { // each connection resends the track over the wire
			s.ledger.AddAnnotationBytes(int64(res.BytesAnn))
		}
		s.qualities = hdr.Annotations.Quality
		// This connection starts at the rung the request named — on an
		// adaptive resume, the rung in force when the last one died.
		s.curQi = hdr.Annotations.QualityIndex(req.Quality)
	}
	// Device-specific level table from the server's negotiation, if sent
	// (§4.3: levels "can be computed by either the server/proxy ... or by
	// the client itself").
	var levels [][]int
	if data, ok := hdr.Extra[container.ChunkDeviceLevels]; ok {
		table, err := annotation.DecodeLevels(data)
		if err != nil {
			s.degrade("device_levels", degradedTotal)
		} else if ann := hdr.Annotations; ann != nil && len(table) == len(ann.Records) &&
			(len(table) == 0 || len(table[0]) == len(ann.Quality)) {
			levels = table
			res.ServerLevels = true
		}
	}
	if data, ok := hdr.Extra[container.ChunkDecodeCycles]; ok {
		cycles, err := dvs.DecodeCycles(data)
		if err != nil {
			s.degrade("decode_cycles", degradedTotal)
		} else {
			res.DecodeCycles = cycles
		}
	}
	if data, ok := hdr.Extra[container.ChunkSceneBytes]; ok {
		scenes, err := netsched.DecodeScenes(data)
		if err != nil {
			s.degrade("scene_bytes", degradedTotal)
		} else {
			res.NetScenes = scenes
		}
	}

	framesDecoded := c.Obs.Counter("client_frames_decoded_total",
		"Frames decoded by the playback client.")
	backlightGauge := c.Obs.Gauge("client_backlight_level",
		"Backlight level currently set (0..255).")
	frameSeconds := 1 / float64(hdr.FPS)

	// The ladder, its playout buffer and the battery model exist only in
	// an adaptive session; in a fixed one curQi never changes.
	var (
		lm          ladderMetrics
		batModel    *power.Model
		ceilGuessed bool
		announced   bool
		total       uint32 // the track's frame count
	)
	if req.Adaptive {
		if hdr.Annotations != nil {
			total = uint32(hdr.Annotations.TotalFrames())
		}
		s.reqRung = s.curQi
		s.ledger.SetRung(s.curQi)
		if s.ceilQi < 0 {
			s.ceilQi = s.curQi
			ceilGuessed = true
		}
		if s.lad == nil && hdr.Annotations != nil && !s.degraded["ladder"] {
			c.buildLadder(s, hdr.Annotations, s.ceilQi, degradedTotal)
		}
		if s.buf == nil {
			s.buf = netsched.NewBuffer(float64(hdr.FPS))
		}
		if c.Ladder.Battery != nil {
			batModel = power.DefaultModel(c.Device)
		}
		lm = newLadderMetrics(c.Obs, "client")
	}

	// The per-frame backlight level is levels[rec][rung]: the server's
	// negotiated table when it sent a usable one, otherwise the same table
	// resolved through the device's own LUT — the client's whole runtime
	// obligation, one multiply + table look-up per scene. Looking it up
	// each frame makes a mid-scene rung switch land on exactly the frame
	// the new rung's stream starts at.
	var walk annotation.Walker
	if hdr.Annotations != nil {
		if levels == nil {
			levels = hdr.Annotations.LevelsFor(c.Device)
		}
		walk = hdr.Annotations.Walk()
	}
	levelFor := func(rec, rung int) int {
		if rec < len(levels) && rung < len(levels[rec]) {
			return levels[rec][rung]
		}
		return display.MaxLevel
	}
	// A resumed connection replays the walk up to the stream's start, so
	// record indexes match a continuous run (each connection resends the
	// full track).
	for g := uint32(0); g < resumeOffset; g++ {
		walk.Next()
	}

	g := resumeOffset // global (clip) frame index of the next decoded frame
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ef, err := reader.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return classifyStreamErr(err)
		}
		if req.Adaptive {
			if rung, isCtl := parseControlFrame(ef); isCtl {
				// In-band control packet: a quality-switch marker moves
				// the session to a new rung starting at the next frame;
				// unknown control kinds are skipped.
				if rung < 0 || rung >= len(s.qualities) {
					continue
				}
				if !announced {
					// The stream opens with one marker announcing the rung
					// the server granted. It is authoritative: should it
					// differ from the rung picked above, it corrects the
					// starting rung (and, on the session's first
					// connection, the ladder ceiling) without counting as
					// a switch.
					announced = true
					if rung != s.curQi {
						s.curQi, s.reqRung = rung, rung
						s.ledger.SetRung(rung)
						if ceilGuessed && s.lad != nil {
							s.ceilQi = rung
							c.buildLadder(s, hdr.Annotations, rung, degradedTotal)
						}
					}
				} else if rung != s.curQi {
					lm.record(s.curQi, rung)
					s.curQi = rung
					s.ledger.QualitySwitch(rung)
					res.QualitySwitches++
				}
				continue
			}
		}
		sp := c.Obs.StartSpan("client.decode")
		err = dec.DecodeInto(ef, f)
		sp.End()
		if err != nil {
			return err
		}
		// Frames before s.emitted are replays (an I-frame rewind on
		// resume): decoding them warms the predictor, but they were
		// already delivered and their scene already entered the ledger.
		fresh := g >= s.emitted
		rec, sceneStart := walk.Next()
		if sceneStart && fresh && s.lad != nil {
			if err := c.decideRung(s, up, g, total, frameSeconds); err != nil {
				return err
			}
		}
		if lvl := levelFor(rec, s.curQi); sceneStart || lvl != s.level {
			sp := c.Obs.StartSpan("client.backlight_set")
			s.level = lvl
			sp.End()
			backlightGauge.Set(float64(lvl))
		}
		if !fresh {
			g++
			continue
		}
		if sceneStart {
			s.ledger.StartScene(rec, s.level)
		}
		framesDecoded.Inc()
		s.lumaSum += f.AvgLuma()
		s.ledger.Frame(frameSeconds, s.level)
		if batModel != nil {
			// The live gauge drains by the modeled draw of this frame;
			// the ladder's battery floor reads it at the next decision.
			state := power.State{Decoding: true, NetworkActive: true, BacklightLevel: s.level}
			c.Ladder.Battery.Drain(batModel.Instant(state) * frameSeconds)
		}

		if c.OnFrame != nil {
			c.OnFrame(res.Frames, f, s.level)
		}
		if req.Adaptive {
			res.RungByFrame = append(res.RungByFrame, uint8(s.curQi))
			s.buf.Deliver(1)
		}
		res.Frames++
		s.emitted++
		g++
	}
	return nil
}

// buildLadder (re)builds the session's quality ladder starting at rung
// start. A broken ladder config degrades to a fixed-rung session on the
// adaptive wire rather than killing playback.
func (c *Client) buildLadder(s *session, track *annotation.Track, start int, degradedTotal *obs.Counter) {
	cfg := *c.Ladder
	cfg.StartRung = start
	if cfg.Battery != nil && cfg.Device == nil {
		cfg.Device = c.Device
	}
	lad, err := adaptive.NewLadder(track, cfg)
	if err != nil {
		lad = nil
		s.degrade("ladder", degradedTotal)
	}
	s.lad = lad
}

// decideRung makes the ladder's one decision at a scene boundary (g is
// the boundary's clip frame index, total the track's frame count) and
// asks the server for the chosen
// rung when it differs from the last request. Decisions start once the
// playout buffer has primed (or is in actual deficit): a stream's own
// startup must not read as congestion.
func (c *Client) decideRung(s *session, w io.Writer, g, total uint32, frameSeconds float64) error {
	lead := s.buf.LeadSeconds()
	if !s.primed && lead >= s.lad.Config().DownLead {
		s.primed = true
	}
	if !s.primed && lead >= 0 {
		return nil
	}
	remaining := 0.0
	if s.expected > g {
		remaining = float64(s.expected-g) * frameSeconds
	} else if total > g {
		remaining = float64(total-g) * frameSeconds
	}
	d := s.lad.Decide(adaptive.Inputs{LeadSeconds: lead, RemainingSeconds: remaining})
	if d == s.reqRung {
		return nil
	}
	if err := WriteQualitySwitch(w, d); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncatedStream, err)
	}
	s.reqRung = d
	return nil
}

// classifyStreamErr folds container/io failures into the typed
// sentinels: truncation for short reads, the original error (which
// wraps container.ErrFormat) for structural damage.
func classifyStreamErr(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %v", ErrTruncatedStream, err)
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("%w: %v", ErrTruncatedStream, err)
	}
	return err
}

// finish seals the accumulated session into the returned result.
func (c *Client) finish(s *session) (*PlayResult, error) {
	res := s.res
	if res.Frames == 0 {
		return nil, fmt.Errorf("stream: empty stream")
	}
	rep := s.ledger.Report()
	res.Ledger = &rep
	res.AvgLevel, res.Switches = rep.AvgLevel, rep.Switches
	res.DecodedAvgLuma = s.lumaSum / float64(res.Frames)
	// The savings fractions integrate the ledger's own traces, so they
	// are bit-identical to what the offline model reports for them.
	model := power.DefaultModel(c.Device)
	res.Trace, res.Reference = s.ledger.Traces()
	res.BacklightSavings = model.BacklightSavings(res.Reference, res.Trace)
	res.TotalSavings = model.Savings(res.Reference, res.Trace)
	if c.Ladder != nil {
		res.FinalRung = s.curQi
		res.MaxLagSeconds = s.buf.MaxLagSeconds()
	}
	rep.EmitMetrics(c.Obs, "client")
	return res, nil
}
