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
	Trace, Ref     *power.Trace
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
	// Across a resume, every frame index is observed exactly once.
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
	if c.Device == nil {
		return nil, fmt.Errorf("stream: client has no device profile")
	}
	retry := c.Retry.withDefaults()
	s := &session{
		res:     &PlayResult{Trace: &power.Trace{}, Ref: &power.Trace{}},
		level:   display.MaxLevel,
		prev:    -1,
		quality: quality,
		ceilQi:  -1,
		ledger:  power.NewLedger(c.Device),
	}
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
		resumed, err := c.attempt(ctx, s, addr, clip)
		if resumed {
			s.res.Resumes++
			resumesTotal.Inc()
		}
		if err == nil {
			return c.finish(s)
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
	prev     int
	sceneIdx int
	levelSum float64
	lumaSum  float64
	degraded map[string]bool
	// Adaptive-ladder state. curQi is the rung the server is serving
	// (marker driven); ceilQi the originally requested rung (-1 until the
	// first header); reqRung the rung last asked of the server; primed
	// gates ladder decisions until the playout buffer has once filled to
	// the down-switch threshold, so a fresh stream does not read its own
	// startup as congestion. qualities is the track's quality column,
	// kept so a resume can re-request the rung in force.
	curQi     int
	ceilQi    int
	reqRung   int
	primed    bool
	qualities []float64
	lad       *adaptive.Ladder
	buf       *netsched.Buffer
	// ledger is the session's power/QoS accounting, fed frame by frame
	// alongside the power traces and sealed into PlayResult.Ledger.
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
	resumed = req.StartFrame > 0
	if req.Adaptive {
		return resumed, c.consumeAdaptive(ctx, s, conn, req)
	}
	return resumed, c.consume(ctx, s, conn, req)
}

// consume parses the response stream, emitting each clip frame exactly
// once even when the server replays from an earlier I-frame boundary.
func (c *Client) consume(ctx context.Context, s *session, r io.Reader, req Request) error {
	res := s.res
	cr := &countingReader{r: r}
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
	hdr := reader.Header()
	dec, err := codec.NewDecoder(hdr.W, hdr.H)
	if err != nil {
		return err
	}

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

	var cursor *annotation.Cursor
	qi := 0
	if hdr.AnnotationsErr != nil {
		// Corrupt annotation track: play the stream at full backlight
		// rather than dying (§3: annotations must never break playback).
		s.degrade("annotations", degradedTotal)
	}
	if hdr.Annotations != nil {
		res.Annotated = true
		res.Scenes = len(hdr.Annotations.Records)
		res.BytesAnn = hdr.Annotations.Size()
		// Each connection resends the track, so the overhead really
		// crossed the wire again on a resume.
		s.ledger.AddAnnotationBytes(int64(res.BytesAnn))
		qi = hdr.Annotations.QualityIndex(s.quality)
		cursor = hdr.Annotations.NewCursor(qi)
	}
	// Device-specific level table from the server's negotiation, if sent
	// (§4.3: levels "can be computed by either the server/proxy ... or by
	// the client itself").
	var serverLevels [][]int
	if data, ok := hdr.Extra[container.ChunkDeviceLevels]; ok {
		levels, err := annotation.DecodeLevels(data)
		if err != nil {
			s.degrade("device_levels", degradedTotal)
		} else if hdr.Annotations != nil && len(levels) == len(hdr.Annotations.Records) {
			serverLevels = levels
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

	// A resumed connection re-plays the annotation cursor up to the
	// stream's start so scene state (level, serverLevels index) matches
	// what a continuous run would hold at that frame. The replay starts
	// from scene zero because each connection resends the full track.
	s.sceneIdx = 0
	replayLevel := display.MaxLevel
	for g := uint32(0); g < resumeOffset; g++ {
		if cursor == nil {
			break
		}
		target, sceneStart := cursor.Next()
		if sceneStart {
			if serverLevels != nil && s.sceneIdx < len(serverLevels) {
				replayLevel = serverLevels[s.sceneIdx][qi]
			} else {
				replayLevel = c.Device.LevelFor(target)
			}
			s.sceneIdx++
		}
	}
	if resumeOffset > 0 && cursor != nil {
		s.level = replayLevel
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
		sp := c.Obs.StartSpan("client.decode")
		f, err := dec.Decode(ef)
		sp.End()
		if err != nil {
			return err
		}
		if cursor != nil {
			target, sceneStart := cursor.Next()
			if sceneStart {
				sp := c.Obs.StartSpan("client.backlight_set")
				if serverLevels != nil && s.sceneIdx < len(serverLevels) {
					// Server resolved our device's levels during
					// negotiation: a plain table read.
					s.level = serverLevels[s.sceneIdx][qi]
				} else {
					// The client's whole runtime obligation: one
					// multiply + LUT lookup, then set the backlight.
					s.level = c.Device.LevelFor(target)
				}
				s.sceneIdx++
				sp.End()
				backlightGauge.Set(float64(s.level))
				if g >= s.emitted {
					// Replayed boundaries (I-frame rewind on resume)
					// were already entered in the ledger before the
					// disconnect.
					s.ledger.StartScene(s.sceneIdx-1, s.level)
				}
			}
		}
		if g < s.emitted {
			// Replayed frame (decode warms the predictor state after an
			// I-frame rewind); it was already delivered.
			g++
			continue
		}
		framesDecoded.Inc()
		if s.prev >= 0 && s.level != s.prev {
			res.Switches++
		}
		s.prev = s.level
		s.levelSum += float64(s.level)
		s.lumaSum += f.AvgLuma()

		state := power.State{Decoding: true, NetworkActive: true, BacklightLevel: s.level}
		res.Trace.Append(frameSeconds, state)
		refState := state
		refState.BacklightLevel = display.MaxLevel
		res.Ref.Append(frameSeconds, refState)
		s.ledger.Frame(frameSeconds, s.level)

		if c.OnFrame != nil {
			c.OnFrame(res.Frames, f, s.level)
		}
		res.Frames++
		s.emitted++
		g++
	}
	res.BytesStream += cr.n
	s.ledger.AddWireBytes(int64(cr.n))
	c.Obs.Counter("client_bytes_received_total",
		"Bytes received from the stream connection.").Add(uint64(cr.n))
	if s.expected > 0 && s.emitted < s.expected {
		return fmt.Errorf("%w: got %d of %d frames", ErrTruncatedStream, s.emitted, s.expected)
	}
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
	model := power.DefaultModel(c.Device)
	res.AvgLevel = s.levelSum / float64(res.Frames)
	res.DecodedAvgLuma = s.lumaSum / float64(res.Frames)
	res.BacklightSavings = model.BacklightSavings(res.Ref, res.Trace)
	res.TotalSavings = model.Savings(res.Ref, res.Trace)
	if c.Ladder != nil {
		res.FinalRung = s.curQi
		res.MaxLagSeconds = s.buf.MaxLagSeconds()
	}
	rep := s.ledger.Report()
	res.Ledger = &rep
	rep.EmitMetrics(c.Obs, "client")
	return res, nil
}
