package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/anncache"
	"repro/internal/annotation"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/dvs"
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/power"
)

// This file is the serving half of the adaptive quality ladder (the
// request's adaptive flag): a session starts at the requested rung, the
// client may ask for a different rung mid-stream with quality-switch
// messages, and the server answers by swapping to the matching
// precomputed variant at the next I-frame, announcing each swap with an in-band control marker
// so the client can follow backlight levels and accounting.

// variantGetter resolves the prepared variant for one quality rung,
// hitting the two-tier artifact cache. Both the server and the proxy
// close over their own tier when building one.
type variantGetter func(ctx context.Context, qi int) (*variant, error)

// variantFor is the shared cache lookup behind variantGetter: encode
// once per (content digest, rung, encoder config), serve forever.
func variantFor(ctx context.Context, t tier, digest string, src core.Source, track *annotation.Track, qi int, cfg EncodeConfig) (*variant, error) {
	vAny, err := t.getOrCompute(ctx,
		anncache.Key{Kind: "variant", Digest: digest, Quality: qi}, encSig(cfg), variantCodec,
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

// rungSwitch records one mid-stream rung change: frame is the global
// index of the first frame served at the new rung.
type rungSwitch struct {
	frame int
	rung  int
}

// ladderMetrics are the quality-ladder observability handles shared by
// server, proxy and client roles.
type ladderMetrics struct {
	up   *obs.Counter
	down *obs.Counter
	rung *obs.Gauge
}

func newLadderMetrics(reg *obs.Registry, role string) ladderMetrics {
	l := obs.L("role", role)
	return ladderMetrics{
		up: reg.Counter("quality_switch_total",
			"Mid-stream quality-ladder rung switches.", l, obs.L("direction", "up")),
		down: reg.Counter("quality_switch_total",
			"Mid-stream quality-ladder rung switches.", l, obs.L("direction", "down")),
		rung: reg.Gauge("ladder_rung",
			"Current quality-ladder rung (0 = best).", l),
	}
}

// record notes a switch from rung old to rung new (up = toward rung 0,
// i.e. better quality).
func (m ladderMetrics) record(old, new int) {
	if new < old {
		m.up.Inc()
	} else {
		m.down.Inc()
	}
	m.rung.Set(float64(new))
}

// sendAdaptive streams an adaptive session: like sendVariant, but
// a reader goroutine watches the connection's client→server half for
// quality-switch messages and the frame loop swaps variants at I-frame
// boundaries, writing a control marker before the first frame of each
// new rung. startQi is both the first rung and the session's quality
// ceiling — the client asked for that much clipping, so the ladder only
// ever degrades from there and recovers back, never past it.
//
// Variants share the encoder config, so every rung has the same frame
// count and the same I-frame positions; the header's FrameCount (which
// counts real frames, not control packets) holds across switches.
func sendAdaptive(ctx context.Context, conn *deadlineConn, src core.Source, track *annotation.Track,
	v *variant, getVariant variantGetter, levelsChunk []byte, from, startQi int,
	reg *obs.Registry, role string, framesSent, bytesSent *obs.Counter) (sent uint64, switches []rungSwitch, err error) {
	sp := obs.StartSpan(ctx, "stream.send_adaptive")
	defer sp.End()
	sp.SetAttrInt("start_rung", int64(startQi))

	maxQi := len(track.Quality) - 1
	var desired atomic.Int64
	desired.Store(int64(startQi))
	// The handshake read deadline is long spent by now; quality switches
	// may arrive at any point in the session (or never), so reads on the
	// control half must not time out. Writes keep their own deadline.
	raw := conn.Conn
	raw.SetReadDeadline(time.Time{})
	go func() {
		for {
			rung, err := ReadQualitySwitch(raw)
			if err != nil {
				return
			}
			// Clamp to the ladder: the requested rung is the session's
			// ceiling, the worst rung its floor.
			if rung < startQi {
				rung = startQi
			}
			if rung > maxQi {
				rung = maxQi
			}
			desired.Store(int64(rung))
		}
	}()

	lm := newLadderMetrics(reg, role)
	cw0 := &countingWriter{w: conn}
	// Like sendVariant, the counting wrapper is the single source of
	// truth for bytes on the wire: it is read exactly once after the
	// body finishes, feeding both the return value and the bytesSent
	// counter, so mid-stream failures report what actually went out.
	err = func() error {
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
		cw, err := container.NewWriter(cw0, container.Header{
			W: width, H: height, FPS: src.FPS(),
			FrameCount:  len(v.frames) - from,
			Annotations: track,
			Extra:       extra,
		})
		if err != nil {
			return err
		}
		// The stream opens by announcing the rung actually granted. The
		// request's quality budget crossed the wire quantized, so the
		// client's own index arithmetic over the decoded track can land one
		// rung off; the announcement — like every later switch marker — is
		// authoritative.
		if err := cw.WriteFrame(qualitySwitchMarker(startQi)); err != nil {
			return err
		}
		lm.rung.Set(float64(startQi))
		cur := startQi
		n := len(v.frames)
		i := from
		for i < n {
			// Serve the current rung up to the next I-frame boundary as
			// one zero-copy wire run. Rung changes land on I-frames
			// only: a P-frame from a different variant would reference
			// a reconstruction the client does not have (the session's
			// first frame is exempt — it already is the negotiated
			// rung, announced above).
			j := i + 1
			for j < n && v.frames[j].Type != codec.IFrame {
				j++
			}
			if err := sendWire(ctx, cw, v, i, j, framesSent); err != nil {
				return err
			}
			i = j
			if i >= n {
				break
			}
			if d := int(desired.Load()); d != cur {
				if nv, verr := getVariant(ctx, d); verr == nil && len(nv.frames) == n {
					if err := cw.WriteFrame(qualitySwitchMarker(d)); err != nil {
						return err
					}
					lm.record(cur, d)
					v, cur = nv, d
					switches = append(switches, rungSwitch{frame: i, rung: d})
				}
				// On a variant miss keep serving the current rung; the
				// desire persists and the next I-frame retries.
			}
		}
		sp.SetAttrInt("final_rung", int64(cur))
		return nil
	}()
	bytesSent.Add(cw0.n)
	sp.SetAttrInt("bytes", int64(cw0.n))
	sp.SetAttrInt("quality_switches", int64(len(switches)))
	return cw0.n, switches, err
}

// consumeAdaptive is the client half of an adaptive session:
// consume's decode-and-account loop, plus the ladder control loop — a
// playout-buffer tracker fed by deliveries, a decision at every scene
// boundary sent upstream as a quality-switch message, and the server's
// in-band markers moving the rung (and with it the backlight level
// column) mid-stream. The server is authoritative: the client's rung
// state follows markers, not its own requests.
func (c *Client) consumeAdaptive(ctx context.Context, s *session, rw io.ReadWriter, req Request) error {
	res := s.res
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
	hdr := reader.Header()
	dec, err := codec.NewDecoder(hdr.W, hdr.H)
	if err != nil {
		return err
	}

	degradedTotal := c.Obs.Counter("stream_client_degraded_total",
		"Side channels dropped in favour of degraded playback.")

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

	var records []annotation.Record
	qi := 0
	if hdr.AnnotationsErr != nil {
		s.degrade("annotations", degradedTotal)
	}
	if hdr.Annotations != nil {
		res.Annotated = true
		res.Scenes = len(hdr.Annotations.Records)
		res.BytesAnn = hdr.Annotations.Size()
		s.ledger.AddAnnotationBytes(int64(res.BytesAnn))
		records = hdr.Annotations.Records
		s.qualities = hdr.Annotations.Quality
		// This connection starts at the rung the request named — on a
		// resume that is the rung in force when the last one died.
		qi = hdr.Annotations.QualityIndex(req.Quality)
	}
	s.curQi = qi
	s.reqRung = qi
	s.ledger.SetRung(qi)
	ceilGuessed := false
	if s.ceilQi < 0 {
		s.ceilQi = qi
		ceilGuessed = true
	}
	buildLadder := func(start int) {
		cfg := *c.Ladder
		cfg.StartRung = start
		if cfg.Battery != nil && cfg.Device == nil {
			cfg.Device = c.Device
		}
		lad, err := adaptive.NewLadder(hdr.Annotations, cfg)
		if err != nil {
			// A broken ladder config degrades to a fixed-rung session on
			// the adaptive wire rather than killing playback.
			s.lad = nil
			s.degrade("ladder", degradedTotal)
		} else {
			s.lad = lad
		}
	}
	if s.lad == nil && hdr.Annotations != nil && c.Ladder != nil && !s.degraded["ladder"] {
		buildLadder(s.ceilQi)
	}
	var serverLevels [][]int
	if data, ok := hdr.Extra[container.ChunkDeviceLevels]; ok {
		levels, err := annotation.DecodeLevels(data)
		if err != nil {
			s.degrade("device_levels", degradedTotal)
		} else if hdr.Annotations != nil && len(levels) == len(records) {
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
	lm := newLadderMetrics(c.Obs, "client")

	frameSeconds := 1 / float64(hdr.FPS)
	if s.buf == nil {
		s.buf = netsched.NewBuffer(float64(hdr.FPS))
	}
	var batModel *power.Model
	if c.Ladder != nil && c.Ladder.Battery != nil {
		batModel = power.DefaultModel(c.Device)
	}

	// The per-frame backlight level is a pure function of (scene, rung):
	// the server's negotiated table when present, the device LUT
	// otherwise. Recomputing it each frame makes mid-scene rung switches
	// land on exactly the frame the new rung's stream starts at.
	levelFor := func(si, rung int) int {
		if si >= len(records) {
			return display.MaxLevel
		}
		if serverLevels != nil && si < len(serverLevels) && rung < len(serverLevels[si]) {
			return serverLevels[si][rung]
		}
		rec := records[si]
		if rung >= len(rec.Targets) {
			return display.MaxLevel
		}
		return c.Device.LevelFor(float64(rec.Targets[rung]) / 255)
	}

	// Scene walk state: sIdx/inScene track which record the next frame
	// falls in. A resumed connection replays the walk up to the stream's
	// start so scene indexes match a continuous run.
	s.sceneIdx = 0
	sIdx, inScene := 0, 0
	for g := uint32(0); g < resumeOffset && sIdx < len(records); g++ {
		for sIdx < len(records) && records[sIdx].Frames == 0 {
			sIdx++
		}
		if sIdx >= len(records) {
			break
		}
		if inScene == 0 {
			s.sceneIdx = sIdx + 1
		}
		inScene++
		if inScene >= records[sIdx].Frames {
			sIdx++
			inScene = 0
		}
	}

	total := uint32(0)
	if hdr.Annotations != nil {
		total = uint32(hdr.Annotations.TotalFrames())
	}

	announced := false
	g := resumeOffset
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
		if rung, isCtl := parseControlFrame(ef); isCtl {
			// In-band control packet: a quality-switch marker moves the
			// session to a new rung starting at the next frame; unknown
			// control kinds are skipped.
			if rung < 0 || rung >= len(s.qualities) {
				continue
			}
			if !announced {
				// An adaptive stream opens with one marker announcing the rung
				// the server actually granted. The request's budget
				// crossed the wire quantized, so the QualityIndex guess
				// above can be one rung off — the announcement corrects
				// the starting rung (and, on the session's first
				// connection, the ladder ceiling) without counting as a
				// switch.
				announced = true
				if rung != s.curQi {
					s.curQi = rung
					s.reqRung = rung
					s.ledger.SetRung(rung)
					if ceilGuessed && s.lad != nil {
						s.ceilQi = rung
						buildLadder(rung)
					}
				}
				continue
			}
			if rung != s.curQi {
				lm.record(s.curQi, rung)
				s.curQi = rung
				s.ledger.QualitySwitch(rung)
				res.QualitySwitches++
			}
			continue
		}
		sp := c.Obs.StartSpan("client.decode")
		f, err := dec.Decode(ef)
		sp.End()
		if err != nil {
			return err
		}
		fresh := g >= s.emitted
		if hdr.Annotations != nil {
			for sIdx < len(records) && records[sIdx].Frames == 0 {
				sIdx++
			}
			sceneStart := inScene == 0 && sIdx < len(records)
			if sceneStart {
				s.sceneIdx = sIdx + 1
				if fresh && s.lad != nil {
					// One ladder decision per scene boundary. Decisions
					// start once the buffer has primed (or is in actual
					// deficit): a stream's own startup must not read as
					// congestion.
					lead := s.buf.LeadSeconds()
					if !s.primed && lead >= s.lad.Config().DownLead {
						s.primed = true
					}
					if s.primed || lead < 0 {
						remaining := 0.0
						if exp := s.expected; exp > g {
							remaining = float64(exp-g) * frameSeconds
						} else if total > g {
							remaining = float64(total-g) * frameSeconds
						}
						d := s.lad.Decide(adaptive.Inputs{
							LeadSeconds:      lead,
							RemainingSeconds: remaining,
						})
						if d != s.reqRung {
							if err := WriteQualitySwitch(rw, d); err != nil {
								return fmt.Errorf("%w: %v", ErrTruncatedStream, err)
							}
							s.reqRung = d
						}
					}
				}
			}
			if lvl := levelFor(sIdx, s.curQi); lvl != s.level {
				spb := c.Obs.StartSpan("client.backlight_set")
				s.level = lvl
				spb.End()
				backlightGauge.Set(float64(s.level))
			}
			if sceneStart && fresh {
				s.ledger.StartScene(sIdx, s.level)
			}
			inScene++
			if sIdx < len(records) && inScene >= records[sIdx].Frames {
				sIdx++
				inScene = 0
			}
		}
		if !fresh {
			// Replayed frame (I-frame rewind on resume): decode warms the
			// predictor, but it was already delivered.
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
		if batModel != nil {
			// The live gauge drains by the modeled draw of this frame;
			// the ladder's battery floor reads it at the next decision.
			c.Ladder.Battery.Drain(batModel.Instant(state) * frameSeconds)
		}

		if c.OnFrame != nil {
			c.OnFrame(res.Frames, f, s.level)
		}
		res.RungByFrame = append(res.RungByFrame, uint8(s.curQi))
		res.Frames++
		s.emitted++
		g++
		s.buf.Deliver(1)
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
