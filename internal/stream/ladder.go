package stream

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/anncache"
	"repro/internal/annotation"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
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
		cw, err := newVariantWriter(cw0, src, track, v, levelsChunk, from)
		if err != nil {
			return err
		}
		// The stream opens by announcing the rung actually granted. The
		// client derives the same rung from its request (rungFor), but the
		// announcement — like every later switch marker — is
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
