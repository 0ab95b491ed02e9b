package stream

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/obs"
)

// This file is the serving half of the adaptive quality ladder (the
// request's adaptive flag): a session starts at the requested rung, the
// client may ask for a different rung mid-stream with quality-switch
// messages, and the server answers by swapping to the matching
// precomputed variant at the next I-frame, announcing each swap with an in-band control marker
// so the client can follow backlight levels and accounting.

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

// ladder is the server side of one adaptive session, handed to send.
// ctrl is the connection's client→server half, where quality-switch
// messages arrive. rung is both the granted first rung and the session's
// quality ceiling — the client asked for that much clipping, so the
// ladder only ever degrades from there and recovers back, never past it.
//
// Variants share the encoder config, so every rung has the same frame
// count and the same I-frame positions; the header's FrameCount (which
// counts real frames, not control packets) holds across switches.
type ladder struct {
	ctrl    net.Conn
	rung    int
	variant func(ctx context.Context, qi int) (*variant, error)
	metrics ladderMetrics

	desired  atomic.Int64
	cur      int
	switches []rungSwitch // mid-stream rung changes, in frame order
}

// open starts the control reader and writes the opening marker that
// announces the granted rung. The client derives the same rung from its
// request (Track.QualityIndex), but the announcement — like every later switch
// marker — is authoritative.
func (l *ladder) open(cw *container.Writer, maxRung int) error {
	l.cur = l.rung
	l.desired.Store(int64(l.rung))
	// The handshake read deadline is long spent by now; quality switches
	// may arrive at any point in the session (or never), so reads on the
	// control half must not time out. Writes keep their own deadline.
	l.ctrl.SetReadDeadline(time.Time{})
	go func() {
		for {
			rung, err := ReadQualitySwitch(l.ctrl)
			if err != nil {
				return
			}
			// The granted rung is the ceiling, the worst rung the floor.
			l.desired.Store(int64(min(max(rung, l.rung), maxRung)))
		}
	}()
	if err := cw.WriteFrame(qualitySwitchMarker(l.rung)); err != nil {
		return err
	}
	l.metrics.rung.Set(float64(l.rung))
	return nil
}

// swap is offered I-frame i of the current variant v: when the client
// wants another rung it writes the switch marker and returns that rung's
// variant. On a variant miss it keeps v; the desire persists and the
// next I-frame retries.
func (l *ladder) swap(ctx context.Context, cw *container.Writer, v *variant, i int) (*variant, error) {
	d := int(l.desired.Load())
	if d == l.cur {
		return v, nil
	}
	nv, err := l.variant(ctx, d)
	if err != nil || len(nv.frames) != len(v.frames) {
		return v, nil
	}
	if err := cw.WriteFrame(qualitySwitchMarker(d)); err != nil {
		return nil, err
	}
	l.metrics.record(l.cur, d)
	l.cur = d
	l.switches = append(l.switches, rungSwitch{frame: i, rung: d})
	return nv, nil
}
