package main

import (
	"context"
	"time"

	"repro/internal/adaptive"
	"repro/internal/compensate"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/stream"
)

// sessionRec is what the benchmark keeps of one played session.
type sessionRec struct {
	spec
	err      error
	start    time.Time
	ttff     time.Duration // PlayContext call to OnFrame(0)
	dur      time.Duration // PlayContext call to its return
	frames   int
	digest   uint64 // frameDigest of every delivered frame, folded in order
	perFrame []uint64
	// rung is the rung every frame was served at; rungByFrame replaces
	// it for an adaptive session whose rung changed mid-stream.
	rung        int
	rungByFrame []uint8
	switches    int
	// saved and baseline are the client ledger's modeled joules saved
	// and joules at full backlight.
	saved, baseline float64
	wrong           bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// frameDigest is FNV-1a over a decoded frame's RGB bytes.
func frameDigest(f *frame.Frame) uint64 {
	h := uint64(fnvOffset)
	for _, p := range f.Pix {
		h = (h ^ uint64(p.R)) * fnvPrime
		h = (h ^ uint64(p.G)) * fnvPrime
		h = (h ^ uint64(p.B)) * fnvPrime
	}
	return h
}

// fold adds one frame digest to a session digest.
func fold(h, d uint64) uint64 { return (h ^ d) * fnvPrime }

// play runs one playback session of s against addr. With keepFrames the
// per-frame digests are kept (reference plays); otherwise only their
// fold is. ses, when non-nil, traces the session.
func play(ctx context.Context, addr string, s spec, ses *sessionTrace, keepFrames bool) (*sessionRec, error) {
	rec := &sessionRec{spec: s, digest: fnvOffset, rung: s.rung}
	c := &stream.Client{
		Device:      display.ByName(s.device),
		Retry:       stream.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		ReadTimeout: 10 * time.Second,
	}
	if s.adaptive {
		c.Ladder = &adaptive.LadderConfig{}
	}
	var first time.Time
	c.OnFrame = func(i int, f *frame.Frame, _ int) {
		if i == 0 {
			first = time.Now()
			rec.digest, rec.frames, rec.perFrame = fnvOffset, 0, rec.perFrame[:0]
		}
		d := frameDigest(f)
		rec.digest = fold(rec.digest, d)
		rec.frames++
		if keepFrames {
			rec.perFrame = append(rec.perFrame, d)
		}
	}
	if ses != nil {
		c.Dial = ses.dial
	}
	rec.start = time.Now()
	res, err := c.PlayContext(ctx, addr, s.clip, compensate.QualityLevels[s.rung]+0.025)
	end := time.Now()
	rec.dur = end.Sub(rec.start)
	if ses != nil {
		ses.end(rec.start, first, end)
	}
	if err != nil {
		rec.err = err
		return rec, err
	}
	rec.ttff = first.Sub(rec.start)
	rec.switches = res.QualitySwitches
	if led := res.Ledger; led != nil {
		rec.saved, rec.baseline = led.SavedJoules, led.BaselineJoules
	}
	if n := len(res.RungByFrame); n > 0 {
		rec.rung = int(res.RungByFrame[0])
		for _, r := range res.RungByFrame {
			if int(r) != rec.rung {
				rec.rungByFrame = append([]uint8(nil), res.RungByFrame...)
				break
			}
		}
	}
	return rec, nil
}
