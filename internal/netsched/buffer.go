package netsched

import "time"

// Buffer tracks live playout-buffer health for an adaptive streaming
// session: how far ahead of the playout clock the delivered frames
// reach. It is fed from a real receive loop — each delivered frame
// extends the buffered horizon by one frame time, while the wall clock
// advances playback at real time. The lead (buffered seconds not yet played) is the signal
// the quality ladder steers by: shrinking lead means the link is
// falling behind and the session should walk down a rung before it
// stalls.
type Buffer struct {
	fps       float64
	now       func() time.Time
	start     time.Time // first delivery; zero until then
	delivered int
	maxLag    float64
}

// NewBuffer builds a playout buffer tracker for a stream at the given
// frame rate. Non-positive rates are clamped to 1 fps so a hostile
// header cannot divide by zero.
func NewBuffer(fps float64) *Buffer {
	if fps <= 0 {
		fps = 1
	}
	return &Buffer{fps: fps, now: time.Now}
}

// Deliver records n received frames. The playout clock starts at the
// first delivery.
func (b *Buffer) Deliver(n int) {
	if b == nil || n <= 0 {
		return
	}
	if b.start.IsZero() {
		b.start = b.now()
	}
	// Sample the deficit before crediting this delivery: the stall a
	// real-time player suffered is the gap at the moment frames resumed.
	if lead := b.LeadSeconds(); lead < -b.maxLag {
		b.maxLag = -lead
	}
	b.delivered += n
}

// LeadSeconds returns how many seconds of playback the delivered
// frames cover beyond the playout clock. Positive lead is buffered
// headroom; negative lead means playback has caught up with delivery —
// a stall in a real-time player. Before the first delivery the lead
// is zero.
func (b *Buffer) LeadSeconds() float64 {
	if b == nil || b.start.IsZero() {
		return 0
	}
	content := float64(b.delivered) / b.fps
	elapsed := b.now().Sub(b.start).Seconds()
	return content - elapsed
}

// MaxLagSeconds returns the deepest observed deficit (most negative
// lead) at any delivery, in seconds — the worst stall a real-time
// player would have suffered. Zero if delivery always kept ahead.
func (b *Buffer) MaxLagSeconds() float64 {
	if b == nil {
		return 0
	}
	// The lag may have deepened since the last delivery; sample it and
	// persist the deepened high-water mark. Returning the live sample
	// without persisting let a later read report a *shallower* worst
	// stall once the deficit recovered (or the wall clock stepped
	// backward), so the metric could shrink after it had been observed.
	if lead := b.LeadSeconds(); lead < -b.maxLag {
		b.maxLag = -lead
	}
	return b.maxLag
}
