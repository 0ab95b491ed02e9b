package netsched

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a manually advanced wall clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBufferLead(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	b := NewBuffer(10) // 0.1s per frame
	b.now = clk.now
	if b.LeadSeconds() != 0 {
		t.Errorf("lead before first delivery = %v, want 0", b.LeadSeconds())
	}
	b.Deliver(20) // 2s of content, clock starts now
	if got := b.LeadSeconds(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("lead = %v, want 2.0", got)
	}
	clk.advance(1500 * time.Millisecond)
	if got := b.LeadSeconds(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("lead after 1.5s playback = %v, want 0.5", got)
	}
	if b.MaxLagSeconds() != 0 {
		t.Errorf("MaxLag = %v while ahead, want 0", b.MaxLagSeconds())
	}
	// Playback overruns delivery: 1s more elapses with no frames.
	clk.advance(1 * time.Second)
	if got := b.LeadSeconds(); math.Abs(got+0.5) > 1e-9 {
		t.Errorf("lead = %v, want -0.5 (stalled)", got)
	}
	if got := b.MaxLagSeconds(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MaxLag = %v, want 0.5", got)
	}
	// Recovery: a burst refills the buffer, but the worst lag sticks.
	b.Deliver(30)
	if got := b.LeadSeconds(); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("lead after refill = %v, want 2.5", got)
	}
	if got := b.MaxLagSeconds(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MaxLag after recovery = %v, want 0.5 (sticky)", got)
	}
}

// TestBufferMaxLagPersistsAcrossClockStep is the regression test for
// the unpersisted live sample: MaxLagSeconds used to return the
// sampled deficit without writing it back to the high-water mark, so
// an observed worst stall could shrink on a later read once the wall
// clock stepped backward (an NTP adjustment — Buffer runs on wall
// time) with no delivery in between to re-sample the deep point.
func TestBufferMaxLagPersistsAcrossClockStep(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBuffer(1) // 1s per frame
	b.now = clk.now
	b.Deliver(1) // 1s of content, clock starts
	clk.advance(10 * time.Second)
	if got := b.MaxLagSeconds(); math.Abs(got-9.0) > 1e-9 {
		t.Fatalf("MaxLag at deep stall = %v, want 9.0", got)
	}
	// The wall clock steps back 7s; the live deficit is now only 2s,
	// but the 9s stall was already observed and must not un-happen.
	clk.advance(-7 * time.Second)
	if got := b.MaxLagSeconds(); math.Abs(got-9.0) > 1e-9 {
		t.Errorf("MaxLag after backward clock step = %v, want 9.0 (sticky)", got)
	}
	// Nor may a recovery delivery reset it.
	b.Deliver(100)
	if got := b.MaxLagSeconds(); math.Abs(got-9.0) > 1e-9 {
		t.Errorf("MaxLag after recovery = %v, want 9.0 (sticky)", got)
	}
}

func TestBufferDegenerate(t *testing.T) {
	var b *Buffer
	b.Deliver(10)
	if b.LeadSeconds() != 0 || b.MaxLagSeconds() != 0 {
		t.Error("nil buffer not zero")
	}
	clamped := NewBuffer(0) // hostile fps clamps to 1
	clk := &fakeClock{t: time.Unix(0, 0)}
	clamped.now = clk.now
	clamped.Deliver(3)
	if got := clamped.LeadSeconds(); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("clamped-fps lead = %v, want 3.0", got)
	}
	clamped.Deliver(0)
	clamped.Deliver(-1)
	if got := clamped.LeadSeconds(); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("non-positive deliveries changed lead: %v", got)
	}
}
