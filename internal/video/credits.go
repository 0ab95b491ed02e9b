package video

import (
	"math/rand"

	"repro/internal/frame"
	"repro/internal/pixel"
)

// CreditsClip synthesises the one content type the paper reports its
// fixed-percentage clipping heuristic mishandles (§4.3): end credits —
// bright text scrolling over a uniform dark background, where clipping
// "may distort the text if too many pixels are clipped". The text pixels
// are a deterministic function of position, so callers can build an exact
// region-of-interest mask for any frame.
type CreditsClip struct {
	W, H   int
	Rate   int // frames per second
	Frames int
	Seed   int64
	// TextLuma and BackLuma are the normalised luminances of glyph and
	// background pixels.
	TextLuma, BackLuma float64
	// ScrollPerFrame is the upward scroll speed in pixels per frame.
	ScrollPerFrame int
}

// Credits returns a credits roll with defaults matching a movie's end
// titles: near-white text on a near-black background, scrolling one pixel
// per frame.
func Credits(w, h, fps, frames int, seed int64) *CreditsClip {
	return &CreditsClip{
		W: w, H: h, Rate: fps, Frames: frames, Seed: seed,
		TextLuma: 0.94, BackLuma: 0.07, ScrollPerFrame: 1,
	}
}

// Size implements the source interface.
func (c *CreditsClip) Size() (int, int) { return c.W, c.H }

// FPS implements the source interface.
func (c *CreditsClip) FPS() int { return c.Rate }

// TotalFrames implements the source interface.
func (c *CreditsClip) TotalFrames() int { return c.Frames }

// TextAt reports whether pixel (x, y) of frame i is part of a glyph. Text
// is laid out in bands of 2 glyph rows followed by 7 blank rows, scrolling
// upward; within a glyph row, runs of 2–5 lit columns alternate with gaps,
// drawn deterministically per absolute text line. Glyphs cover roughly a
// tenth of the frame, so the paper's 15–20% clipping budgets can (and, the
// paper reports, do) eat into the text.
func (c *CreditsClip) TextAt(i, x, y int) bool {
	// Absolute row in the scrolled text space.
	row := y + i*c.ScrollPerFrame
	const band = 9 // 2 text rows + 7 blank
	if row%band >= 2 {
		return false
	}
	line := row / band
	// Deterministic glyph pattern for this text line.
	rng := rand.New(rand.NewSource(c.Seed*31 + int64(line)))
	margin := c.W / 8
	pos := margin + rng.Intn(4)
	for pos < c.W-margin {
		run := 2 + rng.Intn(4)
		gap := 1 + rng.Intn(3)
		if x >= pos && x < pos+run {
			return true
		}
		if x < pos {
			return false
		}
		pos += run + gap
	}
	return false
}

// Frame renders frame i.
func (c *CreditsClip) Frame(i int) *frame.Frame {
	f := frame.New(c.W, c.H)
	text := pixel.Gray(pixel.ClampU8(c.TextLuma * 255))
	back := pixel.Gray(pixel.ClampU8(c.BackLuma * 255))
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			if c.TextAt(i, x, y) {
				f.Set(x, y, text)
			} else {
				f.Set(x, y, back)
			}
		}
	}
	return f
}
