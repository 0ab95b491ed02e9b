// Package histogram implements the 256-bin luminance histograms the paper
// uses both to drive the compensation algorithm (clipping-budget
// computation, Figure 5) and to validate quality objectively (Figures 3–4).
//
// A histogram "represents both the average luminance and dynamic range for
// an image" (paper §4.2); this package exposes exactly those properties plus
// the distance metrics used when comparing camera snapshots of the display.
package histogram

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/pixel"
)

// Bins is the number of luminance levels tracked (8-bit luma).
const Bins = 256

// H is a luminance histogram: H[i] counts pixels with rounded luma i.
type H struct {
	Count [Bins]uint64
	Total uint64
}

// FromFrame builds the luminance histogram of f.
func FromFrame(f *frame.Frame) *H {
	h, _ := Scan(f)
	return h
}

// Scan builds the luminance histogram of f and returns the maximum pixel
// luminance (0..255) from the same pass. The per-pixel luminance is
// computed once and feeds both the bin index and the running maximum, so
// the results are bit-identical to frame.MaxLuma plus a separate
// FromFrame at half the scan cost — which is what the annotation pipeline
// spends per frame after rendering.
func Scan(f *frame.Frame) (h *H, maxLuma float64) {
	h = &H{}
	for _, p := range f.Pix {
		y := p.Luma()
		if y > maxLuma {
			maxLuma = y
		}
		h.Count[pixel.ClampU8(y)]++
	}
	h.Total = uint64(len(f.Pix))
	return h, maxLuma
}

// FromLuma builds a histogram from raw 8-bit luma samples.
func FromLuma(luma []uint8) *H {
	h := &H{}
	for _, y := range luma {
		h.Count[y]++
	}
	h.Total = uint64(len(luma))
	return h
}

// Add merges other into h.
func (h *H) Add(other *H) {
	for i, c := range other.Count {
		h.Count[i] += c
	}
	h.Total += other.Total
}

// Average returns the mean luminance (the paper's "average point").
// An empty histogram averages to zero.
func (h *H) Average() float64 {
	if h.Total == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.Count {
		sum += float64(i) * float64(c)
	}
	return sum / float64(h.Total)
}

// Min returns the lowest occupied luminance bin, or 0 if empty.
func (h *H) Min() int {
	for i, c := range h.Count {
		if c > 0 {
			return i
		}
	}
	return 0
}

// Max returns the highest occupied luminance bin, or 0 if empty.
func (h *H) Max() int {
	for i := Bins - 1; i >= 0; i-- {
		if h.Count[i] > 0 {
			return i
		}
	}
	return 0
}

// DynamicRange returns Max-Min, the paper's dynamic-range property.
func (h *H) DynamicRange() int {
	if h.Total == 0 {
		return 0
	}
	return h.Max() - h.Min()
}

// fracEps absorbs float rounding when converting a pixel fraction to an
// absolute pixel count: products like 0.15*20 evaluate to a hair above
// the exact integer (3.0000000000000004), and a bare truncation would
// then be off by a whole pixel.
const fracEps = 1e-9

// ClipLevel returns the luminance level the scene can be clipped to when a
// fraction budget (0..1) of the brightest pixels is allowed to saturate:
// the smallest level v such that the number of pixels strictly brighter
// than v is at most budget*Total. budget==0 therefore returns Max(),
// i.e. lossless operation. budget>=1 returns Min(), the budget→1 limit
// of the search (for any budget<1 the answer is at least Min, because
// at Min every other pixel is brighter; a darker target would be
// gratuitous).
func (h *H) ClipLevel(budget float64) int {
	if h.Total == 0 {
		return 0
	}
	if budget <= 0 {
		return h.Max()
	}
	if budget >= 1 {
		return h.Min()
	}
	allowed := uint64(budget*float64(h.Total) + fracEps)
	var above uint64
	for v := Bins - 1; v > 0; v-- {
		above += h.Count[v]
		if above > allowed {
			return v
		}
	}
	return 0
}

// ClippedFraction returns the fraction of pixels with luminance strictly
// above level — the pixels that would be lost if the scene were clipped
// there (Figure 5's "clipped (lost) luminance values").
func (h *H) ClippedFraction(level int) float64 {
	if h.Total == 0 {
		return 0
	}
	var above uint64
	for v := level + 1; v < Bins; v++ {
		above += h.Count[v]
	}
	return float64(above) / float64(h.Total)
}

// normalized returns the probability mass function of h.
func (h *H) normalized() [Bins]float64 {
	var p [Bins]float64
	if h.Total == 0 {
		return p
	}
	for i, c := range h.Count {
		p[i] = float64(c) / float64(h.Total)
	}
	return p
}

// Intersection returns the histogram-intersection similarity in 0..1
// (1 = identical distributions).
func Intersection(a, b *H) float64 {
	pa, pb := a.normalized(), b.normalized()
	var s float64
	for i := range pa {
		s += math.Min(pa[i], pb[i])
	}
	return s
}

// EMD returns the 1-D earth mover's distance between the two normalised
// histograms, in luminance levels. For 1-D distributions this is the L1
// distance between CDFs, which is what makes it robust to small global
// brightness shifts — the property the paper exploits when comparing
// camera snapshots.
func EMD(a, b *H) float64 {
	pa, pb := a.normalized(), b.normalized()
	var cdf, s float64
	for i := range pa {
		cdf += pa[i] - pb[i]
		s += math.Abs(cdf)
	}
	return s
}

// MeanShift returns the signed difference in average luminance b-a, the
// "avg brightness" shift the paper reports under Figure 4.
func MeanShift(a, b *H) float64 { return b.Average() - a.Average() }

// String summarises the histogram the way the paper's Figure 3 annotates
// it: average point and dynamic range.
func (h *H) String() string {
	return fmt.Sprintf("hist{n=%d avg=%.1f range=[%d,%d]}",
		h.Total, h.Average(), h.Min(), h.Max())
}
