// Package video provides the video-content substrate for the reproduction.
//
// The paper evaluates on ten movie previews and short clips downloaded from
// apple.com trailers ("these clips vary in length between 30 seconds and 3
// minutes and have scenes ranging from slow to fast motion", §5). Those
// MPEG files are not redistributable and decoding them would need an
// ffmpeg binding, so this package synthesises clips with the same
// *luminance structure*: sequences of scenes, most of them dark with
// sparse bright highlights, some with uniformly bright backgrounds
// (the paper singles out hunter_subres and ice_age as bright). The
// backlight-scaling technique consumes only per-frame luminance
// statistics, so matching those statistics preserves the experiment.
//
// Generation is fully deterministic: frame i of a clip is a pure function
// of the clip spec and i, so tests, benches and the streaming pipeline all
// see identical content without storing any frames.
package video

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/frame"
	"repro/internal/pixel"
)

// SceneSpec describes the luminance structure of one scene.
type SceneSpec struct {
	// Frames is the scene length in frames.
	Frames int
	// BaseLuma is the dominant background luminance (0..1).
	BaseLuma float64
	// LumaSpread is the background luminance range around BaseLuma.
	LumaSpread float64
	// MaxLuma is the luminance of the brightest features (0..1). The
	// generator guarantees a sprinkling of pixels at this level so the
	// frame maximum is stable across the scene.
	MaxLuma float64
	// HighlightFrac is the fraction of pixels at or near MaxLuma. Small
	// values model the "highlights concentrated in a few points or
	// spots" case that backlight scaling exploits; large values model
	// bright scenes where clipping buys little.
	HighlightFrac float64
	// Chroma is the colourfulness of the scene (0 = grayscale, 1 = vivid).
	Chroma float64
	// Motion is the per-frame drift of the background pattern in pixels;
	// it determines how well inter-frame coding compresses the scene.
	Motion float64
	// Flicker is the amplitude of frame-to-frame luminance jitter within
	// the scene (kept below the scene-change threshold by construction
	// in library clips).
	Flicker float64
	// Hue selects the scene's colour cast in [0,1).
	Hue float64
}

// Clip is a deterministic synthetic video clip.
type Clip struct {
	Name   string
	W, H   int
	FPS    int
	Scenes []SceneSpec
	Seed   int64

	starts []int // cumulative scene start frames
	total  int
}

// hlRngs pools the highlight generators. Reseeding a pooled *rand.Rand
// reproduces rand.New(rand.NewSource(seed)) exactly, without allocating
// a fresh source state on every frame.
var hlRngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// New assembles a clip and validates its scene list.
func New(name string, w, h, fps int, seed int64, scenes []SceneSpec) (*Clip, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("video: clip %q: invalid dimensions %dx%d", name, w, h)
	}
	if fps <= 0 {
		return nil, fmt.Errorf("video: clip %q: invalid fps %d", name, fps)
	}
	if len(scenes) == 0 {
		return nil, fmt.Errorf("video: clip %q: no scenes", name)
	}
	c := &Clip{Name: name, W: w, H: h, FPS: fps, Scenes: scenes, Seed: seed}
	c.starts = make([]int, len(scenes))
	for i, s := range scenes {
		if s.Frames <= 0 {
			return nil, fmt.Errorf("video: clip %q: scene %d has %d frames", name, i, s.Frames)
		}
		if s.MaxLuma < s.BaseLuma {
			return nil, fmt.Errorf("video: clip %q: scene %d MaxLuma %v below BaseLuma %v",
				name, i, s.MaxLuma, s.BaseLuma)
		}
		c.starts[i] = c.total
		c.total += s.Frames
	}
	return c, nil
}

// MustNew is New for static clip definitions that cannot fail.
func MustNew(name string, w, h, fps int, seed int64, scenes []SceneSpec) *Clip {
	c, err := New(name, w, h, fps, seed, scenes)
	if err != nil {
		panic(err)
	}
	return c
}

// TotalFrames returns the clip length in frames.
func (c *Clip) TotalFrames() int { return c.total }

// Duration returns the clip length in seconds.
func (c *Clip) Duration() float64 { return float64(c.total) / float64(c.FPS) }

// SceneIndexAt returns the index of the scene containing frame i, and the
// offset of i within it. Ground truth for scene-detection tests.
func (c *Clip) SceneIndexAt(i int) (scene, offset int) {
	if i < 0 || i >= c.total {
		panic(fmt.Sprintf("video: frame %d out of range [0,%d)", i, c.total))
	}
	lo, hi := 0, len(c.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.starts[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, i - c.starts[lo]
}

// SceneStart returns the first frame index of scene s.
func (c *Clip) SceneStart(s int) int { return c.starts[s] }

// Frame renders frame i of the clip. Rendering is deterministic: the same
// (clip, i) always produces the identical frame.
//
// The implementation hoists every x-only and y-only term of the background
// pattern out of the pixel loop and serves the chroma-saturated luminance
// range from a per-frame lookup table. Each hoisted value is produced by
// the same float64 operations in the same order as the original per-pixel
// expression, so the rendered bytes are bit-identical to the naive
// triple-nested form (pinned by the pipeline golden tests).
func (c *Clip) Frame(i int) *frame.Frame {
	si, off := c.SceneIndexAt(i)
	s := c.Scenes[si]
	f := frame.New(c.W, c.H)

	// Scene-local deterministic generators.
	sceneSeed := c.Seed*1000003 + int64(si)*7919

	flicker := 0.0
	if s.Flicker > 0 {
		fRng := rand.New(rand.NewSource(sceneSeed + 31*int64(off)))
		flicker = (fRng.Float64()*2 - 1) * s.Flicker
	}

	// Smooth drifting background: two low-frequency sinusoid products
	// give a cheap, codec-friendly pattern with controllable motion.
	t := float64(off) * s.Motion
	phaseX := float64(sceneSeed%97) / 97 * 2 * math.Pi
	phaseY := float64(sceneSeed%89) / 89 * 2 * math.Pi
	fw, fh := float64(c.W), float64(c.H)

	cb, cr := chromaFor(s.Hue, s.Chroma)

	// Column terms: u and 0.5 + 0.25*sin(2u+phaseX) depend only on x;
	// row terms: v and 0.25*cos(3v+phaseY) depend only on y. Only
	// sin(u+v) remains per pixel (expanding it algebraically would not
	// be bit-identical, so it stays).
	us := make([]float64, c.W)
	ax := make([]float64, c.W)
	for x := 0; x < c.W; x++ {
		u := (float64(x) + t) / fw * 2 * math.Pi
		us[x] = u
		ax[x] = 0.5 + 0.25*math.Sin(2*u+phaseX)
	}
	vs := make([]float64, c.H)
	by := make([]float64, c.H)
	for y := 0; y < c.H; y++ {
		v := (float64(y) + 0.6*t) / fh * 2 * math.Pi
		vs[y] = v
		by[y] = 0.25 * math.Cos(3*v+phaseY)
	}

	// Chroma-saturated fast path: for unclamped luma y255 in [80,175],
	// chromaScale caps at exactly 48 (fl(80*0.6) == 48 and rounding is
	// monotone), so Cb/Cr — and therefore the whole pixel — depend only
	// on the quantized luma byte. Memoise those pixels per frame; lumas
	// outside the cap fall back to the full conversion.
	cbSat := pixel.ClampU8(128 + cb*48)
	crSat := pixel.ClampU8(128 + cr*48)
	var lut [256]pixel.RGB
	var lutOK [256]bool

	for y := 0; y < c.H; y++ {
		row := f.Pix[y*c.W : (y+1)*c.W]
		v, b := vs[y], by[y]
		for x := range row {
			pattern := ax[x] + b*math.Sin(us[x]+v)
			luma := s.BaseLuma + (pattern-0.5)*s.LumaSpread + flicker
			y255 := pixel.Clamp01(luma) * 255
			if y255 >= 80 && y255 <= 175 {
				yi := pixel.ClampU8(y255)
				if !lutOK[yi] {
					lut[yi] = pixel.ToRGB(pixel.YCbCr{Y: yi, Cb: cbSat, Cr: crSat})
					lutOK[yi] = true
				}
				row[x] = lut[yi]
			} else {
				row[x] = lumaToRGB(luma, cb, cr)
			}
		}
	}

	// Sparse highlights at MaxLuma, then four pixels pinned exactly at
	// MaxLuma (corner-adjacent spread pattern) so max-luminance scene
	// statistics are exact. One RNG seeded per 4-frame group draws them
	// all, so the layout changes slowly, modelling moving specular points.
	rng := hlRngs.Get().(*rand.Rand)
	defer hlRngs.Put(rng)
	rng.Seed(sceneSeed + int64(off/4))
	n := int(s.HighlightFrac * float64(c.W*c.H))
	if n < 4 {
		n = 4
	}
	for k := 0; k < n; k++ {
		x := rng.Intn(c.W)
		y := rng.Intn(c.H)
		// Highlights near but not all exactly at the peak: a small
		// deterministic spread populates the top of the histogram.
		lum := s.MaxLuma - rng.Float64()*0.04*(s.MaxLuma-s.BaseLuma)
		f.Set(x, y, lumaToRGB(lum+flicker, cb/2, cr/2))
	}
	pin := lumaToRGB(s.MaxLuma, 0, 0)
	for k := 0; k < 4; k++ {
		x := rng.Intn(c.W-2) + 1
		y := rng.Intn(c.H-2) + 1
		f.Set(x, y, pin)
	}
	return f
}

// lumaToRGB builds an RGB pixel with the requested normalised luminance
// and chroma offsets, going through YCbCr so the luminance is exact up to
// clamping.
func lumaToRGB(luma, cb, cr float64) pixel.RGB {
	y := pixel.Clamp01(luma) * 255
	return pixel.ToRGB(pixel.YCbCr{
		Y:  pixel.ClampU8(y),
		Cb: pixel.ClampU8(128 + cb*chromaScale(y)),
		Cr: pixel.ClampU8(128 + cr*chromaScale(y)),
	})
}

// chromaScale limits chroma near the luma extremes so the YCbCr→RGB
// conversion does not clip channels (which would perturb luminance).
func chromaScale(y float64) float64 {
	head := math.Min(y, 255-y)
	return math.Min(48, head*0.6)
}

// chromaFor converts a hue angle and saturation into Cb/Cr offsets.
func chromaFor(hue, chroma float64) (cb, cr float64) {
	a := hue * 2 * math.Pi
	return chroma * math.Cos(a), chroma * math.Sin(a)
}
