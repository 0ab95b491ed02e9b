package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/video"
)

// fps is the frame rate of every generated clip.
const fps = 8

// regime is one luminance regime a generated scene is drawn from. The
// paper's savings depend on how dark a scene is and how few pixels sit
// near its maximum, so every clip mixes dark, mid and bright scenes.
// Adjacent regimes differ in maximum luminance by more than the scene
// detector's 10% threshold, so every generated cut is detectable.
type regime struct {
	base, spread, max, highlight float64
}

var regimes = [3]regime{
	{base: 0.16, spread: 0.10, max: 0.60, highlight: 0.01}, // dark
	{base: 0.35, spread: 0.12, max: 0.78, highlight: 0.02}, // mid
	{base: 0.60, spread: 0.15, max: 0.97, highlight: 0.04}, // bright
}

// strata is how many clips share one draw of lengths and scene counts.
const strata = 6

// catalog is a seeded set of synthetic clips, in generation order.
type catalog struct {
	names []string
	srcs  map[string]core.Source
	clips map[string]*video.Clip
}

// genCatalog draws n clips of w×h pixels with minF..maxF frames and 3–5
// scenes each. The seed changes every clip's content, but not the work
// a catalog makes or the savings it allows, so runs with different
// seeds measure the same thing:
//   - lengths and scene counts are stratified: every run of strata
//     consecutive clips has one clip at the middle of each sixth of
//     the length range and each scene count twice, in seeded order, so
//     a short prefix of a catalog (what a timed phase consumes) does
//     the same work per clip whatever the seed;
//   - scenes cycle through the dark, mid and bright regimes from a
//     seeded start, and each regime gets a third of every clip's
//     frames;
//   - levels, motion and colour vary little around each regime's; hue,
//     texture phase and highlight placement come from the seed.
//
// Clips shorter than 30 frames get 3 scenes, so no scene is shorter
// than the detector's half-second minimum interval. keep, when set,
// rejects clips; a rejected clip is drawn again with the same length
// and scene count.
func genCatalog(seed int64, prefix string, n, w, h, minF, maxF int, keep func(core.Source) bool) (*catalog, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &catalog{srcs: map[string]core.Source{}, clips: map[string]*video.Clip{}}
	span := maxF - minF + 1
	var lenPerm, scenePerm []int
	for k := 0; k < n; k++ {
		if k%strata == 0 {
			lenPerm, scenePerm = rng.Perm(strata), rng.Perm(strata)
		}
		frames := minF + (2*lenPerm[k%strata]+1)*span/(2*strata)
		scenes := 3
		if frames >= 30 {
			scenes += scenePerm[k%strata] % 3
		}
		name := fmt.Sprintf("%s-%04d", prefix, k)
		for {
			first := rng.Intn(len(regimes))
			specs := make([]video.SceneSpec, scenes)
			for i, l := range sceneLengths(frames, scenes) {
				g := regimes[(first+i)%len(regimes)]
				specs[i] = video.SceneSpec{
					Frames:        l,
					BaseLuma:      g.base + (rng.Float64()-0.5)*0.02,
					LumaSpread:    g.spread,
					MaxLuma:       g.max + (rng.Float64()-0.5)*0.01,
					HighlightFrac: g.highlight,
					Chroma:        0.4 + 0.1*rng.Float64(),
					Motion:        0.9 + 0.2*rng.Float64(),
					Hue:           rng.Float64(),
				}
			}
			clip, err := video.New(name, w, h, fps, rng.Int63(), specs)
			if err != nil {
				return nil, err
			}
			src := core.ClipSource{Clip: clip}
			if keep != nil && !keep(src) {
				continue
			}
			c.names = append(c.names, name)
			c.clips[name] = clip
			c.srcs[name] = src
			break
		}
	}
	return c, nil
}

// clone returns the same clips as fresh objects, so each set-up renders
// from cold clip state.
func (c *catalog) clone() *catalog {
	out := &catalog{names: c.names, srcs: map[string]core.Source{}, clips: map[string]*video.Clip{}}
	for _, name := range c.names {
		old := c.clips[name]
		clip := video.MustNew(old.Name, old.W, old.H, old.FPS, old.Seed, old.Scenes)
		out.clips[name] = clip
		out.srcs[name] = core.ClipSource{Clip: clip}
	}
	return out
}

// sceneLengths splits frames into n scenes whose regimes cycle through
// the three in order: each regime gets a third of the frames, shared
// evenly by its scenes.
func sceneLengths(frames, n int) []int {
	out := make([]int, n)
	for r := range regimes {
		share := frames / len(regimes)
		if r < frames%len(regimes) {
			share++
		}
		var idx []int
		for i := r; i < n; i += len(regimes) {
			idx = append(idx, i)
		}
		for j, i := range idx {
			out[i] = share / len(idx)
			if j < share%len(idx) {
				out[i]++
			}
		}
	}
	return out
}
