package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/annotation"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/scene"
)

// AnnotateOptions configures the offline annotation pipeline.
type AnnotateOptions struct {
	// Workers bounds the worker pool that computes per-frame luminance
	// statistics and the per-quality fan-out of track construction.
	// Values <= 1 select the sequential path. Callers wanting a sensible
	// parallel default should pass runtime.GOMAXPROCS(0).
	Workers int
}

// AnnotatePipeline is the staged, concurrent form of Annotate. Per-frame
// statistics (histogram + max luma) are embarrassingly parallel, so a
// bounded pool of opt.Workers goroutines computes them while a reorder
// buffer feeds the inherently sequential scene detector in frame order —
// detection overlaps decode instead of waiting for it. Track construction
// then fans out per quality level. Output is byte-identical to the
// sequential path for any worker count: every stage computes the same
// deterministic function, only the schedule changes.
func AnnotatePipeline(ctx context.Context, src Source, cfg scene.Config, quality []float64, opt AnnotateOptions) (*annotation.Track, []scene.Scene, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	n := src.TotalFrames()
	if n == 0 {
		return nil, nil, fmt.Errorf("core: empty source")
	}
	workers := opt.Workers
	if workers > n {
		workers = n
	}

	var stats []scene.FrameStats
	var scenes []scene.Scene
	if workers <= 1 {
		sp := obs.StartSpan(ctx, "annotate.luma_stats")
		stats = make([]scene.FrameStats, 0, n)
		for i := 0; i < n; i++ {
			stats = append(stats, scene.StatsOf(src.Frame(i)))
		}
		sp.End()

		scenes = detectScenes(ctx, cfg, stats)
	} else {
		// The two stages overlap, so both spans cover the fused region;
		// each still records exactly once per run, like the sequential
		// path, which keeps stage-latency dashboards comparable.
		spStats := obs.StartSpan(ctx, "annotate.luma_stats")
		spScene := obs.StartSpan(ctx, "annotate.scene_detect")
		stats = make([]scene.FrameStats, n)
		idx := make(chan int)
		completed := make(chan int, workers*2)
		go func() {
			defer close(idx)
			for i := 0; i < n; i++ {
				select {
				case idx <- i:
				case <-ctx.Done():
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					stats[i] = scene.StatsOf(src.Frame(i))
					completed <- i
				}
			}()
		}
		go func() {
			wg.Wait()
			close(completed)
		}()

		// Reorder buffer: frames complete out of order, the detector
		// must see them in order.
		det := scene.NewDetector(cfg)
		ready := make([]bool, n)
		next := 0
		for i := range completed {
			ready[i] = true
			for next < n && ready[next] {
				det.Feed(stats[next])
				next++
			}
		}
		scenes = det.Finish()
		spScene.End()
		spStats.End()
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}

	return buildTrack(ctx, src.FPS(), scenes, stats, quality, workers)
}

// AnnotateFromStats is AnnotatePipeline from the per-frame statistics
// its first stage would compute, as DigestAndStats returns them: it
// detects scenes and builds the track, and renders no frame. The output
// equals AnnotatePipeline's on the source the stats came from.
func AnnotateFromStats(ctx context.Context, fps int, stats []scene.FrameStats, cfg scene.Config, quality []float64, opt AnnotateOptions) (*annotation.Track, []scene.Scene, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(stats) == 0 {
		return nil, nil, fmt.Errorf("core: empty source")
	}
	scenes := detectScenes(ctx, cfg, stats)
	return buildTrack(ctx, fps, scenes, stats, quality, min(opt.Workers, len(stats)))
}

// detectScenes feeds the per-frame statistics to the scene detector in
// frame order.
func detectScenes(ctx context.Context, cfg scene.Config, stats []scene.FrameStats) []scene.Scene {
	sp := obs.StartSpan(ctx, "annotate.scene_detect")
	defer sp.End()
	det := scene.NewDetector(cfg)
	for _, st := range stats {
		det.Feed(st)
	}
	return det.Finish()
}

// buildTrack is the pipeline's last stage: the track from the detected
// scenes and per-frame statistics, fanned out over workers.
func buildTrack(ctx context.Context, fps int, scenes []scene.Scene, stats []scene.FrameStats, quality []float64, workers int) (*annotation.Track, []scene.Scene, error) {
	sp := obs.StartSpan(ctx, "annotate.build_track")
	track := annotation.FromStatsParallel(fps, scenes, stats, quality, workers)
	sp.End()

	if r := obs.FromContext(ctx); r != nil {
		r.Counter("pipeline_frames_processed_total",
			"Frames analysed by the offline annotation pass.").Add(uint64(len(stats)))
		r.Counter("pipeline_scenes_detected_total",
			"Scenes found by the offline annotation pass.").Add(uint64(len(scenes)))
	}
	return track, scenes, nil
}

// SourceDigest fingerprints a source's decoded content (FNV-1a over
// dimensions, rate, length and every frame's 8-bit luma plane). Two
// sources with equal digests produce identical annotation tracks and
// compensated variants, which is what lets caches key on content rather
// than on clip names.
func SourceDigest(src Source) string {
	return digestFrames(src, nil)
}

// DigestAndStats is SourceDigest that also computes every frame's
// scene.StatsOf from the same render, the annotate pass's first stage.
// AnnotateFromStats takes the stats on, so a cold source renders once
// for its digest and its track together.
func DigestAndStats(src Source) (string, []scene.FrameStats) {
	stats := make([]scene.FrameStats, 0, src.TotalFrames())
	d := digestFrames(src, func(f *frame.Frame) { stats = append(stats, scene.StatsOf(f)) })
	return d, stats
}

// digestFrames is SourceDigest, handing each rendered frame to each
// when it is not nil.
func digestFrames(src Source, each func(*frame.Frame)) string {
	h := fnv.New64a()
	w, ht := src.Size()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(w))
	put(uint64(ht))
	put(uint64(src.FPS()))
	n := src.TotalFrames()
	put(uint64(n))
	luma := make([]uint8, 0, w*ht)
	for i := 0; i < n; i++ {
		f := src.Frame(i)
		if each != nil {
			each(f)
		}
		luma = luma[:0]
		for _, p := range f.Pix {
			luma = append(luma, p.Luma8())
		}
		h.Write(luma)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
