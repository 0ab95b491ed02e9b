package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/annotation"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/pixel"
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

// KeptFramesCap bounds the pixel bytes of the frames DigestKeep hands
// back. A clip whose frames fit under it is rendered once for its
// digest and kept for the rest of the request; a larger one is digested
// in a bounded window and rendered again where it is read (on a cold
// miss, once for the digest, once for the scene stats and once for the
// encode). The cap is sized so every clip the repo serves at its default
// settings fits: streamd's default library (120×90 at 10 fps, duration
// scale 0.25) peaks at 13.9 MiB (returnoftheking, 450 frames), the
// benchmark's clips at 0.6 MiB and fleetsim's at 0.06 MiB.
const KeptFramesCap = 16 << 20

// SourceDigest fingerprints a source's decoded content (FNV-1a over
// dimensions, rate, length and every frame's 8-bit luma plane). Two
// sources with equal digests produce identical annotation tracks and
// compensated variants, which is what lets caches key on content rather
// than on clip names. Frames render on min(GOMAXPROCS, frames) workers.
func SourceDigest(src Source) string {
	d, _, _ := digestFrames(context.Background(), src, runtime.GOMAXPROCS(0), false)
	return d
}

// DigestKeep is SourceDigest that also returns the frames its pass
// rendered, in frame order, when their pixels fit under KeptFramesCap
// (nil above it), so a caller reads them instead of rendering the clip
// again. It stops with ctx's error when ctx ends first.
func DigestKeep(ctx context.Context, src Source) (string, []*frame.Frame, error) {
	return digestFrames(ctx, src, runtime.GOMAXPROCS(0), true)
}

// digestFrames computes the digest with frames rendered on up to
// workers goroutines. A worker renders frame i and writes its luma
// plane to slot i % window; the caller hashes the planes in frame
// order and frees each slot as it goes, so at most window frames are in
// flight and the digest does not depend on workers. With keep, and
// frames under KeptFramesCap, the rendered frames are returned. A
// worker's panic is re-raised in the caller's goroutine, and every
// worker has returned before digestFrames does.
func digestFrames(ctx context.Context, src Source, workers int, keep bool) (string, []*frame.Frame, error) {
	h := fnv.New64a()
	w, ht := src.Size()
	n := src.TotalFrames()
	var buf [8]byte
	for _, v := range [...]int{w, ht, src.FPS(), n} {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var kept []*frame.Frame
	if keep && n > 0 && int64(n)*int64(w)*int64(ht)*int64(unsafe.Sizeof(pixel.RGB{})) <= KeptFramesCap {
		kept = make([]*frame.Frame, n)
	}
	workers = max(1, min(workers, n))
	window := min(2*workers, max(n, 1))
	backing := make([]uint8, window*w*ht)
	planes := make([][]uint8, window)
	for k := range planes {
		planes[k] = backing[k*w*ht : k*w*ht : (k+1)*w*ht]
	}
	render := func(i int) {
		f := src.Frame(i)
		p := planes[i%window][:0]
		for _, px := range f.Pix {
			p = append(p, px.Luma8())
		}
		planes[i%window] = p
		if kept != nil {
			kept[i] = f
		}
	}

	// tokens holds one token per frame in flight: the feeder takes one
	// before it hands out frame i, the caller returns it once frame i is
	// hashed, so frame i+window never reuses a slot still being read.
	// done therefore never holds more than window frames, and failed at
	// most one panic per worker: neither send blocks.
	tokens := make(chan struct{}, window)
	idx := make(chan int)
	done := make(chan int, window)
	failed := make(chan any, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case tokens <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case idx <- i:
			case <-stop:
				return
			}
		}
	}()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					failed <- p
				}
			}()
			for i := range idx {
				render(i)
				done <- i
			}
		}()
	}

	ready := make([]bool, window)
	var err error
	var panicked any
	for next := 0; next < n && err == nil && panicked == nil; {
		select {
		case i := <-done:
			ready[i%window] = true
			for next < n && ready[next%window] {
				ready[next%window] = false
				h.Write(planes[next%window])
				<-tokens
				next++
			}
		case panicked = <-failed:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	close(stop)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%016x", h.Sum64()), kept, nil
}
