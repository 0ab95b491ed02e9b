package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anncache"
	"repro/internal/annotation"
	"repro/internal/codec"
	"repro/internal/compensate"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/scene"
	"repro/internal/video"
)

// gopClip is a moving two-scene clip of n frames, so its P-frames run
// the motion search and its track has more than one record.
func gopClip(n int) core.Source {
	first := max(n/2, 1)
	specs := []video.SceneSpec{{Frames: first, BaseLuma: 0.2, LumaSpread: 0.3, MaxLuma: 0.7, HighlightFrac: 0.02, Chroma: 0.5, Motion: 2.5}}
	if n > first {
		specs = append(specs, video.SceneSpec{Frames: n - first, BaseLuma: 0.5, LumaSpread: 0.4, MaxLuma: 1.0, HighlightFrac: 0.05, Chroma: 0.3, Motion: 4})
	}
	return core.ClipSource{Clip: video.MustNew(fmt.Sprintf("gop-%d", n), 40, 24, 4, int64(n), specs)}
}

// serialVariant is the reference build: one encoder over every frame in
// order, never restarted, each frame compensated into a fresh copy.
func serialVariant(t *testing.T, src core.Source, track *annotation.Track, qi int, cfg encodeConfig) *variant {
	t.Helper()
	w, h := src.Size()
	enc, err := codec.NewEncoder(w, h, cfg.GOP, cfg.QScale)
	if err != nil {
		t.Fatal(err)
	}
	var cursor *annotation.Cursor
	if track != nil {
		cursor = track.NewCursor(qi)
	}
	var frames []*codec.EncodedFrame
	for i := 0; i < src.TotalFrames(); i++ {
		f := src.Frame(i)
		if cursor != nil {
			target, _ := cursor.Next()
			f = core.CompensateFrame(f, target, compensate.ContrastEnhancement)
		}
		ef, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, ef)
	}
	v, err := newVariant(context.Background(), src, track, frames)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestParallelGOPEncodeMatchesSerial: encoding GOPs in parallel, one
// restarted encoder per worker, gives the wire, frame offsets and side
// channels of one serial encoder, for clips shorter than, equal to and
// longer than a GOP, raw and annotated, at every worker count.
func TestParallelGOPEncodeMatchesSerial(t *testing.T) {
	cfg := encodeConfig{}.withDefaults(4)
	gop := cfg.GOP
	ctx := context.Background()
	for _, n := range []int{1, gop - 1, gop, gop + 1, 3*gop + 2} {
		src := gopClip(n)
		track, _, err := core.Annotate(src, scene.DefaultConfig(src.FPS()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*annotation.Track{nil, track} {
			qi := 2
			if tr == nil {
				qi = -1
			}
			want := serialVariant(t, src, tr, qi, cfg)
			for _, workers := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("frames=%d annotated=%v workers=%d", n, tr != nil, workers)
				got, err := buildVariant(ctx, src, tr, qi, cfg, workers)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got.wire, want.wire) {
					t.Errorf("%s: wire differs from the serial encoder's", name)
				}
				if fmt.Sprint(got.offs) != fmt.Sprint(want.offs) {
					t.Errorf("%s: offsets %v, want %v", name, got.offs, want.offs)
				}
				if !bytes.Equal(got.cyclesChunk, want.cyclesChunk) || !bytes.Equal(got.scenesChunk, want.scenesChunk) {
					t.Errorf("%s: side channels differ from the serial encoder's", name)
				}
			}
		}
	}
}

// cancelSource cancels a build from inside it: rendering frame cancelAt
// calls cancel. Every other worker's first frame is slow, so a build
// that returned without joining its workers would still have one
// rendering. active counts renders in flight.
type cancelSource struct {
	core.Source
	gop, cancelAt int
	cancel        context.CancelFunc
	active        atomic.Int32
}

func (s *cancelSource) Frame(i int) *frame.Frame {
	s.active.Add(1)
	defer s.active.Add(-1)
	switch {
	case i == s.cancelAt:
		s.cancel()
	case i%s.gop == 0 && i != 0:
		time.Sleep(20 * time.Millisecond)
	}
	return s.Source.Frame(i)
}

// TestCancelledBuildCachesNothing: a context cancelled mid-build makes
// the build return the context's error with no encode worker left
// running, at every worker count, and the variant lookup caches nothing.
func TestCancelledBuildCachesNothing(t *testing.T) {
	cfg := encodeConfig{}.withDefaults(4)
	clip := gopClip(6 * cfg.GOP)
	track, _, err := core.Annotate(clip, scene.DefaultConfig(clip.FPS()), nil)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) func(context.Context, core.Source) error {
		return func(ctx context.Context, src core.Source) error {
			_, err := buildVariant(ctx, src, track, 1, cfg, workers)
			return err
		}
	}
	cache := anncache.New(1 << 20)
	lookup := func(ctx context.Context, src core.Source) error {
		_, err := variantFor(ctx, tier{cache: cache}, "digest", src, track, 1, cfg)
		return err
	}
	for name, run := range map[string]func(context.Context, core.Source) error{
		"workers=1": build(1), "workers=2": build(2), "workers=3": build(3), "variantFor": lookup,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelSource{Source: clip, gop: cfg.GOP, cancelAt: 2, cancel: cancel}
		base := runtime.NumGoroutine()
		err := run(ctx, src)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if n := src.active.Load(); n != 0 {
			t.Errorf("%s: %d renders still in flight after the build returned", name, n)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines before the build, %d after", name, base, runtime.NumGoroutine())
			}
		}
	}
	if cache.Len() != 0 {
		t.Errorf("cancelled build left %d cache entries", cache.Len())
	}
}

// BenchmarkPrepareVariant measures the cold build of one annotated
// variant (render, compensate, encode and side channels) of a clip the
// size of the benchmark's cold-miss workload: 48×32, 48 frames at
// 8 fps, encoded on GOMAXPROCS workers. The benchmark-regression gate
// tracks its frames/s and allocs/op against BENCH_serving.json.
func BenchmarkPrepareVariant(b *testing.B) {
	clip := video.MustNew("cold", 48, 32, 8, 11, []video.SceneSpec{
		{Frames: 16, BaseLuma: 0.2, LumaSpread: 0.3, MaxLuma: 0.8, HighlightFrac: 0.02, Chroma: 0.5, Motion: 1.5},
		{Frames: 16, BaseLuma: 0.55, LumaSpread: 0.4, MaxLuma: 1.0, HighlightFrac: 0.1, Chroma: 0.4, Motion: 3},
		{Frames: 16, BaseLuma: 0.3, LumaSpread: 0.2, MaxLuma: 0.9, HighlightFrac: 0.01, Chroma: 0.6, Motion: 1},
	})
	src := core.ClipSource{Clip: clip}
	track, _, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := encodeConfig{}.withDefaults(clip.FPS)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepareVariant(ctx, src, track, 2, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*clip.TotalFrames())/b.Elapsed().Seconds(), "frames/s")
}

// TestEncodeWorkerPanicReachesCaller: a source that panics inside an
// encode worker panics the build's caller, whose session recover then
// isolates it, instead of killing the process from a bare goroutine.
func TestEncodeWorkerPanicReachesCaller(t *testing.T) {
	cfg := encodeConfig{}.withDefaults(4)
	defer func() {
		if p := recover(); p != "bomb: synthetic session panic" {
			t.Fatalf("recovered %v, want the source's panic", p)
		}
	}()
	buildVariant(context.Background(), bombSource{gopClip(3 * cfg.GOP)}, nil, -1, cfg, 2)
	t.Fatal("build returned from a panicking source")
}
