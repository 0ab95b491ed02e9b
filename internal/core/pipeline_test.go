package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/frame"
	"repro/internal/scene"
	"repro/internal/video"
)

// pipelineClip has enough scenes and frames that the reorder buffer and
// per-quality fan-out actually exercise out-of-order completion.
func pipelineClip() *video.Clip {
	return video.MustNew("pipeline", 48, 36, 12, 21, []video.SceneSpec{
		{Frames: 18, BaseLuma: 0.15, LumaSpread: 0.12, MaxLuma: 0.78, HighlightFrac: 0.01},
		{Frames: 14, BaseLuma: 0.70, LumaSpread: 0.18, MaxLuma: 1.0, HighlightFrac: 0.3},
		{Frames: 20, BaseLuma: 0.30, LumaSpread: 0.15, MaxLuma: 0.9, HighlightFrac: 0.05},
		{Frames: 16, BaseLuma: 0.55, LumaSpread: 0.20, MaxLuma: 0.97, HighlightFrac: 0.12},
	})
}

// TestAnnotatePipelineMatchesSequential is the golden comparison: the
// parallel pipeline must produce a byte-identical encoded track and the
// same scene list as the sequential path, for every worker count. Run
// under -race in CI.
func TestAnnotatePipelineMatchesSequential(t *testing.T) {
	c := pipelineClip()
	src := ClipSource{c}
	cfg := scene.DefaultConfig(c.FPS)
	ctx := context.Background()

	seqTrack, seqScenes, err := AnnotatePipeline(ctx, src, cfg, nil, AnnotateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden := seqTrack.Encode()

	for _, workers := range []int{2, 3, 4, 8} {
		track, scenes, err := AnnotatePipeline(ctx, src, cfg, nil, AnnotateOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(track.Encode(), golden) {
			t.Errorf("workers=%d: encoded track differs from sequential", workers)
		}
		if len(scenes) != len(seqScenes) {
			t.Fatalf("workers=%d: %d scenes, sequential found %d", workers, len(scenes), len(seqScenes))
		}
		for i := range scenes {
			got, want := scenes[i], seqScenes[i]
			if got.Start != want.Start || got.End != want.End || got.MaxLuma != want.MaxLuma {
				t.Errorf("workers=%d: scene %d = %+v, want %+v", workers, i, got, want)
			}
			if (got.Hist == nil) != (want.Hist == nil) || (got.Hist != nil && *got.Hist != *want.Hist) {
				t.Errorf("workers=%d: scene %d histogram differs", workers, i)
			}
		}
	}
}

// TestAnnotatePipelineCancellation: a pre-cancelled context must abort the
// parallel path with ctx.Err() and leak no goroutines (the -race build
// would flag unsynchronised stragglers writing stats).
func TestAnnotatePipelineCancellation(t *testing.T) {
	c := pipelineClip()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := AnnotatePipeline(ctx, ClipSource{c}, scene.DefaultConfig(c.FPS), nil, AnnotateOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSourceDigest(t *testing.T) {
	a := ClipSource{pipelineClip()}
	b := ClipSource{pipelineClip()}
	if SourceDigest(a) != SourceDigest(b) {
		t.Fatal("identical sources must digest identically")
	}
	other := ClipSource{darkClip()}
	if SourceDigest(a) == SourceDigest(other) {
		t.Fatal("different content must digest differently")
	}
}

// TestAnnotateFromDigestStats: the digest pass's stats give the same
// digest as SourceDigest and, through AnnotateFromStats, the same track
// and scenes as AnnotatePipeline, while rendering each frame once.
func TestAnnotateFromDigestStats(t *testing.T) {
	c := pipelineClip()
	cfg := scene.DefaultConfig(c.FPS)
	ctx := context.Background()
	want, wantScenes, err := AnnotatePipeline(ctx, ClipSource{c}, cfg, nil, AnnotateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: ClipSource{c}}
	digest, stats := DigestAndStats(src)
	if digest != SourceDigest(ClipSource{c}) {
		t.Errorf("DigestAndStats digest %s, SourceDigest %s", digest, SourceDigest(ClipSource{c}))
	}
	for _, workers := range []int{1, 4} {
		got, scenes, err := AnnotateFromStats(ctx, c.FPS, stats, cfg, nil, AnnotateOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Errorf("workers=%d: track from digest stats differs from AnnotatePipeline's", workers)
		}
		if len(scenes) != len(wantScenes) {
			t.Errorf("workers=%d: %d scenes, want %d", workers, len(scenes), len(wantScenes))
		}
	}
	if src.renders != c.TotalFrames() {
		t.Errorf("%d renders for a %d-frame clip, want one each", src.renders, c.TotalFrames())
	}
	if _, _, err := AnnotateFromStats(ctx, c.FPS, nil, cfg, nil, AnnotateOptions{}); err == nil {
		t.Error("AnnotateFromStats accepted no stats")
	}
}

// countingSource counts the frames it renders.
type countingSource struct {
	Source
	renders int
}

func (s *countingSource) Frame(i int) *frame.Frame {
	s.renders++
	return s.Source.Frame(i)
}
