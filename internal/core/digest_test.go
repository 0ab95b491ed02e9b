package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/frame"
	"repro/internal/pixel"
	"repro/internal/scene"
	"repro/internal/video"
)

// serialDigest is the digest written out the plain way, one frame
// after another: the reference digestFrames must equal for any worker
// count.
func serialDigest(src Source) string {
	h := fnv.New64a()
	w, ht := src.Size()
	var buf [8]byte
	for _, v := range []int{w, ht, src.FPS(), src.TotalFrames()} {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i := 0; i < src.TotalFrames(); i++ {
		var luma []uint8
		for _, p := range src.Frame(i).Pix {
			luma = append(luma, p.Luma8())
		}
		h.Write(luma)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// countingSource counts the frames it renders; workers render
// concurrently, so the count is atomic.
type countingSource struct {
	Source
	renders atomic.Int64
}

func (s *countingSource) Frame(i int) *frame.Frame {
	s.renders.Add(1)
	return s.Source.Frame(i)
}

// framesSource serves frames already in memory.
type framesSource struct {
	w, h, fps int
	frames    []*frame.Frame
}

func (s *framesSource) Size() (int, int)         { return s.w, s.h }
func (s *framesSource) FPS() int                 { return s.fps }
func (s *framesSource) TotalFrames() int         { return len(s.frames) }
func (s *framesSource) Frame(i int) *frame.Frame { return s.frames[i] }

// synthSource renders cheap, distinct frames of any size and length.
type synthSource struct{ w, h, fps, n int }

func (s synthSource) Size() (int, int) { return s.w, s.h }
func (s synthSource) FPS() int         { return s.fps }
func (s synthSource) TotalFrames() int { return s.n }
func (s synthSource) Frame(i int) *frame.Frame {
	f := frame.New(s.w, s.h)
	for j := range f.Pix {
		v := uint8(i*31 + j*7)
		f.Pix[j] = pixel.RGB{R: v, G: v ^ 0x5a, B: uint8(i)}
	}
	return f
}

// gopClip is a real video clip of n frames at 8 fps, the encoder's
// default GOP.
func gopClip(n int) *video.Clip {
	return video.MustNew("gop", 24, 16, 8, int64(n), []video.SceneSpec{
		{Frames: n, BaseLuma: 0.4, LumaSpread: 0.3, MaxLuma: 0.9, HighlightFrac: 0.05, Motion: 2},
	})
}

// TestParallelDigestMatchesSerial: on any worker count and any clip
// length around the GOP boundaries, digestFrames yields the serial
// digest, renders each frame once, and keeps exactly the frames it
// rendered.
func TestParallelDigestMatchesSerial(t *testing.T) {
	const gop = 8
	ctx := context.Background()
	for _, n := range []int{1, gop - 1, gop, gop + 1, 3*gop + 2} {
		c := gopClip(n)
		want := serialDigest(ClipSource{c})
		for _, workers := range []int{1, 2, 3, 8} {
			for _, keep := range []bool{false, true} {
				src := &countingSource{Source: ClipSource{c}}
				got, kept, err := digestFrames(ctx, src, workers, keep)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("n=%d workers=%d keep=%v: digest %s, serial %s", n, workers, keep, got, want)
				}
				if r := src.renders.Load(); r != int64(n) {
					t.Errorf("n=%d workers=%d keep=%v: %d renders, want %d", n, workers, keep, r, n)
				}
				if !keep {
					if kept != nil {
						t.Errorf("n=%d workers=%d: frames kept without keep", n, workers)
					}
					continue
				}
				if len(kept) != n {
					t.Fatalf("n=%d workers=%d: %d frames kept, want %d", n, workers, len(kept), n)
				}
				for i, f := range kept {
					if !equalPix(f, c.Frame(i)) {
						t.Errorf("n=%d workers=%d: kept frame %d differs from a fresh render", n, workers, i)
					}
				}
			}
		}
	}
	if d := SourceDigest(ClipSource{gopClip(gop)}); d != serialDigest(ClipSource{gopClip(gop)}) {
		t.Errorf("SourceDigest %s differs from the serial digest", d)
	}
}

// TestDigestKeepCap: a clip whose pixels fit under KeptFramesCap comes
// back whole; one frame more comes back as nil frames with the same
// digest as the serial pass.
func TestDigestKeepCap(t *testing.T) {
	const w, h = 256, 256
	perFrame := w * h * int(unsafe.Sizeof(pixel.RGB{}))
	under := KeptFramesCap / perFrame
	for _, c := range []struct {
		n        int
		wantKept bool
	}{{under, true}, {under + 1, false}} {
		src := synthSource{w: w, h: h, fps: 8, n: c.n}
		want := serialDigest(src)
		for _, workers := range []int{1, 3} {
			got, kept, err := digestFrames(context.Background(), src, workers, true)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d workers=%d: digest %s, serial %s", c.n, workers, got, want)
			}
			if (kept != nil) != c.wantKept {
				t.Errorf("n=%d (%d bytes, cap %d) workers=%d: kept %d frames, want kept=%v",
					c.n, c.n*perFrame, KeptFramesCap, workers, len(kept), c.wantKept)
			}
			if c.wantKept && len(kept) != c.n {
				t.Errorf("n=%d workers=%d: %d frames kept", c.n, workers, len(kept))
			}
		}
	}
}

// TestDigestKeepFeedsPipeline: the annotate pass over the kept frames
// renders nothing more and builds the track AnnotatePipeline builds
// from the clip, so a cold source renders once for its digest and its
// track together.
func TestDigestKeepFeedsPipeline(t *testing.T) {
	c := pipelineClip()
	cfg := scene.DefaultConfig(c.FPS)
	ctx := context.Background()
	want, _, err := AnnotatePipeline(ctx, ClipSource{c}, cfg, nil, AnnotateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: ClipSource{c}}
	digest, kept, err := DigestKeep(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if digest != SourceDigest(ClipSource{c}) {
		t.Errorf("DigestKeep digest %s, SourceDigest %s", digest, SourceDigest(ClipSource{c}))
	}
	mem := &framesSource{w: c.W, h: c.H, fps: c.FPS, frames: kept}
	for _, workers := range []int{1, 4} {
		got, _, err := AnnotatePipeline(ctx, mem, cfg, nil, AnnotateOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Errorf("workers=%d: track from kept frames differs from the clip's", workers)
		}
	}
	if r := src.renders.Load(); r != int64(c.TotalFrames()) {
		t.Errorf("%d renders for a %d-frame clip, want one each", r, c.TotalFrames())
	}
}

// blockingSource renders frame 0 at once and blocks every later frame
// until release closes; blocked closes when the first one blocks.
type blockingSource struct {
	synthSource
	once             sync.Once
	blocked, release chan struct{}
}

func (s *blockingSource) Frame(i int) *frame.Frame {
	if i > 0 {
		s.once.Do(func() { close(s.blocked) })
		<-s.release
	}
	return s.synthSource.Frame(i)
}

// TestDigestCancelledMidPass: cancelling the context while workers are
// rendering returns ctx's error once every worker has returned.
func TestDigestCancelledMidPass(t *testing.T) {
	before := runtime.NumGoroutine()
	src := &blockingSource{synthSource: synthSource{w: 8, h: 8, fps: 8, n: 40},
		blocked: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := digestFrames(ctx, src, 3, true)
		errc <- err
	}()
	<-src.blocked
	cancel()
	// The workers stuck in Frame finish once released; the digest must
	// not return before they have.
	select {
	case err := <-errc:
		t.Fatalf("digest returned %v with workers still rendering", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(src.release)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, before)
}

// panicSource panics on frame 5.
type panicSource struct{ synthSource }

func (s panicSource) Frame(i int) *frame.Frame {
	if i == 5 {
		panic("bomb: digest worker")
	}
	return s.synthSource.Frame(i)
}

// TestDigestWorkerPanicReachesCaller: a worker's panic is re-raised in
// the caller's goroutine, where a session's recover isolates it.
func TestDigestWorkerPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if p := recover(); p != "bomb: digest worker" {
				t.Fatalf("recovered %v, want the source's panic", p)
			}
		}()
		digestFrames(context.Background(), panicSource{synthSource{w: 8, h: 8, fps: 8, n: 20}}, 3, true)
		t.Fatal("digest returned from a panicking source")
	}()
	waitGoroutines(t, before)
}

// waitGoroutines waits up to a second for the goroutine count to fall
// back to want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func equalPix(a, b *frame.Frame) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}
