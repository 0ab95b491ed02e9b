// End-to-end integration tests spanning the whole system: file round
// trips through the container, cross-device consistency, determinism of
// the experiment harness, and stability of the headline results across
// the generator's duration scaling.
package repro_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/scene"
	"repro/internal/stream"
	"repro/internal/video"
)

// TestFileRoundTripPlayback writes an annotated container to disk, reads
// it back and plays it through stream.Client.PlayContainer — the
// cmd/annotate + cmd/player path as a library-level test.
func TestFileRoundTripPlayback(t *testing.T) {
	clip := video.ClipByName("themovie", video.LibraryOptions{
		W: 48, H: 36, FPS: 8, DurationScale: 0.08,
	})
	src := core.ClipSource{Clip: clip}
	track, _, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "clip.avs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := container.NewWriter(f, container.Header{
		W: clip.W, H: clip.H, FPS: clip.FPS,
		FrameCount: clip.TotalFrames(), Annotations: track,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := codec.NewEncoder(clip.W, clip.H, clip.FPS, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clip.TotalFrames(); i++ {
		ef, err := enc.Encode(clip.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteFrame(ef); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Read back and play through the client's playback loop.
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	r, err := container.NewReader(in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Annotations == nil {
		t.Fatal("annotations lost in file round trip")
	}
	frames := 0
	var psnrSum float64
	levels := map[int]bool{}
	client := &stream.Client{Device: display.IPAQ5555()}
	client.OnFrame = func(i int, got *frame.Frame, level int) {
		levels[level] = true
		psnrSum += clip.Frame(i).PSNR(got)
		frames++
	}
	if _, err := client.PlayContainer(context.Background(), r, 0.10); err != nil {
		t.Fatal(err)
	}
	if frames != clip.TotalFrames() {
		t.Fatalf("decoded %d frames, want %d", frames, clip.TotalFrames())
	}
	if avg := psnrSum / float64(frames); avg < 28 {
		t.Errorf("mean decode PSNR = %.1f dB", avg)
	}
	if len(levels) < 2 {
		t.Errorf("backlight never changed across scenes: %v", levels)
	}
}

// TestCrossDeviceConsistency checks the same annotated stream drives all
// three devices sensibly: identical scene schedule, device-specific levels,
// savings reflecting each backlight technology.
func TestCrossDeviceConsistency(t *testing.T) {
	clip := video.ClipByName("catwoman", video.LibraryOptions{
		W: 40, H: 30, FPS: 8, DurationScale: 0.1,
	})
	src := core.ClipSource{Clip: clip}
	track, _, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
	if err != nil {
		t.Fatal(err)
	}
	savings := map[string]float64{}
	for _, dev := range display.Devices() {
		rep, err := core.Play(src, track, core.PlaybackOptions{Device: dev, Quality: 0.10})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scenes != len(track.Records) {
			t.Errorf("%s: scene count drifted", dev.Name)
		}
		savings[dev.Name] = rep.BacklightSavings
		if rep.BacklightSavings <= 0.1 {
			t.Errorf("%s: savings %v implausibly low on a dark clip", dev.Name, rep.BacklightSavings)
		}
	}
	// The LED device dims deeper for the same targets (concave transfer).
	if savings["ipaq5555"] <= savings["ipaq3650"] {
		t.Errorf("LED savings %v not above CCFL %v", savings["ipaq5555"], savings["ipaq3650"])
	}
}

// TestHarnessDeterminism renders the full Figure 9 sweep twice and
// requires bit-identical results — the property EXPERIMENTS.md relies on.
func TestHarnessDeterminism(t *testing.T) {
	opt := experiments.Options{
		Library: video.LibraryOptions{W: 40, H: 30, FPS: 6, DurationScale: 0.1},
		Device:  display.IPAQ5555(),
	}
	var a, b bytes.Buffer
	rows1, err := experiments.Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	experiments.FprintFig9(&a, rows1)
	rows2, err := experiments.Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	experiments.FprintFig9(&b, rows2)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Figure 9 not deterministic across runs")
	}
}

// TestScaleInvariance verifies that the *shape* of the headline result is
// stable when the clip durations are scaled: per-clip values drift with
// the sampled scene mix, but dark clips always dominate bright ones, the
// bright clips stay limited, and the 5% quality jump persists.
func TestScaleInvariance(t *testing.T) {
	darkClips := []string{"themovie", "catwoman", "i_robot", "returnoftheking", "spiderman2"}
	brightClips := []string{"hunter_subres", "ice_age"}
	for _, scale := range []float64{0.1, 0.3} {
		opt := experiments.Options{
			Library: video.LibraryOptions{W: 40, H: 30, FPS: 6, DurationScale: scale},
			Device:  display.IPAQ5555(),
		}
		rows, err := experiments.Sweep(opt)
		if err != nil {
			t.Fatal(err)
		}
		byClip := map[string]experiments.SavingsRow{}
		for _, r := range rows {
			byClip[r.Clip] = r
		}
		var darkSum, brightSum float64
		for _, n := range darkClips {
			darkSum += byClip[n].Backlight[2]
		}
		for _, n := range brightClips {
			brightSum += byClip[n].Backlight[2]
		}
		darkMean := darkSum / float64(len(darkClips))
		brightMean := brightSum / float64(len(brightClips))
		if darkMean < 0.40 {
			t.Errorf("scale %v: dark-clip mean savings %.2f below band", scale, darkMean)
		}
		if brightMean > 0.35 {
			t.Errorf("scale %v: bright-clip mean savings %.2f above band", scale, brightMean)
		}
		if darkMean <= brightMean+0.2 {
			t.Errorf("scale %v: dark clips (%.2f) do not dominate bright (%.2f)",
				scale, darkMean, brightMean)
		}
		// The 5% quality jump persists on the dark clips in aggregate.
		var q0, q5 float64
		for _, n := range darkClips {
			q0 += byClip[n].Backlight[0]
			q5 += byClip[n].Backlight[1]
		}
		if q5-q0 < 0.10*float64(len(darkClips)) {
			t.Errorf("scale %v: aggregate 5%% jump too small (%.2f -> %.2f)", scale, q0, q5)
		}
	}
}

// TestCodecOddAndTinySizes exercises the encoder/decoder across raster
// shapes that stress block and macroblock edge handling.
func TestCodecOddAndTinySizes(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {15, 9}, {16, 16}, {17, 33}, {1, 1}, {3, 50}} {
		w, h := dims[0], dims[1]
		enc, err := codec.NewEncoder(w, h, 2, 6)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		dec, err := codec.NewDecoder(w, h)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			src := frame.New(w, h)
			for j := range src.Pix {
				src.Pix[j].R = uint8((j*17 + i*31) % 256)
				src.Pix[j].G = uint8((j * 3) % 256)
				src.Pix[j].B = uint8((j*7 + i) % 256)
			}
			ef, err := enc.Encode(src)
			if err != nil {
				t.Fatalf("%dx%d frame %d: %v", w, h, i, err)
			}
			got, err := dec.Decode(ef)
			if err != nil {
				t.Fatalf("%dx%d frame %d: %v", w, h, i, err)
			}
			if got.W != w || got.H != h {
				t.Fatalf("%dx%d: decoded %dx%d", w, h, got.W, got.H)
			}
		}
	}
}

// TestAnnotationSurvivesContainerAndStreamEquivalence ensures the track a
// client receives equals the one the server computed, byte for byte.
func TestAnnotationSurvivesContainer(t *testing.T) {
	clip := video.ClipByName("officexp", video.LibraryOptions{
		W: 32, H: 24, FPS: 6, DurationScale: 0.2,
	})
	src := core.ClipSource{Clip: clip}
	track, _, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := container.NewWriter(&buf, container.Header{
		W: clip.W, H: clip.H, FPS: clip.FPS, Annotations: track,
	}); err != nil {
		t.Fatal(err)
	}
	r, err := container.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Header().Annotations
	if !bytes.Equal(got.Encode(), track.Encode()) {
		t.Error("annotation bytes changed through the container")
	}
}
