package core

import (
	"math"
	"testing"

	"repro/internal/annotation"
	"repro/internal/compensate"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/pixel"
	"repro/internal/power"
	"repro/internal/scene"
	"repro/internal/video"
)

// darkClip has dark scenes with sparse bright highlights: the favourable
// case for annotation-driven scaling.
func darkClip() *video.Clip {
	return video.MustNew("dark", 40, 30, 10, 11, []video.SceneSpec{
		{Frames: 15, BaseLuma: 0.15, LumaSpread: 0.12, MaxLuma: 0.78, HighlightFrac: 0.01},
		{Frames: 15, BaseLuma: 0.22, LumaSpread: 0.14, MaxLuma: 0.95, HighlightFrac: 0.008},
	})
}

// brightClip has its histogram mass in the high range: the ice_age case.
func brightClip() *video.Clip {
	return video.MustNew("bright", 40, 30, 10, 12, []video.SceneSpec{
		{Frames: 15, BaseLuma: 0.72, LumaSpread: 0.18, MaxLuma: 1.0, HighlightFrac: 0.3},
		{Frames: 15, BaseLuma: 0.68, LumaSpread: 0.18, MaxLuma: 0.98, HighlightFrac: 0.28},
	})
}

func annotate(t *testing.T, c *video.Clip) *annotation.Track {
	t.Helper()
	track, scenes, err := Annotate(ClipSource{c}, scene.DefaultConfig(c.FPS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenes) == 0 || track.TotalFrames() != c.TotalFrames() {
		t.Fatalf("annotation mismatch: %d scenes, %d frames tracked",
			len(scenes), track.TotalFrames())
	}
	return track
}

func TestAnnotateFindsScenes(t *testing.T) {
	c := darkClip()
	track, scenes, err := Annotate(ClipSource{c}, scene.DefaultConfig(c.FPS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenes) != 2 {
		t.Errorf("detected %d scenes, want 2", len(scenes))
	}
	if len(track.Records) != len(scenes) {
		t.Errorf("track has %d records for %d scenes", len(track.Records), len(scenes))
	}
}

func TestAnnotateRejectsBadInput(t *testing.T) {
	c := darkClip()
	if _, _, err := Annotate(ClipSource{c}, scene.Config{}, nil); err == nil {
		t.Error("invalid scene config accepted")
	}
}

func TestPlayLosslessSavesPower(t *testing.T) {
	c := darkClip()
	track := annotate(t, c)
	rep, err := Play(ClipSource{c}, track, PlaybackOptions{
		Device: display.IPAQ5555(), Quality: 0, EvaluateQuality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BacklightSavings <= 0 {
		t.Errorf("lossless backlight savings = %v, want > 0 (dark content)", rep.BacklightSavings)
	}
	if rep.MeanClipped > 1e-9 {
		t.Errorf("lossless playback clipped %v of pixels", rep.MeanClipped)
	}
	if rep.AvgLevel >= display.MaxLevel {
		t.Errorf("AvgLevel = %v, backlight never dimmed", rep.AvgLevel)
	}
}

func TestPlayQualityIncreasesSavings(t *testing.T) {
	c := darkClip()
	track := annotate(t, c)
	dev := display.IPAQ5555()
	reports, err := Sweep(ClipSource{c}, track, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(compensate.QualityLevels) {
		t.Fatalf("sweep returned %d reports", len(reports))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].BacklightSavings < reports[i-1].BacklightSavings-1e-9 {
			t.Errorf("savings not monotone in quality: %v then %v",
				reports[i-1].BacklightSavings, reports[i].BacklightSavings)
		}
	}
	// The paper sees a big jump already at 5% on dark content.
	if jump := reports[1].BacklightSavings - reports[0].BacklightSavings; jump < 0.10 {
		t.Errorf("5%% quality jump = %v, want noticeable (>0.10)", jump)
	}
}

func TestDarkBeatsBright(t *testing.T) {
	dev := display.IPAQ5555()
	dark := darkClip()
	bright := brightClip()
	repDark, err := Play(ClipSource{dark}, annotate(t, dark),
		PlaybackOptions{Device: dev, Quality: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	repBright, err := Play(ClipSource{bright}, annotate(t, bright),
		PlaybackOptions{Device: dev, Quality: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if repDark.BacklightSavings <= repBright.BacklightSavings {
		t.Errorf("dark savings %v not above bright savings %v",
			repDark.BacklightSavings, repBright.BacklightSavings)
	}
	if repBright.BacklightSavings > 0.35 {
		t.Errorf("bright clip saves %v; should be limited", repBright.BacklightSavings)
	}
}

func TestMeasuredTracksAnalytic(t *testing.T) {
	c := darkClip()
	track := annotate(t, c)
	rep, err := Play(ClipSource{c}, track, PlaybackOptions{Device: display.IPAQ5555(), Quality: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeasuredTotalSavings-rep.TotalSavings) > 0.02 {
		t.Errorf("measured %v vs analytic %v total savings", rep.MeasuredTotalSavings, rep.TotalSavings)
	}
	// Total savings ~= backlight savings x backlight share.
	share := rep.BacklightSavings * 0.28
	if math.Abs(rep.TotalSavings-share) > 0.08 {
		t.Errorf("total savings %v far from backlight*share %v", rep.TotalSavings, share)
	}
}

func TestPerFrameSeries(t *testing.T) {
	c := darkClip()
	track := annotate(t, c)
	rep, err := Play(ClipSource{c}, track, PlaybackOptions{
		Device: display.IPAQ5555(), Quality: 0.10, PerFrame: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerFrame) != c.TotalFrames() {
		t.Fatalf("per-frame series has %d entries", len(rep.PerFrame))
	}
	for i, fr := range rep.PerFrame {
		if fr.Index != i {
			t.Fatalf("record %d has index %d", i, fr.Index)
		}
		if fr.Level < 0 || fr.Level > display.MaxLevel {
			t.Errorf("frame %d level %d out of range", i, fr.Level)
		}
		if fr.PowerSaved < 0 || fr.PowerSaved > 1 {
			t.Errorf("frame %d power saved %v out of range", i, fr.PowerSaved)
		}
	}
}

func TestPerSceneBacklightLimitsSwitches(t *testing.T) {
	c := darkClip()
	track := annotate(t, c)
	dev := display.IPAQ5555()
	perScene, err := Play(ClipSource{c}, track, PlaybackOptions{Device: dev, Quality: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if perScene.Switches >= len(track.Records) {
		t.Errorf("per-scene playback switched %d times for %d scenes",
			perScene.Switches, len(track.Records))
	}
}

func TestPlayValidation(t *testing.T) {
	c := darkClip()
	track := annotate(t, c)
	if _, err := Play(ClipSource{c}, track, PlaybackOptions{Quality: 0}); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := Play(ClipSource{c}, track, PlaybackOptions{
		Device: display.IPAQ5555(), Quality: 2,
	}); err == nil {
		t.Error("quality > 1 accepted")
	}
}

func TestCompensateFrame(t *testing.T) {
	f := frame.Solid(4, 4, pixel.Gray(128)) // luminance 128/255 ~ 0.502
	comp := CompensateFrame(f, 0.5, compensate.ContrastEnhancement)
	// A pixel at the target luminance must land at (near) full scale.
	if got := comp.MaxLuma(); got < 250 {
		t.Errorf("compensated max luma = %v, want ~255", got)
	}
	if f.MaxLuma() > 130 {
		t.Error("CompensateFrame mutated the input")
	}
	// Target 1 means gain 1: a no-op.
	same := CompensateFrame(f, 1, compensate.ContrastEnhancement)
	if !same.Equal(f) {
		t.Error("target 1 altered the frame")
	}
	// Target 0 must not blow up.
	safe := CompensateFrame(f, 0, compensate.ContrastEnhancement)
	if !safe.Equal(f) {
		t.Error("target 0 not treated as gain 1")
	}
}

func TestCompensateFrameBrightnessMethod(t *testing.T) {
	f := frame.Solid(2, 2, pixel.Gray(100))
	comp := CompensateFrame(f, 0.6, compensate.BrightnessCompensation)
	want := pixel.Gray(202) // 100 + (1-0.6)*255 = 202
	if comp.At(0, 0) != want {
		t.Errorf("brightness-compensated pixel = %v, want %v", comp.At(0, 0), want)
	}
}

func TestEstimateAveragePowerMatchesPlayback(t *testing.T) {
	c := darkClip()
	track := annotate(t, c)
	dev := display.IPAQ5555()
	model := power.DefaultModel(dev)
	qi := track.QualityIndex(0.10)
	est := EstimateAveragePower(track, dev, model, qi)
	rep, err := Play(ClipSource{c}, track, PlaybackOptions{Device: dev, Quality: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	actual := model.AveragePower(rep.Trace)
	if math.Abs(est-actual) > 0.01 {
		t.Errorf("estimated %vW vs played %vW", est, actual)
	}
}

func TestEstimateAveragePowerDegenerate(t *testing.T) {
	dev := display.IPAQ5555()
	model := power.DefaultModel(dev)
	empty := &annotation.Track{FPS: 10, Quality: []float64{0}}
	full := model.Instant(power.State{Decoding: true, NetworkActive: true, BacklightLevel: display.MaxLevel})
	if got := EstimateAveragePower(empty, dev, model, 0); math.Abs(got-full) > 1e-9 {
		t.Errorf("empty track estimate = %v, want full-backlight %v", got, full)
	}
	if got := EstimateAveragePower(empty, dev, model, 5); math.Abs(got-full) > 1e-9 {
		t.Errorf("bad index estimate = %v", got)
	}
}
