package experiments

import (
	"repro/internal/annotation"
	"repro/internal/backlightdev"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/scene"
	"repro/internal/video"
)

// The ablations quantify the design choices DESIGN.md calls out: the two
// scene-detection thresholds, per-scene vs per-frame backlight updates,
// the baseline policy comparison, and transfer-function awareness.

// ThresholdRow is one scene-threshold configuration's outcome.
type ThresholdRow struct {
	Threshold   float64
	MinInterval int
	Scenes      int
	Savings     float64 // backlight savings at 10% quality
	Switches    int
	MaxStep     int
}

// AblateThresholds sweeps the scene-change threshold and minimum scene
// interval on one clip at the 10% quality level.
func AblateThresholds(opt Options, clipName string) ([]ThresholdRow, error) {
	if clipName == "" {
		clipName = "spiderman2"
	}
	clip := video.ClipByName(clipName, opt.Library)
	src := core.ClipSource{Clip: clip}
	var rows []ThresholdRow
	for _, th := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
		for _, mi := range []int{1, clip.FPS / 2, clip.FPS, 2 * clip.FPS} {
			if mi < 1 {
				mi = 1
			}
			cfg := scene.Config{Threshold: th, MinInterval: mi}
			track, scenes, err := core.Annotate(src, cfg, nil)
			if err != nil {
				return nil, err
			}
			rep, err := core.Play(src, track, core.PlaybackOptions{
				Device: opt.Device, Quality: 0.10,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, ThresholdRow{
				Threshold:   th,
				MinInterval: mi,
				Scenes:      len(scenes),
				Savings:     rep.BacklightSavings,
				Switches:    rep.Switches,
				MaxStep:     rep.MaxStep,
			})
		}
	}
	return rows, nil
}

// GranularityRow compares per-scene and per-frame backlight updates.
type GranularityRow struct {
	Mode     string
	Savings  float64
	Switches int
	MaxStep  int
}

// AblateGranularity plays one clip with scene-level and frame-level
// backlight updates (§4.3: "sometimes, better results are obtained if we
// allow backlight changes for each frame (but it may introduce some
// flicker)"). The frame-level variant is a track annotated at the finest
// granularity: a one-level threshold and a one-frame minimum interval.
func AblateGranularity(opt Options, clipName string) ([]GranularityRow, error) {
	if clipName == "" {
		clipName = "catwoman"
	}
	clip := video.ClipByName(clipName, opt.Library)
	src := core.ClipSource{Clip: clip}
	configs := []struct {
		mode string
		cfg  scene.Config
	}{
		{"per-scene", scene.DefaultConfig(clip.FPS)},
		{"per-frame", scene.Config{Threshold: 1.0 / 255, MinInterval: 1}},
	}
	var rows []GranularityRow
	for _, c := range configs {
		track, _, err := core.Annotate(src, c.cfg, nil)
		if err != nil {
			return nil, err
		}
		rep, err := core.Play(src, track, core.PlaybackOptions{
			Device: opt.Device, Quality: 0.10,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, GranularityRow{
			Mode: c.mode, Savings: rep.BacklightSavings,
			Switches: rep.Switches, MaxStep: rep.MaxStep,
		})
	}
	return rows, nil
}

// Baselines evaluates every baseline strategy on one clip at the given
// quality budget.
func Baselines(opt Options, clipName string, budget float64) ([]baseline.Result, error) {
	if clipName == "" {
		clipName = "i_robot"
	}
	clip := video.ClipByName(clipName, opt.Library)
	stats := make([]scene.FrameStats, clip.TotalFrames())
	for i := range stats {
		stats[i] = scene.StatsOf(clip.Frame(i))
	}
	strategies := []baseline.Strategy{
		baseline.Static{},
		baseline.OracleFrame{},
		baseline.History{},
		baseline.Smoothed{},
		baseline.Annotated{Config: scene.DefaultConfig(clip.FPS)},
	}
	results := make([]baseline.Result, 0, len(strategies))
	for _, s := range strategies {
		levels := s.Levels(opt.Device, stats, budget)
		results = append(results, baseline.Evaluate(s.Name(), opt.Device, stats, levels, clip.FPS, budget))
	}
	return results, nil
}

// TransferRow compares the device-aware inverse-LUT backlight mapping with
// a naive linear mapping (level = target×255) on one device.
type TransferRow struct {
	Device string
	// LUTSavings / NaiveSavings: backlight savings at 10% quality.
	LUTSavings   float64
	NaiveSavings float64
	// NaiveUnderlit is the fraction of scenes where the naive level's
	// luminance falls short of the target (visible quality loss the LUT
	// avoids by construction).
	NaiveUnderlit float64
}

// AblateTransferAwareness quantifies why the paper characterises each
// display: ignoring the nonlinear transfer either wastes power or
// under-lights scenes, depending on the curve's direction.
func AblateTransferAwareness(opt Options, clipName string) ([]TransferRow, error) {
	if clipName == "" {
		clipName = "themovie"
	}
	clip := video.ClipByName(clipName, opt.Library)
	src := core.ClipSource{Clip: clip}
	var rows []TransferRow
	for _, dev := range display.Devices() {
		track, _, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
		if err != nil {
			return nil, err
		}
		qi := track.QualityIndex(0.10)
		var lutPower, naivePower, fullPower float64
		underlit := 0
		for _, rec := range track.Records {
			target := float64(rec.Targets[qi]) / 255
			secs := float64(rec.Frames) / float64(clip.FPS)
			lut := dev.LevelFor(target)
			naive := int(target*display.MaxLevel + 0.5)
			lutPower += dev.BacklightPower(lut) * secs
			naivePower += dev.BacklightPower(naive) * secs
			fullPower += dev.BacklightPower(display.MaxLevel) * secs
			if dev.Luminance(naive)+1e-9 < target {
				underlit++
			}
		}
		rows = append(rows, TransferRow{
			Device:        dev.Name,
			LUTSavings:    1 - lutPower/fullPower,
			NaiveSavings:  1 - naivePower/fullPower,
			NaiveUnderlit: float64(underlit) / float64(len(track.Records)),
		})
	}
	return rows, nil
}

// MethodRow compares contrast enhancement with brightness compensation.
type MethodRow struct {
	Method     string
	MeanAbsErr float64
	MaxErr     float64
	Clipped    float64
}

// AblateCompensationMethod measures perceived-intensity fidelity of the
// two compensation operators on the sample frame at a 50% luminance
// target.
func AblateCompensationMethod(opt Options) []MethodRow {
	dev := opt.Device
	f := sampleDarkFrame(opt)
	target := 0.55
	level := dev.LevelFor(target)
	lDim := dev.Luminance(level)
	lFull := dev.Luminance(display.MaxLevel)
	white := dev.Transmittance * lFull

	evaluate := func(g func(y float64) float64) MethodRow {
		var sum, max float64
		clipped := 0
		for _, px := range f.Pix {
			y := px.Luma() / 255
			orig := dev.Transmittance * lFull * y
			yc := g(y)
			if yc > 1 {
				yc = 1
				clipped++
			}
			got := dev.Transmittance * lDim * yc
			err := abs(orig-got) / white
			sum += err
			if err > max {
				max = err
			}
		}
		n := float64(len(f.Pix))
		return MethodRow{MeanAbsErr: sum / n, MaxErr: max, Clipped: float64(clipped) / n}
	}

	k := 1 / target
	delta := 1 - target
	contrast := evaluate(func(y float64) float64 { return y * k })
	contrast.Method = "contrast"
	brightness := evaluate(func(y float64) float64 { return y + delta })
	brightness.Method = "brightness"
	return []MethodRow{contrast, brightness}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// DetectorRow compares the paper's max-luminance scene detector with the
// EMD histogram detector against generator ground truth on one clip.
type DetectorRow struct {
	Detector  string
	Scenes    int
	Precision float64
	Recall    float64
	// Savings is the backlight saving at 10% quality when the detected
	// scenes drive the annotation.
	Savings float64
}

// AblateDetectors scores both detectors on one clip: boundary accuracy
// against ground truth, and the power the resulting annotation achieves.
func AblateDetectors(opt Options, clipName string) ([]DetectorRow, error) {
	if clipName == "" {
		clipName = "returnoftheking"
	}
	clip := video.ClipByName(clipName, opt.Library)
	stats := make([]scene.FrameStats, clip.TotalFrames())
	for i := range stats {
		stats[i] = scene.StatsOf(clip.Frame(i))
	}
	var truth []int
	for i := 1; i < len(clip.Scenes); i++ {
		truth = append(truth, clip.SceneStart(i))
	}

	score := func(name string, scenes []scene.Scene) (DetectorRow, error) {
		p, r := scene.BoundaryScore(scene.Boundaries(scenes), truth, 1)
		track := annotationFromStats(clip.FPS, scenes, stats)
		rep, err := core.Play(core.ClipSource{Clip: clip}, track, core.PlaybackOptions{
			Device: opt.Device, Quality: 0.10,
		})
		if err != nil {
			return DetectorRow{}, err
		}
		return DetectorRow{
			Detector: name, Scenes: len(scenes),
			Precision: p, Recall: r, Savings: rep.BacklightSavings,
		}, nil
	}

	maxRow, err := score("max-luminance", scene.Detect(scene.DefaultConfig(clip.FPS), stats))
	if err != nil {
		return nil, err
	}
	histRow, err := score("histogram-emd", scene.DetectHistogram(10, clip.FPS/2+1, stats))
	if err != nil {
		return nil, err
	}
	return []DetectorRow{maxRow, histRow}, nil
}

// annotationFromStats is a small local helper mirroring core.Annotate's
// track construction for externally detected scenes.
func annotationFromStats(fps int, scenes []scene.Scene, stats []scene.FrameStats) *annotation.Track {
	return annotation.FromStats(fps, scenes, stats, nil)
}

// HardwareRow is one hardware-resolution configuration's outcome.
type HardwareRow struct {
	Steps   int
	Savings float64 // backlight savings at 10% quality through the driver
	LossPts float64 // percentage points lost vs continuous control
}

// AblateHardwareSteps quantifies what the backlight driver's discrete
// hardware steps cost: requested levels round up to the next step, so a
// coarse driver gives back part of the savings.
func AblateHardwareSteps(opt Options, clipName string) ([]HardwareRow, error) {
	if clipName == "" {
		clipName = "returnoftheking"
	}
	clip := video.ClipByName(clipName, opt.Library)
	src := core.ClipSource{Clip: clip}
	track, _, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
	if err != nil {
		return nil, err
	}
	rep, err := core.Play(src, track, core.PlaybackOptions{
		Device: opt.Device, Quality: 0.10, PerFrame: true,
	})
	if err != nil {
		return nil, err
	}
	levels := make([]int, len(rep.PerFrame))
	for i, fr := range rep.PerFrame {
		levels[i] = fr.Level
	}
	dev := opt.Device
	full := dev.BacklightPower(display.MaxLevel) * float64(len(levels)) / float64(clip.FPS)
	var rows []HardwareRow
	for _, steps := range []int{4, 8, 16, 32, 64, 256} {
		drv, err := backlightdev.New(steps)
		if err != nil {
			return nil, err
		}
		cont, quant := backlightdev.QuantizationLoss(dev, drv, levels, clip.FPS)
		rows = append(rows, HardwareRow{
			Steps:   steps,
			Savings: 1 - quant/full,
			LossPts: (quant - cont) / full,
		})
	}
	return rows, nil
}
