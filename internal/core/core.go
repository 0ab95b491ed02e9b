// Package core ties the substrates into the paper's contribution: the
// annotation-driven backlight scaling pipeline.
//
// Offline (server/proxy side):
//
//	source frames → luminance statistics → scene detection → annotation
//	track (per-scene targets at each quality level)
//
// Online (client side, simulated):
//
//	annotated stream → per-scene backlight level via the device's inverse
//	transfer LUT → compensated frames displayed at the dimmed backlight →
//	power trace → analytic (Figure 9) and DAQ-measured (Figure 10) savings
//
// The compensation applied to the stream is device independent (the server
// offers the same quality variants to every client; §4.3): frames are
// scaled by k = 1/target so the scene's post-clipping ceiling reaches full
// scale, and each device dims to the backlight level that restores the
// original perceived intensity through its own transfer function.
package core

import (
	"context"
	"fmt"

	"repro/internal/annotation"
	"repro/internal/compensate"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/power"
	"repro/internal/scene"
	"repro/internal/video"
)

// Source abstracts a decodable video source (a synthetic clip, a decoded
// container stream, ...).
type Source interface {
	// Size returns the frame dimensions.
	Size() (w, h int)
	// FPS returns the playback rate.
	FPS() int
	// TotalFrames returns the stream length.
	TotalFrames() int
	// Frame renders/decodes frame i.
	Frame(i int) *frame.Frame
}

// ClipSource adapts a synthetic video.Clip to the Source interface.
type ClipSource struct{ Clip *video.Clip }

// Size implements Source.
func (s ClipSource) Size() (int, int) { return s.Clip.W, s.Clip.H }

// FPS implements Source.
func (s ClipSource) FPS() int { return s.Clip.FPS }

// TotalFrames implements Source.
func (s ClipSource) TotalFrames() int { return s.Clip.TotalFrames() }

// Frame implements Source.
func (s ClipSource) Frame(i int) *frame.Frame { return s.Clip.Frame(i) }

// Annotate runs the offline analysis pass: one streaming sweep over the
// source collecting per-frame luminance statistics, scene detection with
// the given thresholds, and annotation of every scene at every quality
// level. Scene targets are computed so the clipping budget holds on every
// frame of the scene, not merely in aggregate. It returns the track and
// the detected scenes (the latter for diagnostics and figures). It runs
// the sequential path; use AnnotatePipeline for the concurrent one.
func Annotate(src Source, cfg scene.Config, quality []float64) (*annotation.Track, []scene.Scene, error) {
	return AnnotatePipeline(context.Background(), src, cfg, quality, AnnotateOptions{})
}

// PlaybackOptions configures a simulated playback run.
type PlaybackOptions struct {
	// Device is the client display profile.
	Device *display.Profile
	// Quality is the clipping budget the user requested (fraction).
	Quality float64
	// PerFrame retains the per-frame series needed by Figure 6.
	PerFrame bool
	// EvaluateQuality computes perceived-intensity fidelity per frame
	// (slower; used by the quality experiments).
	EvaluateQuality bool
}

// FrameRecord is the per-frame series for Figure 6.
type FrameRecord struct {
	Index      int
	MaxLuma    float64 // original frame max luminance, 0..255
	Target     float64 // annotated scene target luminance, 0..1
	Level      int     // backlight level set for this frame
	PowerSaved float64 // instantaneous backlight power savings, 0..1
}

// Report aggregates a playback run.
type Report struct {
	Device  string
	Quality float64
	Frames  int
	Scenes  int

	// BacklightSavings is the analytic backlight energy saving vs full
	// backlight (the Figure 9 quantity).
	BacklightSavings float64
	// TotalSavings is the analytic whole-device energy saving.
	TotalSavings float64
	// MeasuredTotalSavings is the DAQ-sampled whole-device saving (the
	// Figure 10 quantity).
	MeasuredTotalSavings float64

	// AvgLevel is the mean backlight level during playback.
	AvgLevel float64
	// Switches counts backlight level changes (flicker proxy).
	Switches int
	// MaxStep is the largest single backlight level change.
	MaxStep int

	// MeanClipped is the average fraction of pixels clipped per frame.
	MeanClipped float64
	// MeanAbsErr / MaxErr are perceived-intensity errors (set when
	// EvaluateQuality is on).
	MeanAbsErr float64
	MaxErr     float64

	// AnnotationBytes is the side-channel overhead carried by the stream.
	AnnotationBytes int

	// PerFrame is the Figure 6 series (nil unless requested).
	PerFrame []FrameRecord

	// Trace and Reference are the playback power traces (optimised and
	// full-backlight), exposed for the DAQ and battery estimates.
	Trace, Reference *power.Trace
}

// Play simulates annotated playback of src on the configured device and
// returns the aggregated report. Frames are accounted by a power.Ledger,
// the integrator streamed sessions use too, under the device's default
// playback model; the DAQ is the paper's bench configuration.
func Play(src Source, track *annotation.Track, opt PlaybackOptions) (*Report, error) {
	if opt.Device == nil {
		return nil, fmt.Errorf("core: playback needs a device profile")
	}
	if err := opt.Device.Validate(); err != nil {
		return nil, err
	}
	if opt.Quality < 0 || opt.Quality > 1 {
		return nil, fmt.Errorf("core: quality budget %v outside [0,1]", opt.Quality)
	}
	n := src.TotalFrames()
	if n == 0 {
		return nil, fmt.Errorf("core: empty source")
	}

	dev := opt.Device
	dev.BuildInverse()
	model := power.DefaultModel(dev)
	led := power.NewLedgerModel(model)
	qi := track.QualityIndex(opt.Quality)
	cursor := track.NewCursor(qi)
	frameSeconds := 1 / float64(src.FPS())

	rep := &Report{
		Device:          dev.Name,
		Quality:         track.Quality[qi],
		Frames:          n,
		Scenes:          len(track.Records),
		AnnotationBytes: track.Size(),
	}

	level := display.MaxLevel
	var clippedSum, errSum, errMax float64
	for i := 0; i < n; i++ {
		target, sceneStart := cursor.Next()
		if sceneStart {
			level = dev.LevelFor(target)
		}
		led.Frame(frameSeconds, level)

		if opt.EvaluateQuality || opt.PerFrame {
			f := src.Frame(i)
			if opt.EvaluateQuality {
				plan := serverPlan(target, level)
				fid := compensate.Evaluate(dev, plan, f)
				clippedSum += fid.Clipped
				errSum += fid.MeanAbsErr
				if fid.MaxErr > errMax {
					errMax = fid.MaxErr
				}
			}
			if opt.PerFrame {
				rep.PerFrame = append(rep.PerFrame, FrameRecord{
					Index:      i,
					MaxLuma:    f.MaxLuma(),
					Target:     target,
					Level:      level,
					PowerSaved: dev.SavingsAtLevel(level),
				})
			}
		}
	}

	lr := led.Report()
	rep.AvgLevel, rep.Switches, rep.MaxStep = lr.AvgLevel, lr.Switches, lr.MaxStep
	rep.Trace, rep.Reference = led.Traces()
	rep.BacklightSavings = model.BacklightSavings(rep.Reference, rep.Trace)
	rep.TotalSavings = model.Savings(rep.Reference, rep.Trace)
	if opt.EvaluateQuality {
		rep.MeanClipped = clippedSum / float64(n)
		rep.MeanAbsErr = errSum / float64(n)
		rep.MaxErr = errMax
	}

	daq := power.DefaultDAQ()
	measured, err := daq.MeasuredSavings(model, rep.Reference, rep.Trace)
	if err != nil {
		return nil, err
	}
	rep.MeasuredTotalSavings = measured
	return rep, nil
}

// serverPlan reconstructs the plan a server-compensated stream implies at
// the client: the gain is device independent (1/target), the level is the
// device's.
func serverPlan(target float64, level int) compensate.Plan {
	k := 1.0
	if target > 0 {
		k = 1 / target
	}
	return compensate.Plan{Target: target, Level: level, K: k}
}

// CompensateFrame applies the server-side, device-independent compensation
// for a scene with the given target: contrast enhancement by 1/target.
// Exposed for the stream/proxy pipeline and the camera validation flow.
func CompensateFrame(f *frame.Frame, target float64, m compensate.Method) *frame.Frame {
	return compensationPlan(target).Compensated(m, f)
}

// CompensateFrameInto is CompensateFrame into dst, a frame of f's size,
// which it overwrites; f is left untouched. An encoder that compensates
// a clip frame by frame reuses one dst.
func CompensateFrameInto(dst, f *frame.Frame, target float64, m compensate.Method) {
	copy(dst.Pix, f.Pix)
	compensationPlan(target).Apply(m, dst)
}

// compensationPlan is the device-independent plan for a scene target:
// contrast enhancement by 1/target.
func compensationPlan(target float64) compensate.Plan {
	k := 1.0
	if target > 0 {
		k = 1 / target
	}
	return compensate.Plan{Target: target, K: k, Delta: (1 - target) * 255}
}

// Sweep runs Play across all the track's quality levels and returns one
// report per level — the inner loop of Figures 9 and 10.
func Sweep(src Source, track *annotation.Track, dev *display.Profile) ([]*Report, error) {
	reports := make([]*Report, 0, len(track.Quality))
	for _, q := range track.Quality {
		rep, err := Play(src, track, PlaybackOptions{Device: dev, Quality: q})
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// EstimateAveragePower predicts the device's mean playback power at
// quality index qi directly from the annotation track — no frames needed,
// which is what lets a client do this during negotiation, before any
// content arrives (§3's "available even before decoding the data").
func EstimateAveragePower(track *annotation.Track, dev *display.Profile, model *power.Model, qi int) float64 {
	if qi < 0 || qi >= len(track.Quality) || track.TotalFrames() == 0 {
		return model.Instant(power.State{Decoding: true, NetworkActive: true, BacklightLevel: display.MaxLevel})
	}
	dev.BuildInverse()
	var energy, seconds float64
	for _, rec := range track.Records {
		level := dev.LevelFor(float64(rec.Targets[qi]) / 255)
		secs := float64(rec.Frames) / float64(track.FPS)
		energy += model.Instant(power.State{
			Decoding: true, NetworkActive: true, BacklightLevel: level,
		}) * secs
		seconds += secs
	}
	if seconds == 0 {
		return 0
	}
	return energy / seconds
}
