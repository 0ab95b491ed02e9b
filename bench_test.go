// Benchmarks regenerating every figure of the paper's evaluation (one
// benchmark per figure, reporting the headline quantity as a custom
// metric) plus microbenchmarks of each pipeline stage. Run with
//
//	go test -bench=. -benchmem
//
// The figure benchmarks call the same generators as cmd/experiments, so
// timing them and reproducing the evaluation are the same action.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/annotation"
	"repro/internal/camera"
	"repro/internal/codec"
	"repro/internal/compensate"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/dvs"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/histogram"
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/pixel"
	"repro/internal/power"
	"repro/internal/quality"
	"repro/internal/scene"
	"repro/internal/video"
)

func benchOptions() experiments.Options {
	return experiments.Options{
		Library: video.LibraryOptions{W: 80, H: 60, FPS: 8, DurationScale: 0.15},
		Device:  display.IPAQ5555(),
	}
}

// --- figure benchmarks ---

func BenchmarkFig3HistogramProperties(b *testing.B) {
	opt := benchOptions()
	var r experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3(opt)
	}
	b.ReportMetric(r.Average, "avg-luma")
	b.ReportMetric(float64(r.DynamicRange), "dyn-range")
}

func BenchmarkFig4CompensationValidation(b *testing.B) {
	opt := benchOptions()
	var r experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(opt)
	}
	b.ReportMetric(r.MeanShift, "comp-shift")
	b.ReportMetric(r.UncompShift, "uncomp-shift")
}

func BenchmarkFig5QualityTradeoff(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(opt)
	}
	b.ReportMetric(rows[1].Lost*100, "lost%@5")
	b.ReportMetric(rows[4].Lost*100, "lost%@20")
}

func BenchmarkFig6SceneGrouping(b *testing.B) {
	opt := benchOptions()
	var r experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig6(opt, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Scenes), "scenes")
	var saved float64
	for _, rec := range r.Records {
		saved += rec.PowerSaved
	}
	b.ReportMetric(saved/float64(len(r.Records))*100, "avg-saved%")
}

func BenchmarkFig7BrightnessVsBacklight(b *testing.B) {
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig7(nil)
	}
	mid := rows[len(rows)/2]
	b.ReportMetric(mid.Measured["ipaq5555"], "led-mid")
	b.ReportMetric(mid.Measured["ipaq3650"], "ccfl-mid")
}

func BenchmarkFig8BrightnessVsWhite(b *testing.B) {
	dev := display.IPAQ5555()
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig8(dev, nil)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.AtFull, "white-full")
	b.ReportMetric(last.AtHalf, "white-half")
}

// sweepMetrics extracts the headline Figure 9/10 numbers from a sweep.
func sweepMetrics(rows []experiments.SavingsRow) (maxBacklight, iceBacklight, maxTotal float64) {
	for _, r := range rows {
		for _, v := range r.Backlight {
			if v > maxBacklight {
				maxBacklight = v
			}
		}
		for _, v := range r.Total {
			if v > maxTotal {
				maxTotal = v
			}
		}
		if r.Clip == "ice_age" {
			iceBacklight = r.Backlight[2]
		}
	}
	return
}

func BenchmarkFig9BacklightSavings(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.SavingsRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Sweep(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxBl, ice, _ := sweepMetrics(rows)
	b.ReportMetric(maxBl*100, "max-saved%")
	b.ReportMetric(ice*100, "ice_age%@10")
}

func BenchmarkFig10TotalSavings(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.SavingsRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Sweep(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	_, _, maxTotal := sweepMetrics(rows)
	b.ReportMetric(maxTotal*100, "max-total%")
}

func BenchmarkPowerBreakdown(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		for _, dev := range display.Devices() {
			share = power.DefaultModel(dev).BacklightShare()
		}
	}
	b.ReportMetric(share*100, "backlight-share%")
}

func BenchmarkAnnotationOverhead(b *testing.B) {
	opt := benchOptions()
	clip := video.ClipByName("returnoftheking", opt.Library)
	src := core.ClipSource{Clip: clip}
	var track *annotation.Track
	var err error
	for i := 0; i < b.N; i++ {
		track, _, err = core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(track.Size()), "bytes")
}

// BenchmarkAnnotatePipeline measures annotation throughput against the
// worker count. Per-frame statistics dominate the pass and are
// embarrassingly parallel, so throughput should scale near-linearly with
// workers up to the core count (on a multi-core host; GOMAXPROCS=1
// serialises the pool). Every parallel run is also checked byte-identical
// to the sequential track — the correctness half of the contract.
func BenchmarkAnnotatePipeline(b *testing.B) {
	opt := benchOptions()
	clip := video.ClipByName("returnoftheking", opt.Library)
	src := core.ClipSource{Clip: clip}
	cfg := scene.DefaultConfig(clip.FPS)
	ctx := context.Background()
	seq, _, err := core.AnnotatePipeline(ctx, src, cfg, nil, core.AnnotateOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	golden := seq.Encode()
	frames := float64(src.TotalFrames())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var track *annotation.Track
			for i := 0; i < b.N; i++ {
				track, _, err = core.AnnotatePipeline(ctx, src, cfg, nil,
					core.AnnotateOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(track.Encode(), golden) {
				b.Fatal("parallel track differs from sequential")
			}
			b.ReportMetric(frames*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// --- ablation benchmarks ---

func BenchmarkAblationThresholds(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.ThresholdRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblateThresholds(opt, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

func BenchmarkAblationGranularity(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.GranularityRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblateGranularity(opt, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].Switches-rows[0].Switches), "extra-switches")
}

func BenchmarkAblationBaselines(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Baselines(opt, "", 0.10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransferAwareness(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateTransferAwareness(opt, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCompensationMethod(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.MethodRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblateCompensationMethod(opt)
	}
	b.ReportMetric(rows[0].MeanAbsErr, "contrast-err")
	b.ReportMetric(rows[1].MeanAbsErr, "brightness-err")
}

// --- pipeline stage microbenchmarks ---

func benchFrame() *frame.Frame {
	c := video.MustNew("bench", 160, 120, 10, 3, []video.SceneSpec{
		{Frames: 2, BaseLuma: 0.3, LumaSpread: 0.2, MaxLuma: 0.9, HighlightFrac: 0.02, Chroma: 0.5},
	})
	return c.Frame(0)
}

func BenchmarkFrameRender(b *testing.B) {
	c := video.MustNew("bench", 160, 120, 10, 3, []video.SceneSpec{
		{Frames: 1 << 30, BaseLuma: 0.3, LumaSpread: 0.2, MaxLuma: 0.9, HighlightFrac: 0.02, Chroma: 0.5, Motion: 1},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Frame(i % 1024)
	}
}

func BenchmarkHistogramFromFrame(b *testing.B) {
	f := benchFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		histogram.FromFrame(f)
	}
}

func BenchmarkDCT8x8(b *testing.B) {
	var src, dst codec.Block
	for i := range src {
		src[i] = float64(i%255) - 128
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		codec.FDCT(&src, &dst)
		codec.IDCT(&dst, &src)
	}
}

// BenchmarkEncodeFrame encodes a moving two-scene clip, one frame per
// op, at GOP = fps, so P-frame macroblocks run the motion search (a
// static frame would make every one a zero-SAD skip).
func BenchmarkEncodeFrame(b *testing.B) {
	c := video.MustNew("bench-motion", 160, 120, 10, 3, []video.SceneSpec{
		{Frames: 10, BaseLuma: 0.3, LumaSpread: 0.4, MaxLuma: 0.9, HighlightFrac: 0.02, Chroma: 0.5, Motion: 2.5},
		{Frames: 10, BaseLuma: 0.55, LumaSpread: 0.5, MaxLuma: 1.0, HighlightFrac: 0.05, Chroma: 0.3, Motion: 4.5},
	})
	frames := make([]*frame.Frame, c.TotalFrames())
	for i := range frames {
		frames[i] = c.Frame(i)
	}
	// The clip length is a multiple of the GOP, so every pass over it
	// starts with an I-frame and codes the same frame types.
	enc, err := codec.NewEncoder(c.W, c.H, c.FPS, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(c.W * c.H * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkDecodeFrame(b *testing.B) {
	f := benchFrame()
	enc, _ := codec.NewEncoder(f.W, f.H, 1, 4)
	ef, err := enc.Encode(f)
	if err != nil {
		b.Fatal(err)
	}
	dec, _ := codec.NewDecoder(f.W, f.H)
	b.ReportAllocs()
	b.SetBytes(int64(f.W * f.H * 3))
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(ef); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompensateFrame(b *testing.B) {
	f := benchFrame()
	plan := compensate.Plan{Target: 0.5, K: 2}
	b.ReportAllocs()
	b.SetBytes(int64(f.W * f.H * 3))
	for i := 0; i < b.N; i++ {
		plan.Compensated(compensate.ContrastEnhancement, f)
	}
}

func BenchmarkSceneDetect(b *testing.B) {
	stats := make([]scene.FrameStats, 600)
	for i := range stats {
		stats[i] = scene.FrameStats{MaxLuma: float64(50 + (i/60)*20%200)}
	}
	cfg := scene.DefaultConfig(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scene.Detect(cfg, stats)
	}
}

func BenchmarkLevelFor(b *testing.B) {
	dev := display.IPAQ5555()
	dev.BuildInverse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.LevelFor(float64(i%256) / 255)
	}
}

func BenchmarkAnnotationEncodeDecode(b *testing.B) {
	recs := make([]annotation.Record, 45)
	for i := range recs {
		recs[i] = annotation.Record{Frames: 40, Targets: []uint8{200, 160, 140, 130, 120}}
	}
	track := &annotation.Track{FPS: 10, Quality: compensate.QualityLevels, Records: recs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data := track.Encode()
		if _, err := annotation.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDAQMeasure(b *testing.B) {
	dev := display.IPAQ5555()
	model := power.DefaultModel(dev)
	daq := power.DefaultDAQ()
	var tr power.Trace
	tr.Append(1.0, power.State{Decoding: true, NetworkActive: true, BacklightLevel: 120})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := daq.Measure(model, &tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCameraSnapshot(b *testing.B) {
	cam := camera.Default()
	dev := display.IPAQ5555()
	f := frame.Solid(64, 64, pixel.Gray(128))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cam.Snapshot(dev, f, 128)
	}
}

func BenchmarkEndToEndPipeline(b *testing.B) {
	opt := benchOptions()
	clip := video.ClipByName("catwoman", opt.Library)
	src := core.ClipSource{Clip: clip}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		track, _, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Play(src, track, core.PlaybackOptions{
			Device: opt.Device, Quality: 0.10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- application benchmarks (the further §3 uses of annotations) ---

func BenchmarkApplicationDVS(b *testing.B) {
	opt := benchOptions()
	var rows []dvs.Result
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.DVSRows(opt, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Governor == "annotated" {
			b.ReportMetric(r.Savings*100, "cpu-saved%")
		}
	}
}

func BenchmarkApplicationNetwork(b *testing.B) {
	opt := benchOptions()
	var rows []netsched.Result
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.NetworkRows(opt, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == "annotated" {
			b.ReportMetric(r.Savings*100, "wnic-saved%")
		}
	}
}

func BenchmarkApplicationBattery(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.BatteryRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.BatteryRows(opt, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].GainOverQ0*100, "runtime-gain%")
}

func BenchmarkApplicationCredits(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.CreditsRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.CreditsRows(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.PlainTextClipped*100, "plain-text-clipped%")
	b.ReportMetric(last.ROITextClipped*100, "roi-text-clipped%")
}

func BenchmarkCameraResponseRecovery(b *testing.B) {
	cam := camera.Default()
	for i := 0; i < b.N; i++ {
		if _, err := cam.Characterize(24, []float64{0.25, 0.5, 1, 2, 4}, camera.RecoverOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRateControl(b *testing.B) {
	opt := benchOptions()
	clip := video.ClipByName("officexp", opt.Library)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rc, err := codec.NewRateController(120_000, clip.FPS, 8)
		if err != nil {
			b.Fatal(err)
		}
		enc, err := codec.NewEncoder(clip.W, clip.H, clip.FPS, rc.QScale())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < clip.TotalFrames(); j++ {
			enc.SetQScale(rc.QScale())
			ef, err := enc.Encode(clip.Frame(j))
			if err != nil {
				b.Fatal(err)
			}
			rc.Observe(ef)
		}
	}
}

func BenchmarkQualityMetrics(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.QualityRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.QualityMetrics(opt, "", 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].SnapPSNR, "psnr@5")
	b.ReportMetric(rows[1].SnapSSIM, "ssim@5")
}

func BenchmarkSSIM(b *testing.B) {
	f := benchFrame()
	g := f.Map(func(p pixel.RGB) pixel.RGB { return p.Add(3) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := quality.SSIM(f, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplicationAdaptive(b *testing.B) {
	opt := benchOptions()
	var rows []adaptive.Result
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AdaptiveRows(opt, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].MeanQuality, "aware-mean-q")
	b.ReportMetric(rows[1].MeanQuality, "fixed-mean-q")
}

func BenchmarkAblationHardwareSteps(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.HardwareRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblateHardwareSteps(opt, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].LossPts*100, "loss-pts@4steps")
}

func BenchmarkAblationDetectors(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateDetectors(opt, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// --- telemetry hot-path overhead (internal/obs) ---
//
// The no-op benchmarks prove disabled instrumentation is free: metric
// handles from a nil registry must cost ~1ns and zero allocations per
// operation, so the pipeline can stay instrumented unconditionally.

func BenchmarkObsCounterInc(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_total", "Bench.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterIncNop(b *testing.B) {
	var r *obs.Registry
	c := r.Counter("bench_total", "Bench.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if n := testing.AllocsPerRun(1000, c.Inc); n != 0 {
		b.Fatalf("no-op counter allocates %v/op", n)
	}
}

func BenchmarkObsGaugeSet(b *testing.B) {
	r := obs.NewRegistry()
	g := r.Gauge("bench_gauge", "Bench.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := obs.NewRegistry()
	h := r.Histogram("bench_seconds", "Bench.", obs.DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.001)
	}
}

func BenchmarkObsSpan(b *testing.B) {
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.StartSpan(ctx, "bench.stage").End()
	}
}

func BenchmarkObsSpanNop(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.StartSpan(ctx, "bench.stage").End()
	}
	if n := testing.AllocsPerRun(1000, func() {
		obs.StartSpan(ctx, "bench.stage").End()
	}); n != 0 {
		b.Fatalf("no-op span allocates %v/op", n)
	}
}

func BenchmarkObsTrace(b *testing.B) {
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tctx, root := obs.StartTrace(ctx, "bench.request")
		_, child := obs.StartSpanCtx(tctx, "bench.stage")
		child.SetAttr("outcome", "hit")
		child.End()
		root.End()
	}
}

// BenchmarkObsTraceNop is the alloc gate for the disabled-tracer path:
// with no registry attached, rooting a trace, opening a child span via
// context and attaching attributes must cost zero allocations, so the
// client/server hot paths can stay trace-instrumented unconditionally.
func BenchmarkObsTraceNop(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tctx, root := obs.StartTrace(ctx, "bench.request")
		_, child := obs.StartSpanCtx(tctx, "bench.stage")
		child.SetAttr("outcome", "hit")
		child.SetAttrInt("bytes", 42)
		child.End()
		root.End()
	}
	if n := testing.AllocsPerRun(1000, func() {
		tctx, root := obs.StartTrace(ctx, "bench.request")
		_, child := obs.StartSpanCtx(tctx, "bench.stage")
		child.SetAttr("outcome", "hit")
		child.SetAttrInt("bytes", 42)
		child.End()
		root.End()
	}); n != 0 {
		b.Fatalf("no-op trace allocates %v/op", n)
	}
}
